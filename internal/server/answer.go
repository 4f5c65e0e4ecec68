package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// maxBodyPrealloc caps the buffer readBody sizes from Content-Length; a
// 500-task workload is about 120 KB. Larger bodies still arrive, up to
// MaxBodyBytes, by growing the buffer as they are read.
const maxBodyPrealloc = 1 << 20

// readBody reads the whole request body, at most MaxBodyBytes, into one
// buffer sized from Content-Length, so a body is copied once. The cap
// keeps a lying header from allocating more than a real body would.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := min(r.ContentLength, s.opt.MaxBodyBytes, maxBodyPrealloc); n > 0 {
		// Room for the final read to see EOF without growing.
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	return buf.Bytes(), err
}

// answerBufs pools the buffers writePlan appends answers into.
var answerBufs = sync.Pool{New: func() any { return new([]byte) }}

// writePlan writes resp as the 200 answer of POST /plan in one Write
// with an explicit Content-Length. The bytes are writeJSON's.
func writePlan(w http.ResponseWriter, resp *PlanResponse) {
	bp := answerBufs.Get().(*[]byte)
	b := appendPlanResponse((*bp)[:0], resp)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	*bp = b
	answerBufs.Put(bp)
}

// appendPlanResponse appends r exactly as json.Encoder with
// SetIndent("", "  ") encodes it, trailing newline included: fields in
// declaration order, omitempty fields left out when zero, nil slices
// as null.
func appendPlanResponse(b []byte, r *PlanResponse) []byte {
	b = appendString(append(b, "{\n  \"metric\": "...), r.Metric)
	b = appendString(append(b, ",\n  \"wcet\": "...), r.WCET)
	b = appendString(append(b, ",\n  \"dispatcher\": "...), r.Dispatcher)
	b = strconv.AppendBool(append(b, ",\n  \"feasible\": "...), r.Feasible)
	if r.OverConstrained {
		b = append(b, ",\n  \"overConstrained\": true"...)
	}
	if r.ProvablyInfeasible {
		b = append(b, ",\n  \"provablyInfeasible\": true"...)
	}
	b = strconv.AppendInt(append(b, ",\n  \"maxLateness\": "...), r.MaxLateness, 10)
	b = strconv.AppendInt(append(b, ",\n  \"minLaxity\": "...), r.MinLaxity, 10)
	if r.Proof != "" {
		b = appendString(append(b, ",\n  \"proof\": "...), r.Proof)
	}
	res := &r.Result
	b = appendString(append(b, ",\n  \"result\": {\n    \"metric\": "...), res.Metric)
	b = appendArray(append(b, ",\n    \"arrival\": "...), res.Arrival)
	b = appendArray(append(b, ",\n    \"absDeadline\": "...), res.AbsDeadline)
	b = appendArray(append(b, ",\n    \"proc\": "...), res.Proc)
	b = appendArray(append(b, ",\n    \"start\": "...), res.Start)
	b = appendArray(append(b, ",\n    \"finish\": "...), res.Finish)
	b = strconv.AppendBool(append(b, ",\n    \"feasible\": "...), res.Feasible)
	b = strconv.AppendInt(append(b, ",\n    \"maxLateness\": "...), int64(res.MaxLateness), 10)
	b = strconv.AppendInt(append(b, ",\n    \"makespan\": "...), int64(res.Makespan), 10)
	b = appendFloat(append(b, "\n  },\n  \"planningMS\": "...), r.PlanningMS)
	b = appendString(append(b, ",\n  \"quality\": "...), r.Quality)
	return append(b, "\n}\n"...)
}

// appendArray appends a slice nested in the result object.
func appendArray[T ~int | ~int64](b []byte, v []T) []byte {
	switch {
	case v == nil:
		return append(b, "null"...)
	case len(v) == 0:
		return append(b, "[]"...)
	}
	for i, x := range v {
		if i == 0 {
			b = append(b, "[\n      "...)
		} else {
			b = append(b, ",\n      "...)
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, "\n    ]"...)
}

// appendString appends s quoted. A string encoding/json would escape
// (quotes, backslashes, control bytes, <, >, & or non-ASCII) is
// encoded by encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json formats a float64: like %g,
// but with exponents only below 1e-6 or from 1e21 up, and unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
