package graphio

import (
	"bytes"
	"strconv"

	"repro/internal/arch"
	"repro/internal/rtime"
)

// parseCanonical fills wl from b in one pass when b is in the canonical
// form and reports whether it was. The canonical form is what
// WriteWorkload emits, with any spacing:
//
//   - keys spelled exactly as the struct tags (Name and Speed inside
//     classes), each at most once per object;
//   - strings of printable ASCII with no escapes;
//   - integer fields holding integer literals that fit their type;
//     value and Speed any JSON number that strconv.ParseFloat accepts;
//   - null only in place of an array, and only whitespace after the
//     top-level object.
//
// On false wl holds partial state and the caller decodes b again with
// encoding/json, the reference this form is checked against. Nothing
// stored in wl aliases b.
func parseCanonical(b []byte, wl *WorkloadJSON) bool {
	s := scanner{b: b}
	if !s.object(func(key []byte) bool {
		switch string(key) {
		case "graph":
			return s.graph(&wl.Graph)
		case "platform":
			wl.Platform = new(PlatformJSON)
			return s.platform(wl.Platform)
		}
		return false
	}) {
		return false
	}
	s.space()
	return s.i == len(b)
}

// scanner walks the canonical form. Every method reports false as soon
// as the input leaves it.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) graph(g *GraphJSON) bool {
	return s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "numClasses":
			g.NumClasses, ok = s.int()
		case "tasks":
			g.Tasks, ok = list(s, s.task)
		case "arcs":
			g.Arcs, ok = list(s, s.arc)
		}
		return ok
	})
}

func (s *scanner) task() (TaskJSON, bool) {
	var t TaskJSON
	ok := s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "name":
			t.Name, ok = s.string()
		case "wcet":
			t.WCET, ok = list(s, s.time)
		case "phase":
			t.Phase, ok = s.time()
		case "period":
			t.Period, ok = s.time()
		case "eteDeadline":
			var d rtime.Time
			d, ok = s.time()
			t.ETEDeadline = &d
		case "pinned":
			var pin int
			pin, ok = s.int()
			t.Pinned = &pin
		case "resources":
			t.Resources, ok = list(s, s.int)
		case "criticality":
			t.Criticality, ok = s.int()
		case "value":
			t.Value, ok = s.float()
		}
		return ok
	})
	return t, ok
}

func (s *scanner) arc() (ArcJSON, bool) {
	var a ArcJSON
	ok := s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "from":
			a.From, ok = s.int()
		case "to":
			a.To, ok = s.int()
		case "items":
			a.Items, ok = s.time()
		}
		return ok
	})
	return a, ok
}

func (s *scanner) platform(p *PlatformJSON) bool {
	return s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "kind":
			p.Kind, ok = s.string()
		case "classes":
			p.Classes, ok = list(s, s.class)
		case "classOf":
			p.ClassOf, ok = list(s, s.int)
		case "busDelayPerItem":
			p.BusDelayItem, ok = s.time()
		case "links":
			p.Links, ok = list(s, s.link)
		}
		return ok
	})
}

func (s *scanner) class() (arch.Class, bool) {
	var c arch.Class
	ok := s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "Name":
			c.Name, ok = s.string()
		case "Speed":
			c.Speed, ok = s.float()
		}
		return ok
	})
	return c, ok
}

func (s *scanner) link() (LinkJSON, bool) {
	var l LinkJSON
	ok := s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "a":
			l.A, ok = s.int()
		case "b":
			l.B, ok = s.int()
		case "perItem":
			l.PerItem, ok = s.time()
		}
		return ok
	})
	return l, ok
}

// maxKeys bounds the keys of one canonical object; TaskJSON has the
// most, nine.
const maxKeys = 9

// object scans an object, handing each key to field with the scanner at
// the key's value; field scans the value. A repeated key leaves the
// form: encoding/json would overwrite in place.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var seen [maxKeys][]byte
	for n := 0; ; n++ {
		key, ok := s.str()
		if !ok || n == maxKeys {
			return false
		}
		for _, k := range seen[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		seen[n] = key
		if !s.next(':') || !field(key) {
			return false
		}
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// list scans an array of T, or null, which WriteWorkload writes for a
// graph without arcs. As with encoding/json, null yields a nil slice and
// an empty array an empty, non-nil one.
func list[T any](s *scanner, elem func() (T, bool)) ([]T, bool) {
	if s.space(); bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.i += len("null")
		return nil, true
	}
	if !s.next('[') {
		return nil, false
	}
	if s.next(']') {
		return []T{}, true
	}
	out := make([]T, 0, 4)
	for {
		v, ok := elem()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if s.next(']') {
			return out, true
		}
		if !s.next(',') {
			return nil, false
		}
	}
}

func (s *scanner) space() {
	b, i := s.b, s.i
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	s.i = i
}

// next consumes c after optional whitespace.
func (s *scanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string of printable ASCII without escapes. The returned
// bytes alias the input.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	b, i := s.b, s.i
	for ; i < len(b) && b[i] != '"'; i++ {
		if c := b[i]; c < 0x20 || c > 0x7e || c == '\\' {
			return nil, false
		}
	}
	if i == len(b) {
		return nil, false
	}
	v := b[s.i:i]
	s.i = i + 1
	return v, true
}

// string scans a string into a copy that shares nothing with the input.
func (s *scanner) string() (string, bool) {
	v, ok := s.str()
	return string(v), ok
}

// digits returns the end of the run of decimal digits starting at i.
func (s *scanner) digits(i int) int {
	for i < len(s.b) && '0' <= s.b[i] && s.b[i] <= '9' {
		i++
	}
	return i
}

// integer scans an integer literal -?(0|[1-9][0-9]*) that fits in an
// int64. A fraction or exponent is left unread, so the caller's next
// delimiter check fails on it.
func (s *scanner) integer() (int64, bool) {
	s.space()
	i := s.i
	neg := i < len(s.b) && s.b[i] == '-'
	if neg {
		i++
	}
	end := s.digits(i)
	// More than 19 digits cannot fit; up to 19 cannot overflow a uint64.
	if n := end - i; n == 0 || n > 19 || n > 1 && s.b[i] == '0' {
		return 0, false
	}
	var u uint64
	for _, c := range s.b[i:end] {
		u = u*10 + uint64(c-'0')
	}
	if u > 1<<63 || u == 1<<63 && !neg {
		return 0, false
	}
	s.i = end
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

func (s *scanner) int() (int, bool) {
	v, ok := s.integer()
	return int(v), ok && int64(int(v)) == v
}

func (s *scanner) time() (rtime.Time, bool) {
	v, ok := s.integer()
	return rtime.Time(v), ok
}

// float scans a JSON number and parses it as encoding/json does.
func (s *scanner) float() (float64, bool) {
	s.space()
	start, i := s.i, s.i
	if i < len(s.b) && s.b[i] == '-' {
		i++
	}
	end := s.digits(i)
	if end == i || end-i > 1 && s.b[i] == '0' {
		return 0, false
	}
	if i = end; i < len(s.b) && s.b[i] == '.' {
		if end = s.digits(i + 1); end == i+1 {
			return 0, false
		}
		i = end
	}
	if i < len(s.b) && (s.b[i] == 'e' || s.b[i] == 'E') {
		i++
		if i < len(s.b) && (s.b[i] == '+' || s.b[i] == '-') {
			i++
		}
		if end = s.digits(i); end == i {
			return 0, false
		}
		i = end
	}
	f, err := strconv.ParseFloat(string(s.b[start:i]), 64)
	s.i = i
	return f, err == nil
}
