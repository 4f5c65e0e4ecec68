// Plan serialization and durable cache snapshots.
//
// A Plan is a pure function of its Key, so a serialized plan is a valid
// substitute for a cold build anywhere the key matches: a process that
// re-imports its plans after a kill -9, or a fleet peer that pulls a
// neighbor's hot plans instead of rebuilding them. Two consumers share
// this format:
//
//   - cache snapshots: WriteSnapshot/ReadSnapshot persist a cache's
//     resident plans as JSON lines behind a fingerprinted header, with
//     the same torn-tail discipline as the experiment checkpoint
//     journal — a crash mid-write costs at most the last line;
//   - the fleet warm-fill protocol: EncodeKeyParam/DecodeKeyParam carry
//     a Key in a URL, and EncodePlan/DecodePlan carry a whole plan in a
//     /cache/fill body.
//
// DecodePlan re-derives the workload fingerprint and the estimate hash
// from the decoded content and refuses a plan whose recorded Key does
// not match: a corrupted or tampered entry can be skipped, never
// served.
package pipeline

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graphio"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/slicing"
)

// SnapshotHeader fingerprints the snapshot format; a file whose first
// line carries a different header is refused rather than misread.
const SnapshotHeader = "pland-plan-snapshot/v1"

// KeyJSON is the serialized form of a Key. The two 64-bit hashes are
// hex strings because JSON numbers cannot carry a full uint64.
type KeyJSON struct {
	Workload    string     `json:"workload"`
	Estimates   string     `json:"estimates"`
	Distributor string     `json:"distributor"`
	Dispatcher  string     `json:"dispatcher"`
	Verifier    string     `json:"verifier,omitempty"`
	Params      ParamsJSON `json:"params"`
}

// ParamsJSON mirrors slicing.Params explicitly, so the on-disk format
// stays stable under refactoring of the in-memory type.
type ParamsJSON struct {
	CThres       rtime.Time `json:"cThres,omitempty"`
	CThresFactor float64    `json:"cThresFactor,omitempty"`
	KG           float64    `json:"kG,omitempty"`
	KL           float64    `json:"kL,omitempty"`
	KR           float64    `json:"kR,omitempty"`
	Mode         int        `json:"mode,omitempty"`
}

// EncodeKey converts a Key to its serialized form.
func EncodeKey(k Key) KeyJSON {
	return KeyJSON{
		Workload:    fmt.Sprintf("%016x", k.Workload),
		Estimates:   fmt.Sprintf("%016x", k.Estimates),
		Distributor: k.Distributor,
		Dispatcher:  k.Dispatcher,
		Verifier:    k.Verifier,
		Params: ParamsJSON{
			CThres:       k.Params.CThres,
			CThresFactor: k.Params.CThresFactor,
			KG:           k.Params.KG,
			KL:           k.Params.KL,
			KR:           k.Params.KR,
			Mode:         int(k.Params.Mode),
		},
	}
}

// DecodeKey rebuilds a Key from its serialized form.
func DecodeKey(in KeyJSON) (Key, error) {
	var k Key
	if _, err := fmt.Sscanf(in.Workload, "%016x", &k.Workload); err != nil {
		return Key{}, fmt.Errorf("pipeline: key workload hash %q: %w", in.Workload, err)
	}
	if _, err := fmt.Sscanf(in.Estimates, "%016x", &k.Estimates); err != nil {
		return Key{}, fmt.Errorf("pipeline: key estimate hash %q: %w", in.Estimates, err)
	}
	k.Distributor = in.Distributor
	k.Dispatcher = in.Dispatcher
	k.Verifier = in.Verifier
	k.Params = slicing.Params{
		CThres:       in.Params.CThres,
		CThresFactor: in.Params.CThresFactor,
		KG:           in.Params.KG,
		KL:           in.Params.KL,
		KR:           in.Params.KR,
		Mode:         slicing.Mode(in.Params.Mode),
	}
	return k, nil
}

// EncodeKeyParam renders a Key as a URL-safe token for the fleet's
// GET /cache/fill?key=... endpoint.
func EncodeKeyParam(k Key) string {
	raw, err := json.Marshal(EncodeKey(k))
	if err != nil {
		// KeyJSON is plain strings and numbers; Marshal cannot fail.
		panic(err)
	}
	return base64.RawURLEncoding.EncodeToString(raw)
}

// DecodeKeyParam parses an EncodeKeyParam token.
func DecodeKeyParam(s string) (Key, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return Key{}, fmt.Errorf("pipeline: key param: %w", err)
	}
	var kj KeyJSON
	if err := json.Unmarshal(raw, &kj); err != nil {
		return Key{}, fmt.Errorf("pipeline: key param: %w", err)
	}
	return DecodeKey(kj)
}

// AssignmentJSON is the serialized window assignment.
type AssignmentJSON struct {
	Arrival         []rtime.Time `json:"arrival"`
	AbsDeadline     []rtime.Time `json:"absDeadline"`
	RelDeadline     []rtime.Time `json:"relDeadline"`
	Virtual         []rtime.Time `json:"virtual,omitempty"`
	Chains          [][]int      `json:"chains,omitempty"`
	ChainR          []float64    `json:"chainR,omitempty"`
	OverConstrained bool         `json:"overConstrained,omitempty"`
	Rounds          int          `json:"rounds,omitempty"`
	MetricName      string       `json:"metricName,omitempty"`
}

// ScheduleJSON is the serialized schedule.
type ScheduleJSON struct {
	Proc        []int        `json:"proc"`
	Start       []rtime.Time `json:"start"`
	Finish      []rtime.Time `json:"finish"`
	Feasible    bool         `json:"feasible"`
	Missed      []int        `json:"missed,omitempty"`
	MaxLateness rtime.Time   `json:"maxLateness"`
	Makespan    rtime.Time   `json:"makespan"`
	Order       []int        `json:"order,omitempty"`
}

// VerdictJSON is the serialized verdict.
type VerdictJSON struct {
	Feasible           bool `json:"feasible"`
	OverConstrained    bool `json:"overConstrained,omitempty"`
	ProvablyInfeasible bool `json:"provablyInfeasible,omitempty"`
	// Proof is the verifier's three-valued outcome as an int (VerifyNone
	// is omitted, keeping pre-verifier snapshots byte-identical).
	Proof       int        `json:"proof,omitempty"`
	MaxLateness rtime.Time `json:"maxLateness"`
	MinLaxity   rtime.Time `json:"minLaxity"`
}

// PlanJSON is the serialized form of one Plan: one snapshot line, or
// one /cache/fill payload. Stage wall times survive (a restored plan
// reports the planning cost of the build that produced it, exactly
// like a cache hit); allocation counters do not — they are profiling
// detail of a process that no longer exists.
type PlanJSON struct {
	Key        KeyJSON              `json:"key"`
	Workload   graphio.WorkloadJSON `json:"workload"`
	Estimates  []rtime.Time         `json:"estimates"`
	Assignment AssignmentJSON       `json:"assignment"`
	Schedule   ScheduleJSON         `json:"schedule"`
	Verdict    VerdictJSON          `json:"verdict"`
	// Quality is the plan's quality tag ("full" is omitted, keeping
	// pre-brownout snapshots byte-identical and readable both ways).
	Quality string `json:"quality,omitempty"`
	// StageWallNS is estimate/slice/dispatch/verify wall time in ns.
	StageWallNS [4]int64 `json:"stageWallNS"`
}

// EncodePlan converts a Plan to its serialized form.
func EncodePlan(p *Plan) PlanJSON {
	pj := PlanJSON{
		Key:       EncodeKey(p.Key),
		Workload:  graphio.WorkloadJSON{Graph: graphio.EncodeGraph(p.Graph)},
		Estimates: p.Estimates,
		Assignment: AssignmentJSON{
			Arrival:         p.Assignment.Arrival,
			AbsDeadline:     p.Assignment.AbsDeadline,
			RelDeadline:     p.Assignment.RelDeadline,
			Virtual:         p.Assignment.Virtual,
			Chains:          p.Assignment.Chains,
			ChainR:          p.Assignment.ChainR,
			OverConstrained: p.Assignment.OverConstrained,
			Rounds:          p.Assignment.Rounds,
			MetricName:      p.Assignment.MetricName,
		},
		Schedule: ScheduleJSON{
			Feasible:    p.Schedule.Feasible,
			Missed:      p.Schedule.Missed,
			MaxLateness: p.Schedule.MaxLateness,
			Makespan:    p.Schedule.Makespan,
			Order:       p.Schedule.Order,
		},
		Verdict: VerdictJSON{
			Feasible:           p.Verdict.Feasible,
			OverConstrained:    p.Verdict.OverConstrained,
			ProvablyInfeasible: p.Verdict.ProvablyInfeasible,
			Proof:              int(p.Verdict.Proof),
			MaxLateness:        p.Verdict.MaxLateness,
			MinLaxity:          p.Verdict.MinLaxity,
		},
		StageWallNS: [4]int64{
			int64(p.Stats.Estimate.Wall),
			int64(p.Stats.Slice.Wall),
			int64(p.Stats.Dispatch.Wall),
			int64(p.Stats.Verify.Wall),
		},
	}
	if p.Quality != QualityFull {
		pj.Quality = p.Quality.String()
	}
	platform := graphio.EncodePlatform(p.Platform)
	pj.Workload.Platform = &platform
	for _, pl := range p.Schedule.Placements {
		pj.Schedule.Proc = append(pj.Schedule.Proc, pl.Proc)
		pj.Schedule.Start = append(pj.Schedule.Start, pl.Start)
		pj.Schedule.Finish = append(pj.Schedule.Finish, pl.Finish)
	}
	return pj
}

// DecodePlan rebuilds a Plan, verifying that the recorded Key matches
// the decoded content: the workload fingerprint and the estimate hash
// are recomputed from scratch, so a corrupted entry fails loudly here
// instead of serving a wrong plan under a right key.
func DecodePlan(in PlanJSON) (*Plan, error) {
	key, err := DecodeKey(in.Key)
	if err != nil {
		return nil, err
	}
	g, err := graphio.DecodeGraph(in.Workload.Graph)
	if err != nil {
		return nil, err
	}
	if in.Workload.Platform == nil {
		return nil, fmt.Errorf("pipeline: serialized plan carries no platform")
	}
	p, err := graphio.DecodePlatform(*in.Workload.Platform)
	if err != nil {
		return nil, err
	}
	if got := Fingerprint(g, p); got != key.Workload {
		return nil, fmt.Errorf("pipeline: plan workload fingerprint %016x does not match key %016x", got, key.Workload)
	}
	if got := hashTimes(in.Estimates); got != key.Estimates {
		return nil, fmt.Errorf("pipeline: plan estimate hash %016x does not match key %016x", got, key.Estimates)
	}
	n := g.NumTasks()
	if len(in.Estimates) != n || len(in.Assignment.Arrival) != n || len(in.Assignment.AbsDeadline) != n ||
		len(in.Assignment.RelDeadline) != n ||
		len(in.Schedule.Proc) != n || len(in.Schedule.Start) != n || len(in.Schedule.Finish) != n {
		return nil, fmt.Errorf("pipeline: serialized plan is ragged (%d tasks)", n)
	}
	s := &sched.Schedule{
		Placements:  make([]sched.Placement, n),
		Feasible:    in.Schedule.Feasible,
		Missed:      in.Schedule.Missed,
		MaxLateness: in.Schedule.MaxLateness,
		Makespan:    in.Schedule.Makespan,
		Order:       in.Schedule.Order,
	}
	for i := range s.Placements {
		s.Placements[i] = sched.Placement{
			Proc:   in.Schedule.Proc[i],
			Start:  in.Schedule.Start[i],
			Finish: in.Schedule.Finish[i],
		}
	}
	quality := QualityFull
	switch in.Quality {
	case "", QualityFull.String():
	case QualityDegraded.String():
		quality = QualityDegraded
	default:
		return nil, fmt.Errorf("pipeline: serialized plan carries unknown quality %q", in.Quality)
	}
	return &Plan{
		Key:       key,
		Graph:     g,
		Platform:  p,
		Estimates: in.Estimates,
		Quality:   quality,
		Assignment: &slicing.Assignment{
			Arrival:         in.Assignment.Arrival,
			AbsDeadline:     in.Assignment.AbsDeadline,
			RelDeadline:     in.Assignment.RelDeadline,
			Virtual:         in.Assignment.Virtual,
			Chains:          in.Assignment.Chains,
			ChainR:          in.Assignment.ChainR,
			OverConstrained: in.Assignment.OverConstrained,
			Rounds:          in.Assignment.Rounds,
			MetricName:      in.Assignment.MetricName,
		},
		Schedule: s,
		Verdict: Verdict{
			Feasible:           in.Verdict.Feasible,
			OverConstrained:    in.Verdict.OverConstrained,
			ProvablyInfeasible: in.Verdict.ProvablyInfeasible,
			Proof:              VerifyOutcome(in.Verdict.Proof),
			MaxLateness:        in.Verdict.MaxLateness,
			MinLaxity:          in.Verdict.MinLaxity,
		},
		Stats: PlanStats{
			Estimate: StageStats{Wall: time.Duration(in.StageWallNS[0])},
			Slice:    StageStats{Wall: time.Duration(in.StageWallNS[1])},
			Dispatch: StageStats{Wall: time.Duration(in.StageWallNS[2])},
			Verify:   StageStats{Wall: time.Duration(in.StageWallNS[3])},
		},
	}, nil
}

// snapshotHeaderLine is the first line of every snapshot file.
type snapshotHeaderLine struct {
	Snapshot string `json:"snapshot"`
}

// WriteSnapshot streams plans as a snapshot: the header line, then one
// PlanJSON per line, in the order given (Plans returns eviction order,
// so a straight sequential Import reproduces the cache's recency
// ranking). It returns the number of plans written.
func WriteSnapshot(w io.Writer, plans []*Plan) (int, error) {
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(snapshotHeaderLine{Snapshot: SnapshotHeader})
	if err != nil {
		return 0, err
	}
	if _, err := bw.Write(append(hdr, '\n')); err != nil {
		return 0, fmt.Errorf("pipeline: write snapshot header: %w", err)
	}
	n := 0
	for _, p := range plans {
		line, err := json.Marshal(EncodePlan(p))
		if err != nil {
			return n, fmt.Errorf("pipeline: marshal plan %v: %w", p.Key.Distributor, err)
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return n, fmt.Errorf("pipeline: write snapshot: %w", err)
		}
		n++
	}
	return n, bw.Flush()
}

// ErrSnapshotHeader reports a snapshot whose first line does not carry
// the expected format fingerprint.
var ErrSnapshotHeader = fmt.Errorf("pipeline: snapshot header is not %q", SnapshotHeader)

// ReadSnapshot parses a snapshot stream, tolerating a torn or corrupted
// tail: decoding stops at the first line that fails to parse or fails
// the DecodePlan integrity check, and every complete entry before it is
// returned. An unreadable or mismatched header is an error — that file
// is not a snapshot at all.
func ReadSnapshot(r io.Reader) ([]*Plan, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	if !sc.Scan() {
		return nil, ErrSnapshotHeader
	}
	var hdr snapshotHeaderLine
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Snapshot != SnapshotHeader {
		return nil, ErrSnapshotHeader
	}
	var plans []*Plan
	for sc.Scan() {
		var pj PlanJSON
		if err := json.Unmarshal(sc.Bytes(), &pj); err != nil {
			break // torn or corrupted tail; the prefix is intact
		}
		p, err := DecodePlan(pj)
		if err != nil {
			break
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// SaveSnapshot atomically writes the cache's resident plans to path:
// the snapshot lands in a temp file in the same directory, is synced,
// and is renamed over the target, so a crash mid-save leaves the
// previous snapshot untouched. It returns the number of plans saved.
func SaveSnapshot(path string, c *Cache) (int, error) {
	plans := c.Plans()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, fmt.Errorf("pipeline: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	n, err := WriteSnapshot(tmp, plans)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return n, fmt.Errorf("pipeline: write snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return n, fmt.Errorf("pipeline: publish snapshot: %w", err)
	}
	return n, nil
}

// LoadSnapshot installs a snapshot's plans into the cache. A missing
// file is a cold start, not an error; a present file must at least
// carry the right header. It returns the number of plans installed.
func LoadSnapshot(path string, c *Cache) (int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("pipeline: open snapshot: %w", err)
	}
	defer f.Close()
	plans, err := ReadSnapshot(f)
	if err != nil {
		return 0, err
	}
	for _, p := range plans {
		c.Install(p)
	}
	return len(plans), nil
}
