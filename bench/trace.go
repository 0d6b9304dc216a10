package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"checl/internal/cpr"
	"checl/internal/proc"
	"checl/internal/store"
	"checl/internal/vtime"
)

// opClass groups OpenCL entry points the way the per-layer table reports
// them: argument binding, launches, synchronisation, bulk transfers,
// program builds, and everything else.
type opClass uint8

const (
	opOther opClass = iota
	opSetArg
	opLaunch
	opSync
	opXfer
	opBuild
	opAll opClass = 0xff // selector only: matches every class
)

// span is one timed call into a layer, recorded by bench/ from outside
// the layer. Start and End are host nanoseconds since the recorder was
// created; Parent is the id of the span that was open on the driver
// goroutine when this one began (-1 for a top-level span).
type span struct {
	ID       int
	Parent   int
	Name     string
	Layer    string
	Start    time.Duration
	End      time.Duration
	Workload string
	Arm      string
	Pass     int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// apiCall is the always-on record of one OpenCL API call: its class and
// host latency. The untraced run needs it for call_p50_us and for the
// attempted/failed counts; the traced run additionally keeps a span.
type apiCall struct {
	class opClass
	ns    uint32
}

// recorder collects what the bench observes at layer boundaries. One
// recorder serves one pass on one arm. With tracing off it keeps only the
// per-call latency and the error count; with tracing on it also keeps
// spans in memory until the run ends. The load is one driver goroutine
// and every decorated call returns on it, so the recorder is unlocked.
type recorder struct {
	tracing  bool
	epoch    time.Time
	workload string
	arm      string
	pass     int

	spans   []span
	stack   []int
	calls   []apiCall
	errs    int
	items   int64             // work-items launched (product of global sizes)
	alloc   map[string]uint64 // heap bytes allocated inside spans, by span name (traced runs)
	sources []string          // every program source passed to clCreateProgramWithSource
}

func newRecorder(workload, arm string, pass int, tracing bool, epoch time.Time) *recorder {
	return &recorder{tracing: tracing, epoch: epoch, workload: workload, arm: arm, pass: pass}
}

// begin opens a span under the innermost open span. It returns -1 with
// tracing off, which end ignores.
func (r *recorder) begin(name, layer string) int {
	if !r.tracing {
		return -1
	}
	now := time.Since(r.epoch)
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Start: now, Workload: r.workload, Arm: r.arm, Pass: r.pass})
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.spans[id].End = now
	// Spans close in LIFO order on the single driver goroutine.
	r.stack = r.stack[:len(r.stack)-1]
}

// heapNow reads the process's cumulative allocation counter, or 0 with
// tracing off. It stops the world, so only the few checkpoint-path spans
// per pass use it.
func (r *recorder) heapNow() uint64 {
	if !r.tracing {
		return 0
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// addAlloc charges the bytes allocated since from to the named span kind.
func (r *recorder) addAlloc(name string, from uint64) {
	if !r.tracing {
		return
	}
	if r.alloc == nil {
		r.alloc = map[string]uint64{}
	}
	r.alloc[name] += r.heapNow() - from
}

// api records one completed OpenCL call that started at t0.
func (r *recorder) api(class opClass, name string, t0 time.Time, err error) {
	d := time.Since(t0)
	r.calls = append(r.calls, apiCall{class: class, ns: uint32(min(d, time.Duration(^uint32(0))))})
	if err != nil {
		r.errs++
	}
	if r.tracing {
		parent := -1
		if n := len(r.stack); n > 0 {
			parent = r.stack[n-1]
		}
		start := t0.Sub(r.epoch)
		r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Layer: r.arm,
			Start: start, End: start + d, Workload: r.workload, Arm: r.arm, Pass: r.pass})
	}
}

// apiWall sums the latency of the recorded calls of one class (or opAll).
func (r *recorder) apiWall(class opClass) time.Duration {
	var sum time.Duration
	for _, c := range r.calls {
		if class == opAll || c.class == class {
			sum += time.Duration(c.ns)
		}
	}
	return sum
}

// latencies returns the per-call latencies of one class (or opAll) in
// microseconds.
func (r *recorder) latencies(class opClass) []float64 {
	out := make([]float64, 0, len(r.calls))
	for _, c := range r.calls {
		if class == opAll || c.class == class {
			out = append(out, float64(c.ns)/1e3)
		}
	}
	return out
}

// spanWall sums the duration of every span with the given name (total),
// and that duration minus the time its direct children cover (self).
func (r *recorder) spanWall(name string) (total, self time.Duration) {
	child := map[int]time.Duration{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	for _, s := range r.spans {
		if s.Name == name {
			total += s.dur()
			self += s.dur() - child[s.ID]
		}
	}
	return total, self
}

// ---- Chrome trace-event export ----

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans of the given recorders as Chrome
// trace-event JSON ("X" complete events, microsecond timestamps). Each
// arm gets its own tid so the three timelines stack in the viewer.
func writeChromeTrace(path string, recs []*recorder) error {
	var events []chromeEvent
	for tid, r := range recs {
		for _, s := range r.spans {
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Layer, Ph: "X",
				TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
				PID: 1, TID: tid + 1,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload, "arm": s.Arm, "pass": s.Pass},
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	return f.Close()
}

// ---- cpr and store decorators ----

// current is the recorder the checkpoint-path decorators report to. The
// decorators outlive a pass (a restored CheCL keeps its backend, the
// fleet lives as long as the job), so they hold this indirection and the
// workload points it at each pass's recorder.
type current struct{ rec *recorder }

// tracedCPR wraps the BLCR backend so the image dump and restart appear
// as cpr-layer spans between the core span above and the store span below.
type tracedCPR struct {
	cpr.BLCR
	cur *current
}

var _ cpr.StoreBackend = (*tracedCPR)(nil)

func (t *tracedCPR) CheckpointToStoreIncremental(p *proc.Process, st store.Backend, job string, clean map[string]bool) (cpr.Stats, *store.PutStats, error) {
	rec := t.cur.rec
	id, heap := rec.begin("cpr.dump", "cpr"), rec.heapNow()
	defer func() {
		rec.addAlloc("cpr.dump", heap)
		rec.end(id)
	}()
	return t.BLCR.CheckpointToStoreIncremental(p, st, job, clean)
}

func (t *tracedCPR) RestartFromStore(n *proc.Node, st store.Backend, ref string) (*proc.Process, cpr.Stats, *store.DegradedRestore, error) {
	rec := t.cur.rec
	id := rec.begin("cpr.restart", "cpr")
	defer rec.end(id)
	return t.BLCR.RestartFromStore(n, st, ref)
}

// tracedStore wraps the fleet so every Put and Get the checkpoint path
// issues appears as a store-layer span. The image decode that cpr runs
// as the Get's validate callback is split out as a cpr-layer child span.
type tracedStore struct {
	store.Backend
	cur *current
}

func (t *tracedStore) PutSegmented(clock *vtime.Clock, job string, payload []byte, segs []store.Segment) (store.Manifest, store.PutStats, error) {
	rec := t.cur.rec
	id, heap := rec.begin("store.put", "store"), rec.heapNow()
	defer func() {
		rec.addAlloc("store.put", heap)
		rec.end(id)
	}()
	return t.Backend.PutSegmented(clock, job, payload, segs)
}

func (t *tracedStore) GetNewestRestorable(clock *vtime.Clock, ref string, validate func([]byte, store.Manifest) error) ([]byte, store.Manifest, *store.DegradedRestore, error) {
	rec := t.cur.rec
	id := rec.begin("store.get", "store")
	defer rec.end(id)
	return t.Backend.GetNewestRestorable(clock, ref, func(payload []byte, man store.Manifest) error {
		id := rec.begin("cpr.decode", "cpr")
		defer rec.end(id)
		return validate(payload, man)
	})
}
