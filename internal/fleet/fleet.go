// Package fleet is the multi-node job manager the paper positions CheCL
// as infrastructure for, grown to fleet scale: hundreds to thousands of
// concurrent OpenCL jobs arriving in bursts at a heterogeneous cluster of
// nodes whose device inventories come from the Table I models
// (internal/hw), all on the virtual timeline (internal/vtime).
//
// The manager treats checkpoint/restart as a routine scheduling action,
// not a disaster path:
//
//   - Admission: arriving jobs enter a priority queue and are placed on
//     the free compatible device with the shortest predicted runtime.
//     Under burst pressure that is often a slow CPU device — placement is
//     cheap to revise, because migration exists.
//   - Rebalancing: every rebalanceEvery tick an extended sched.Planner
//     re-plans the running set against the free devices. The queue-vs-
//     migrate rule is Eq. 1 applied to live state: move a job when the
//     predicted migration cost Tm plus its remaining time on the target
//     beats its remaining time where it sits (its effective queue wait).
//     The cost model's M is the job's *live incremental dirty set*
//     (CheckpointStats.DirtyBytes), not its static working set, so
//     long-running jobs that checkpoint regularly are cheap to move.
//   - Preemption: under device pressure a queued job may checkpoint-evict
//     a strictly-lower-priority running job. The victim's state is parked
//     in the checkpoint store and the victim rejoins the queue; it
//     restores (paying the read-back + recompile bill) when a slot frees.
//   - Honesty sampling: every SampleEvery-th job carries a real CheCL
//     application (internal/core) whose evictions and restores go through
//     the actual CheckpointToStore/RestoreFromStore path against a real
//     content-addressed store (internal/store), and whose buffer contents
//     must come back bit-identical.
//
// Everything runs single-threaded on one virtual clock, so a fleet run is
// deterministic for a given traffic seed and configuration.
package fleet

import (
	"fmt"
	"sort"

	"checl/internal/core"
	"checl/internal/hw"
	"checl/internal/proc"
	"checl/internal/sched"
	"checl/internal/vtime"
)

// Priority orders jobs in the admission queue and bounds preemption: a
// job may only evict strictly-lower-priority jobs.
type Priority int

// Priority bands, lowest first.
const (
	Low Priority = iota
	Normal
	High
)

// String names the priority band.
func (p Priority) String() string {
	switch p {
	case Low:
		return "low"
	case Normal:
		return "normal"
	case High:
		return "high"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// JobSpec describes one job submitted to the fleet.
type JobSpec struct {
	Name    string
	Arrival vtime.Time
	// Flops is the job's total computation.
	Flops float64
	// MemBytes is the job's device working set: it bounds placement and
	// is the full-checkpoint size M of the cost model.
	MemBytes int64
	// Recompile is the job's program build time (the Tr of Eq. 1).
	Recompile vtime.Duration
	Priority  Priority
	// DirtyBytesPerSec is how fast the job dirties its working set after
	// a committed checkpoint (capped at MemBytes). Zero means the fleet
	// has no dirty-tracking information for the job and conservatively
	// prices every checkpoint at the full working set.
	DirtyBytesPerSec float64
}

// NodeSpec is one fleet node's device inventory.
type NodeSpec struct {
	Name    string
	Devices []hw.DeviceModel
}

// Config parameterises a fleet run.
type Config struct {
	// Model is the fitted Eq. 1 instance used for every migration,
	// eviction and restore cost prediction.
	Model core.CostModel
	// Migration enables the rebalancing rounds. Off, the fleet is the
	// no-migration baseline: a job finishes where admission put it.
	Migration bool
	// Preemption enables checkpoint-evict-restore of lower-priority jobs
	// under device pressure.
	Preemption bool
	// SampleEvery routes every Nth job through a real CheCL application
	// whose evict/restore round-trips use the actual core+store
	// checkpoint path and are verified bit-identical. Zero disables
	// sampling.
	SampleEvery int
}

// rebalanceEvery is the planner tick.
const rebalanceEvery = 500 * vtime.Millisecond

// minGain suppresses migration churn (sched.Planner.MinGain).
const minGain = 250 * vtime.Millisecond

// DefaultCostModel is a fitted Eq. 1 instance in the ballpark the Fig. 8
// calibration produces for checkpoints over the Table I NFS: ~28.6 MB/s
// effective checkpoint bandwidth and a 100 ms constant.
func DefaultCostModel() core.CostModel {
	return core.CostModel{Alpha: 3.5e-8, Beta: 0.1}
}

// DefaultNodes is a small heterogeneous inventory built from the Table I
// device models: gpuNodes nodes carrying one Tesla C1060 (every third one
// a Radeon HD5870 instead) plus the host CPU device, and cpuNodes
// CPU-only nodes.
func DefaultNodes(gpuNodes, cpuNodes int) []NodeSpec {
	var nodes []NodeSpec
	for i := 0; i < gpuNodes; i++ {
		gpu := hw.TeslaC1060()
		if i%3 == 2 {
			gpu = hw.RadeonHD5870()
		}
		nodes = append(nodes, NodeSpec{
			Name:    fmt.Sprintf("gpu-%d", i),
			Devices: []hw.DeviceModel{gpu, hw.CoreI7920()},
		})
	}
	for i := 0; i < cpuNodes; i++ {
		nodes = append(nodes, NodeSpec{
			Name:    fmt.Sprintf("cpu-%d", i),
			Devices: []hw.DeviceModel{hw.CoreI7920()},
		})
	}
	return nodes
}

// imageOverhead mirrors the planner's fixed host-image overhead beyond
// the staged buffers.
const imageOverhead = 1 << 20

type phase int

const (
	phaseQueued phase = iota
	phaseRunning
	phaseDone
	phaseRejected
)

// job is the manager's mutable view of one JobSpec.
type job struct {
	spec      JobSpec
	phase     phase
	remaining float64 // flops
	// dirty is the live incremental dirty set accumulated since the last
	// committed checkpoint generation.
	dirty   int64
	hasCkpt bool

	dev          *device
	computeStart vtime.Time // compute begins after restore/migration delay
	finishAt     vtime.Time
	lastProgress vtime.Time

	queuedAt   vtime.Time
	waited     vtime.Duration
	migrations int
	evictions  int
	doneAt     vtime.Time

	real *realJob
}

// ckptBytes is the checkpoint payload M the cost model sees for the job's
// next checkpoint: the live dirty set when a generation is committed and
// the job reports dirty tracking, else the full working set.
func (j *job) ckptBytes() int64 {
	if j.hasCkpt && j.spec.DirtyBytesPerSec > 0 {
		return j.dirty
	}
	return j.spec.MemBytes
}

type device struct {
	key   string
	node  *fleetNode
	model hw.DeviceModel

	job       *job
	busyUntil vtime.Time // checkpoint-drain tail after the job left
	occStart  vtime.Time
	busy      vtime.Duration
	jobsRun   int
}

func (d *device) free(now vtime.Time) bool {
	return d.job == nil && d.busyUntil <= now
}

func (d *device) release(now vtime.Time) {
	d.busy += now.Sub(d.occStart)
	d.job = nil
}

type fleetNode struct {
	name    string
	devices []*device
}

// Fleet is the job manager. Construct with New, drive with Run.
type Fleet struct {
	cfg     Config
	clock   *vtime.Clock
	nodes   []*fleetNode
	devices []*device
	byKey   map[string]*device
	planner *sched.Planner
	rig     *realRig
	// storeFaults, a test seam, switches the sampled jobs' checkpoint
	// destination from the single NFS store to a six-node 4+2 store fleet
	// whose nodes crash, slow down, rot shards and tear writes under this
	// plan (MaxDown clamped to the parity count).
	storeFaults *proc.NodeFaultPlan

	ran      bool
	jobs     []*job
	arrivals []*job // jobs sorted by (Arrival, Name); ai indexes the next
	ai       int
	queue    []*job
	byName   map[string]*job
	metrics  metrics
}

// New builds a fleet over the node inventories. The configuration is
// validated lazily by Run.
func New(nodes []NodeSpec, cfg Config) *Fleet {
	f := &Fleet{
		cfg:    cfg,
		clock:  vtime.NewClock(),
		byKey:  map[string]*device{},
		byName: map[string]*job{},
	}
	f.planner = &sched.Planner{Model: f.cfg.Model, MinGain: minGain}
	for _, ns := range nodes {
		fn := &fleetNode{name: ns.Name}
		for i, dm := range ns.Devices {
			d := &device{
				key:   fmt.Sprintf("%s/dev%d", ns.Name, i),
				node:  fn,
				model: dm,
			}
			fn.devices = append(fn.devices, d)
			f.devices = append(f.devices, d)
			f.byKey[d.key] = d
		}
		f.nodes = append(f.nodes, fn)
	}
	return f
}

// Run drives the fleet through the traffic until every job has completed
// or been rejected, and reports the aggregate outcome. A Fleet runs once.
func (f *Fleet) Run(specs []JobSpec) (Report, error) {
	if f.ran {
		return Report{}, fmt.Errorf("fleet: Run called twice")
	}
	f.ran = true
	if len(f.devices) == 0 {
		return Report{}, fmt.Errorf("fleet: no devices in the inventory")
	}
	for i, s := range specs {
		if s.Name == "" {
			return Report{}, fmt.Errorf("fleet: job %d has no name", i)
		}
		if _, dup := f.byName[s.Name]; dup {
			return Report{}, fmt.Errorf("fleet: duplicate job name %q", s.Name)
		}
		j := &job{spec: s, remaining: s.Flops}
		f.jobs = append(f.jobs, j)
		f.byName[s.Name] = j
	}
	f.arrivals = append([]*job(nil), f.jobs...)
	sort.Slice(f.arrivals, func(i, k int) bool {
		if f.arrivals[i].spec.Arrival != f.arrivals[k].spec.Arrival {
			return f.arrivals[i].spec.Arrival < f.arrivals[k].spec.Arrival
		}
		return f.arrivals[i].spec.Name < f.arrivals[k].spec.Name
	})
	if f.cfg.SampleEvery > 0 && len(f.arrivals) > 0 {
		var err error
		if f.rig, err = newRealRig(f.storeFaults); err != nil {
			return Report{}, err
		}
		for i := f.cfg.SampleEvery - 1; i < len(f.arrivals); i += f.cfg.SampleEvery {
			f.arrivals[i].real = &realJob{}
		}
	}

	settled := 0 // done + rejected
	var nextReb vtime.Time
	if len(f.arrivals) > 0 {
		nextReb = f.arrivals[0].spec.Arrival.Add(rebalanceEvery)
	}
	for settled < len(f.jobs) {
		now, ok := f.nextEvent(nextReb)
		if !ok {
			return Report{}, fmt.Errorf("fleet: stalled at %s with %d jobs unsettled",
				f.clock.Now(), len(f.jobs)-settled)
		}
		f.clock.AdvanceTo(now)

		// Arrivals.
		for f.ai < len(f.arrivals) && f.arrivals[f.ai].spec.Arrival <= now {
			j := f.arrivals[f.ai]
			f.ai++
			if !f.placeable(j) {
				j.phase = phaseRejected
				f.metrics.rejected = append(f.metrics.rejected, j.spec.Name)
				settled++
				continue
			}
			j.phase = phaseQueued
			j.queuedAt = now
			f.queue = append(f.queue, j)
		}

		// Completions.
		for _, d := range f.devices {
			if d.job != nil && d.job.finishAt <= now {
				f.complete(d.job, now)
				settled++
			}
		}

		if err := f.admit(now); err != nil {
			return Report{}, err
		}

		if now >= nextReb {
			if f.cfg.Migration {
				f.rebalance(now)
			}
			if f.cfg.Preemption {
				if err := f.preempt(now); err != nil {
					return Report{}, err
				}
			}
			if err := f.admit(now); err != nil {
				return Report{}, err
			}
			depth, parked := f.queueDepth()
			f.metrics.sampleQueue(now, depth, parked)
			nextReb = now.Add(rebalanceEvery)
		}
	}
	return f.report(), nil
}

// nextEvent picks the earliest pending instant: the next arrival, the
// earliest running-job completion, the earliest device drain-tail expiry,
// or — whenever any work is outstanding — the next rebalance tick.
func (f *Fleet) nextEvent(nextReb vtime.Time) (vtime.Time, bool) {
	now := f.clock.Now()
	var best vtime.Time
	found := false
	consider := func(t vtime.Time) {
		if t < now {
			t = now
		}
		if !found || t < best {
			best, found = t, true
		}
	}
	outstanding := len(f.queue) > 0 || f.ai < len(f.arrivals)
	if f.ai < len(f.arrivals) {
		consider(f.arrivals[f.ai].spec.Arrival)
	}
	for _, d := range f.devices {
		if d.job != nil {
			outstanding = true
			consider(d.job.finishAt)
		} else if d.busyUntil > now {
			consider(d.busyUntil)
		}
	}
	if outstanding {
		consider(nextReb)
	}
	return best, found
}

// placeable reports whether any device in the fleet can ever run the job:
// finite runtime and sufficient global memory. Jobs that fit nowhere are
// rejected at submission — the typed-rejection counterpart of
// vtime.Infinity.
func (f *Fleet) placeable(j *job) bool {
	for _, d := range f.devices {
		if f.fits(j, d) {
			return true
		}
	}
	return false
}

func (f *Fleet) fits(j *job, d *device) bool {
	s := sched.Slot{NodeName: d.node.name, Device: d.model, Key: d.key}
	return s.Fits(f.jobState(j, nil))
}

func (f *Fleet) jobState(j *job, on *device) sched.JobState {
	js := sched.JobState{
		Name:           j.spec.Name,
		RemainingFlops: j.remaining,
		MemBytes:       j.spec.MemBytes,
		HasCheckpoint:  j.hasCkpt && j.spec.DirtyBytesPerSec > 0,
		DirtyBytes:     j.dirty,
		RecompileTime:  j.spec.Recompile,
	}
	if on != nil {
		js.Device = on.model
		js.NodeName = on.node.name
	}
	return js
}

// progress advances a running job's remaining work and live dirty set to
// the given instant.
func (f *Fleet) progress(j *job, now vtime.Time) {
	if j.phase != phaseRunning || now <= j.lastProgress {
		return
	}
	dt := now.Sub(j.lastProgress).Seconds()
	j.remaining -= dt * j.dev.model.SustainedRate()
	if j.remaining < 0 {
		j.remaining = 0
	}
	if j.spec.DirtyBytesPerSec > 0 {
		j.dirty += int64(dt * j.spec.DirtyBytesPerSec)
		if j.dirty > j.spec.MemBytes {
			j.dirty = j.spec.MemBytes
		}
	}
	j.lastProgress = now
}

// admit places queued jobs (priority first, then arrival order) onto the
// free compatible devices with the shortest predicted runtime.
func (f *Fleet) admit(now vtime.Time) error {
	if len(f.queue) == 0 {
		return nil
	}
	sortQueue(f.queue)
	var still []*job
	for _, j := range f.queue {
		d := f.bestFree(j, now)
		if d == nil {
			still = append(still, j)
			continue
		}
		if err := f.place(j, d, now, now); err != nil {
			return err
		}
	}
	f.queue = still
	if len(f.queue) > f.metrics.queuePeak {
		f.metrics.queuePeak = len(f.queue)
	}
	return nil
}

func sortQueue(q []*job) {
	sort.Slice(q, func(i, k int) bool {
		if q[i].spec.Priority != q[k].spec.Priority {
			return q[i].spec.Priority > q[k].spec.Priority
		}
		if q[i].spec.Arrival != q[k].spec.Arrival {
			return q[i].spec.Arrival < q[k].spec.Arrival
		}
		return q[i].spec.Name < q[k].spec.Name
	})
}

// bestFree returns the free device with the shortest predicted runtime
// for the job (ties on device key), or nil.
func (f *Fleet) bestFree(j *job, now vtime.Time) *device {
	var best *device
	var bestEst vtime.Duration
	for _, d := range f.devices {
		if !d.free(now) || !f.fits(j, d) {
			continue
		}
		est := sched.EstimateRuntime(j.remaining, d.model)
		if best == nil || est < bestEst || (est == bestEst && d.key < best.key) {
			best, bestEst = d, est
		}
	}
	return best
}

// place starts (or resumes) a job on a device. Compute begins at
// notBefore plus the restore bill for a parked job. For sampled jobs a
// parked restore goes through the real core+store path.
func (f *Fleet) place(j *job, d *device, now, notBefore vtime.Time) error {
	delay := vtime.Duration(0)
	if j.hasCkpt {
		// Resuming from the parked checkpoint reads the full image back
		// and recompiles — Eq. 1 with M = the full working set.
		delay = f.cfg.Model.Predict(j.spec.MemBytes+imageOverhead, j.spec.Recompile)
		f.metrics.restores++
		if j.real != nil && j.real.parked {
			mismatch, err := f.rig.restore(j.real, j.spec.Name)
			if err != nil {
				return fmt.Errorf("fleet: real restore of %s: %w", j.spec.Name, err)
			}
			f.metrics.realRoundTrips++
			if mismatch {
				f.metrics.realMismatches++
			}
		}
	} else if j.real != nil && j.real.c == nil {
		if err := f.rig.start(j.real, j.spec.Name); err != nil {
			return fmt.Errorf("fleet: real start of %s: %w", j.spec.Name, err)
		}
		f.metrics.realJobs++
	}
	j.phase = phaseRunning
	j.dev = d
	j.waited += now.Sub(j.queuedAt)
	start := vtime.Max(now, notBefore).Add(delay)
	j.computeStart = start
	j.lastProgress = start
	j.finishAt = start.Add(sched.EstimateRuntime(j.remaining, d.model))
	d.job = j
	d.occStart = now
	d.jobsRun++
	return nil
}

// complete retires a finished job and frees its device.
func (f *Fleet) complete(j *job, now vtime.Time) {
	j.remaining = 0
	j.phase = phaseDone
	j.doneAt = now
	j.dev.release(now)
	j.dev.busyUntil = now
	j.dev = nil
	f.metrics.done(j, now)
	if j.real != nil && j.real.c != nil {
		f.rig.finish(j.real)
	}
}

// rebalance runs one planner round: running jobs against free devices,
// with the cost model fed each job's live dirty set. Planned moves are
// executed immediately.
func (f *Fleet) rebalance(now vtime.Time) {
	var states []sched.JobState
	for _, j := range f.jobs {
		if j.phase != phaseRunning || j.computeStart > now {
			continue // queued, done, or still in a restore/migration delay
		}
		f.progress(j, now)
		if j.remaining == 0 {
			continue // completes this instant; don't move it
		}
		states = append(states, f.jobState(j, j.dev))
	}
	var slots []sched.Slot
	for _, d := range f.devices {
		if d.free(now) {
			slots = append(slots, sched.Slot{NodeName: d.node.name, Device: d.model, Key: d.key})
		}
	}
	if len(states) == 0 || len(slots) == 0 {
		return
	}
	for _, mv := range f.planner.Plan(states, slots) {
		f.migrate(f.byName[mv.Job], f.byKey[mv.ToSlot], mv.MigrationCost, now)
	}
}

// migrate moves a running job: the source device stays busy for the
// checkpoint drain, the job pays the full predicted Tm before computing
// on the target, and the committed generation resets its dirty set.
func (f *Fleet) migrate(j *job, target *device, tm vtime.Duration, now vtime.Time) {
	f.progress(j, now)
	src := j.dev
	drain := f.cfg.Model.Predict(j.ckptBytes()+imageOverhead, 0)
	src.release(now)
	src.busyUntil = now.Add(drain)

	f.metrics.migrations++
	f.metrics.migratedBytes += j.ckptBytes()
	j.migrations++
	j.hasCkpt = true
	j.dirty = 0
	j.dev = target
	start := now.Add(tm)
	j.computeStart = start
	j.lastProgress = start
	j.finishAt = start.Add(sched.EstimateRuntime(j.remaining, target.model))
	target.job = j
	target.occStart = now
	target.jobsRun++
}

// preempt lets queued jobs evict strictly-lower-priority running jobs
// under device pressure: the victim checkpoints to the store (parking its
// state), rejoins the queue, and the preemptor starts once the drain
// clears.
func (f *Fleet) preempt(now vtime.Time) error {
	if len(f.queue) == 0 {
		return nil
	}
	sortQueue(f.queue)
	waiting := f.queue
	f.queue = nil
	for _, q := range waiting {
		if q.spec.Priority == Low {
			f.queue = append(f.queue, q)
			continue
		}
		victim := f.pickVictim(q, now)
		if victim == nil {
			f.queue = append(f.queue, q)
			continue
		}
		d := victim.dev
		if err := f.evict(victim, now); err != nil {
			return err
		}
		if err := f.place(q, d, now, d.busyUntil); err != nil {
			return err
		}
	}
	return nil
}

// pickVictim chooses the cheapest strictly-lower-priority running job
// whose device fits the preemptor: lowest priority first, then smallest
// checkpoint payload, then name. Jobs still inside a restore/migration
// delay, or close enough to done that eviction costs more than waiting,
// are spared.
func (f *Fleet) pickVictim(q *job, now vtime.Time) *job {
	var best *job
	better := func(a, b *job) bool {
		if a.spec.Priority != b.spec.Priority {
			return a.spec.Priority < b.spec.Priority
		}
		if a.ckptBytes() != b.ckptBytes() {
			return a.ckptBytes() < b.ckptBytes()
		}
		return a.spec.Name < b.spec.Name
	}
	for _, j := range f.jobs {
		if j.phase != phaseRunning || j.spec.Priority >= q.spec.Priority || j.computeStart > now {
			continue
		}
		if !f.fits(q, j.dev) {
			continue
		}
		f.progress(j, now)
		evictCost := f.cfg.Model.Predict(j.ckptBytes()+imageOverhead, 0)
		if j.finishAt.Sub(now) <= evictCost {
			continue // finishing sooner than we could drain it
		}
		if best == nil || better(j, best) {
			best = j
		}
	}
	return best
}

// evict checkpoints a running job off its device and parks it: the device
// drains for the checkpoint write, the job's generation commits (dirty
// set resets), and the job rejoins the queue. Sampled jobs really
// checkpoint into the store and their process is killed.
func (f *Fleet) evict(j *job, now vtime.Time) error {
	f.progress(j, now)
	payload := j.ckptBytes()
	cost := f.cfg.Model.Predict(payload+imageOverhead, 0)
	d := j.dev
	d.release(now)
	d.busyUntil = now.Add(cost)

	j.phase = phaseQueued
	j.dev = nil
	j.queuedAt = now
	j.hasCkpt = true
	j.dirty = 0
	j.evictions++
	f.metrics.evictions++
	f.metrics.evictedBytes += payload
	f.queue = append(f.queue, j)

	if j.real != nil && j.real.c != nil {
		if err := f.rig.evict(j.real, j.spec.Name); err != nil {
			return fmt.Errorf("fleet: real evict of %s: %w", j.spec.Name, err)
		}
	}
	return nil
}

func (f *Fleet) queueDepth() (depth, parked int) {
	for _, j := range f.queue {
		depth++
		if j.hasCkpt {
			parked++
		}
	}
	return depth, parked
}
