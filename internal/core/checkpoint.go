package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"checl/internal/cpr"
	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/proxy"
	"checl/internal/store"
	"checl/internal/vtime"
)

// dbRegion is the name of the application memory region holding the
// serialised CheCL object database during a dump.
const dbRegion = "checl.db"

// PhaseTimes is the four-phase breakdown of §III-C / Fig. 5.
type PhaseTimes struct {
	Sync        vtime.Duration // drain host + all command queues
	Preprocess  vtime.Duration // copy device buffers to host memory
	Write       vtime.Duration // conventional CPR dump of the host image
	Postprocess vtime.Duration // free the staged copies
}

// Total sums the phases.
func (p PhaseTimes) Total() vtime.Duration {
	return p.Sync + p.Preprocess + p.Write + p.Postprocess
}

// CheckpointStats describes one completed checkpoint.
type CheckpointStats struct {
	Phases   PhaseTimes
	FileSize int64
	Path     string
	FSName   string

	// Incremental breakdown: dirty buffers were re-staged from the
	// device, clean buffers kept their previous staged copy (and, in a
	// store checkpoint to the store and job of the last one committed,
	// reuse that generation's chunk refs).
	DirtyBuffers    int
	DirtyBytes      int64
	CleanBuffers    int
	CleanBytes      int64
	SkippedReleased int // dead records (released but still kernel-bound)

	// Store-backed checkpoints only: the manifest written and the
	// dedup/compression breakdown of the Put. Nil for flat-file dumps.
	Manifest string
	StorePut *store.PutStats

	// Overlapped store writes (delayed mode, see Mode): BackgroundWrite
	// marks a checkpoint whose store write went behind the application.
	// The Put itself is over when the checkpoint returns — Manifest,
	// StorePut and its error are final — and only its time is deferred to
	// the barrier (WaitBackgroundWrite). Overlap is the time hidden behind
	// application progress: the speculative drain's share on return, plus
	// the write's share on LastCheckpoint() once the barrier lands.
	BackgroundWrite bool
	Overlap         vtime.Duration

	// Speculative (stop-free) checkpointing (BeginCheckpointEpoch):
	// Speculative marks a checkpoint that committed an epoch.
	// SpeculatedBuffers/SpeculatedBytes count the overlapped copies;
	// ViolatedBuffers those whose write-set was touched after their copy
	// began; RecopiedBytes the re-drained residue, those buffers' bytes.
	// StallTime is the application-visible stall of the whole
	// checkpoint — phase total plus epoch submission — while Overlap
	// accumulates the drain (and store-write) time hidden behind
	// application progress. EpochAborted names the fault that killed an
	// epoch before this checkpoint, which then stop-drained instead.
	Speculative       bool
	SpeculatedBuffers int
	SpeculatedBytes   int64
	ViolatedBuffers   int
	RecopiedBytes     int64
	StallTime         vtime.Duration
	EpochAborted      string
}

// bgWrite is the time of one overlapped store write: the Put ran on a
// scratch clock, and the barrier charges the portion of its virtual
// duration that application progress did not already cover.
type bgWrite struct {
	startedAt vtime.Time     // application clock when the write launched
	dur       vtime.Duration // virtual duration of the Put
}

// ckptDest is where a checkpoint went: a store and a job in it, or the
// zero value for a flat file. The store is the Backend value itself, not
// its name: two fleets of one geometry share a name.
type ckptDest struct {
	st  store.Backend
	job string
}

// memRegion names the application memory region holding one buffer's
// staged contents during a dump. Keyed by the stable CheCL handle, so the
// region name — and therefore its store segment — is identical across
// generations, which is what lets clean segments reuse parent chunk refs.
func memRegion(h Handle) string { return fmt.Sprintf("checl.mem/%x", uint64(h)) }

// Checkpoint performs the §III-C procedure: synchronise, stage device
// buffers into host memory, dump the (now OpenCL-free) application process
// with the conventional CPR backend, and drop the staged copies.
func (c *CheCL) Checkpoint(fs *proc.FS, path string) (CheckpointStats, error) {
	stats := CheckpointStats{Path: path, FSName: fs.Name()}
	err := c.runCheckpoint(&stats, ckptDest{}, func(map[string]bool) (int64, error) {
		wst, err := c.opts.Backend.Checkpoint(c.app, fs, path)
		return wst.Bytes, err
	})
	return stats, err
}

// CheckpointToStore is Checkpoint with the content-addressed store as the
// destination: phase 3 hands the image to the store, which chunks it and
// writes only what previous checkpoints (of any job) have not already
// stored. In Delayed, non-destructive mode the write's time goes behind
// the application (startBackgroundPut); its outcome does not.
func (c *CheCL) CheckpointToStore(st store.Backend, job string) (CheckpointStats, error) {
	stats := CheckpointStats{Path: job, FSName: st.Name()}
	err := c.runCheckpoint(&stats, ckptDest{st, job}, func(clean map[string]bool) (int64, error) {
		if c.opts.Mode == Delayed && !c.opts.Destructive {
			return c.startBackgroundPut(st, job, clean, &stats)
		}
		wst, put, err := c.opts.Backend.CheckpointToStoreIncremental(c.app, st, job, clean)
		if err != nil {
			return 0, err
		}
		stats.Manifest = put.Manifest
		stats.StorePut = put
		return wst.Bytes, nil
	})
	return stats, err
}

// startBackgroundPut writes the image on a scratch clock of its own, over
// views of the stopped process's regions, and releases the application
// without charging it: the write goes behind in virtual time only. The
// barrier (WaitBackgroundWrite) charges whatever portion of the write the
// application's own progress did not hide — of a failed Put too, which has
// still spent what its lanes reached. The Put has read the views before
// this returns, so nothing of the image is copied for it.
func (c *CheCL) startBackgroundPut(st store.Backend, job string, clean map[string]bool, stats *CheckpointStats) (int64, error) {
	segs, size, err := cpr.StoreImage(c.opts.Backend, c.app, clean)
	if err != nil {
		return 0, err
	}
	scratch := vtime.NewClock()
	sw := vtime.NewStopwatch(scratch)
	_, put, err := st.PutSegmented(scratch, job, nil, segs)
	c.bg = &bgWrite{startedAt: c.app.Clock().Now(), dur: sw.Elapsed()}
	if err != nil {
		return 0, err
	}
	stats.BackgroundWrite = true
	stats.Manifest = put.Manifest
	stats.StorePut = &put
	return size, nil
}

// WaitBackgroundWrite barriers on an overlapped store write: it charges
// the non-hidden remainder of the write's virtual duration to the
// application clock and adds the hidden share to LastCheckpoint().Overlap.
// Every checkpoint begins with it; it is a no-op when no write is
// outstanding.
func (c *CheCL) WaitBackgroundWrite() {
	bg := c.bg
	if bg == nil {
		return
	}
	c.bg = nil
	hidden := c.barrier("write-barrier", bg.startedAt, bg.dur)
	if c.lastCkpt != nil {
		c.lastCkpt.Overlap += hidden
	}
}

// barrier waits for background work that began at `began` and takes dur
// of virtual time: the part the application's own progress already covered
// is hidden (and returned), the rest is charged as a stall under label.
// AdvanceTo is monotone, so work the application already ran past costs
// nothing.
func (c *CheCL) barrier(label string, began vtime.Time, dur vtime.Duration) vtime.Duration {
	clock := c.app.Clock()
	hidden := min(clock.Now().Sub(began), dur)
	clock.AdvanceTo(began.Add(dur))
	c.stall.Add(label, dur-hidden)
	return hidden
}

// runCheckpoint executes the four §III-C phases around a pluggable
// phase-3 writer (flat file or store) to dest, filling stats in place. It
// is where a checkpoint is settled: a previous write that went behind
// lands first, and only a checkpoint that returns nil becomes
// LastCheckpoint and the destination of the next clean claims. The
// writer receives the clean-region map (nil when none can be made): region
// names of buffers whose staged copy is what dest's newest generation
// holds, so a store writer can reuse that generation's chunk refs.
func (c *CheCL) runCheckpoint(stats *CheckpointStats, dest ckptDest, dump func(clean map[string]bool) (int64, error)) error {
	clock := c.app.Clock()
	c.WaitBackgroundWrite()
	claimTo := c.committed
	c.lastCkpt, c.committed = nil, ckptDest{}

	// A speculative epoch that died before this checkpoint (proxy
	// failover, failed begin) is reported here; the checkpoint below
	// stop-drains as usual.
	if c.epochAborted != "" {
		stats.EpochAborted = c.epochAborted
		c.epochAborted = ""
	}

	// Phase 1: synchronisation. Queued commands must reach the proxy
	// before the queues drain, and any deferred error fails the
	// checkpoint here, before an incomplete state could be dumped.
	sw := vtime.NewStopwatch(clock)
	if err := c.Drain(); err != nil {
		return fmt.Errorf("checl: checkpoint settle: %w", err)
	}
	for _, q := range ordered(c.db.queues) {
		if err := c.forward("clFinish", func(api *proxy.Client) error { return api.Finish(q.real) }); err != nil {
			return fmt.Errorf("checl: checkpoint sync: %w", err)
		}
	}
	stats.Phases.Sync = sw.Reset()
	c.stall.Add("ckpt-sync", stats.Phases.Sync)

	// Commit an open speculative epoch now that the queues are quiesced:
	// the overlapped drain is barriered, violated copies are re-drained,
	// and the surviving entries are adopted by the partition below in
	// place of a stop-drain. commitEpoch charges its own stall labels
	// (spec-wait, spec-commit); epochSW carves them out of ckpt-drain.
	epochSW := vtime.NewStopwatch(clock)
	spec, err := c.commitEpoch(stats)
	if err != nil {
		return fmt.Errorf("checl: checkpoint preprocess: %w", err)
	}
	specCharged := epochSW.Elapsed()

	// Phase 2: preprocessing. Copy user data from device memory to host
	// memory. In incremental mode only buffers possibly modified since
	// they were last staged are re-staged; clean buffers keep their staged
	// copy. A staged copy is what the last committed checkpoint holds, so
	// clean buffers are reported to the phase-3 writer — which reuses the
	// parent generation's chunk refs for them — only when this checkpoint
	// goes to the same store and job; anywhere else the writer takes their
	// bytes. CL_MEM_USE_HOST_PTR buffers are always conservatively dirty:
	// the application can write through the aliased host pointer without
	// any API call CheCL sees.
	var clean map[string]bool
	if c.opts.Incremental && claimTo.st != nil && claimTo == dest {
		clean = map[string]bool{}
	}
	var dirty []*memRec
	for _, m := range ordered(c.db.mems) {
		if m.Released {
			// Dead record: refcount hit zero but a kernel argument still
			// names the buffer. Its contents are unreachable by the
			// application — nothing to copy; restore recreates a
			// placeholder allocation.
			stats.SkippedReleased++
			continue
		}
		if ent, ok := spec[m.H]; ok {
			// Adopted speculative copy: the epoch already produced (and
			// validated) this buffer's bytes, so the stop-drain below
			// skips it. The bytes are new relative to the parent
			// generation — the buffer is NOT reported clean to the
			// phase-3 writer.
			m.Data = ent.data
			stats.staged(m)
			continue
		}
		if c.opts.Incremental && !m.Dirty && !m.UseHostPtr && m.Data != nil {
			if clean != nil {
				clean[memRegion(m.H)] = true
			}
			stats.CleanBuffers++
			stats.CleanBytes += m.Size
			continue
		}
		if c.anyQueueFor(m.Ctx) == nil {
			// No queue in this context: the buffer was never usable by a
			// kernel; stage zeros of the right size.
			m.Data = make([]byte, m.Size)
			stats.staged(m)
			continue
		}
		dirty = append(dirty, m)
	}
	if err := c.drain(dirty, nil); err != nil {
		return fmt.Errorf("checl: checkpoint preprocess: %w", err)
	}
	for _, m := range dirty {
		stats.staged(m)
	}
	stats.Phases.Preprocess = sw.Reset()
	c.stall.Add("ckpt-drain", stats.Phases.Preprocess-specCharged)

	// Phase 3: write. Serialise the object database into the application's
	// address space — each staged buffer as its own region, keyed by the
	// stable CheCL handle, so unchanged buffers land in identical store
	// segments across generations — and let the dump function
	// (conventional CPR backend or checkpoint store) persist the image.
	blob, err := c.db.encode()
	if err != nil {
		return fmt.Errorf("checl: checkpoint write: %w", err)
	}
	// The database is claimed clean too when it encodes as it did in the
	// generation the claims name: an image claimed clean region by region
	// is its parent's, head included (cpr.StoreImage), and stores nothing.
	if clean != nil && string(blob) == string(c.committedDB) {
		clean[dbRegion] = true
	}
	// Destructive (CheCUDA-style) ablation: tear down every OpenCL object
	// and the proxy before the dump — DMTCP refuses a live device-mapped
	// child — and recreate them in phase 4, or at once if the dump fails.
	if c.opts.Destructive {
		c.px.Kill()
	}
	var memRegions []string
	for _, m := range ordered(c.db.mems) {
		if m.Released || m.Data == nil {
			continue
		}
		name := memRegion(m.H)
		c.app.SetRegion(name, m.Data)
		memRegions = append(memRegions, name)
	}
	c.app.SetRegion(dbRegion, blob)
	bytes, err := dump(clean)
	// The staged regions leave the process once the dump has read them,
	// whether or not it succeeded.
	c.app.RemoveRegion(dbRegion)
	for _, name := range memRegions {
		c.app.RemoveRegion(name)
	}
	if err != nil {
		err = fmt.Errorf("checl: checkpoint write: %w", err)
		if c.opts.Destructive {
			if _, rerr := c.respawn(); rerr != nil {
				err = errors.Join(err, fmt.Errorf("checl: destructive postprocess: %w", rerr))
			}
		}
		return err
	}
	stats.Phases.Write = sw.Reset()
	c.stall.Add("ckpt-write", stats.Phases.Write)
	stats.FileSize = bytes

	// Phase 4: postprocessing. Drop the staged copies to reclaim host
	// memory. (CheCL keeps the OpenCL objects alive — unlike CheCUDA, no
	// recreation is needed, which is why this phase is negligible.)
	if c.opts.Destructive {
		// CheCUDA-style recreation of everything that was torn down,
		// using the staged copies before they are dropped.
		if _, err := c.respawn(); err != nil {
			return fmt.Errorf("checl: destructive postprocess: %w", err)
		}
	}
	if !c.opts.Incremental && !c.shadowOn() {
		// With AutoFailover the staged copies double as the failover
		// shadows and must survive the checkpoint.
		for _, m := range c.db.mems {
			m.Data = nil
			m.Dirty = true
		}
	}
	stats.Phases.Postprocess = sw.Reset()
	c.stall.Add("ckpt-post", stats.Phases.Postprocess)
	// StallTime = what the application actually waited: the four phases
	// plus (for a speculative checkpoint) the epoch submission cost,
	// seeded into StallTime by commitEpoch. The hidden drain is in
	// Overlap, not here.
	stats.StallTime += stats.Phases.Total()
	c.lastCkpt, c.ckptErr, c.committed, c.committedDB = stats, nil, dest, blob
	return nil
}

// staged counts one buffer whose bytes this checkpoint (re-)staged.
func (s *CheckpointStats) staged(m *memRec) {
	m.Dirty = false
	s.DirtyBuffers++
	s.DirtyBytes += m.Size
}

// drainStreams is how many device-to-host streams a drain spreads one
// context's buffers over. A constant, because one value was ever in use and
// the ocl model has no DMA-engine count to derive it from.
const drainStreams = 8

// drain stages the given buffers from device to host memory, one planned,
// batched round trip per context. With ep nil it is the stop-drain: every
// stream is finished inside the batch and each buffer's bytes land in its
// staging slice m.Data, reusing its capacity. With an epoch it is the
// overlapped drain: no finish, the bytes go to fresh slices held by the
// epoch — m.Data stays untouched until commit adopts them, so an abort
// loses nothing — and the frame is priced at commit.
func (c *CheCL) drain(mems []*memRec, ep *specEpoch) error {
	return eachCtx(mems, func(ctxH Handle, items []*memRec) error {
		pl, err := c.planDrain(ctxH, items)
		if err != nil {
			return err
		}
		return c.submitDrain(pl, ep)
	})
}

// eachCtx groups buffers by context — queues cannot cross contexts — and
// visits the groups in deterministic (first-seen, i.e. Seq) order.
func eachCtx(mems []*memRec, fn func(ctxH Handle, items []*memRec) error) error {
	byCtx := map[Handle][]*memRec{}
	var order []Handle
	for _, m := range mems {
		if _, ok := byCtx[m.Ctx]; !ok {
			order = append(order, m.Ctx)
		}
		byCtx[m.Ctx] = append(byCtx[m.Ctx], m)
	}
	for _, ctxH := range order {
		if err := fn(ctxH, byCtx[ctxH]); err != nil {
			return err
		}
	}
	return nil
}

// drainPlan is one context's share of a drain: which buffers are read, in
// what order, on which of the ephemeral streams.
type drainPlan struct {
	ctx    *contextRec
	dev    *deviceRec
	order  []*memRec
	assign []int   // order[i] is read on stream assign[i]
	load   []int64 // bytes per stream; len(load) is the stream count
}

// planDrain spreads items over up to drainStreams streams, LPT greedy:
// biggest buffers first onto the least-loaded stream, balancing the
// per-queue copy chains (the drain ends when the longest chain does).
func (c *CheCL) planDrain(ctxH Handle, items []*memRec) (drainPlan, error) {
	ctx, err := get(c.db.contexts, ctxH)
	if err != nil {
		return drainPlan{}, err
	}
	if len(ctx.Devices) == 0 {
		return drainPlan{}, ocl.Errf("CheCL", ocl.InvalidContext, "context %#x has no devices", uint64(ctxH))
	}
	dev, err := get(c.db.devices, ctx.Devices[0])
	if err != nil {
		return drainPlan{}, err
	}
	pl := drainPlan{ctx: ctx, dev: dev, order: make([]*memRec, len(items)), assign: make([]int, len(items))}
	pl.load = make([]int64, min(drainStreams, len(items)))
	copy(pl.order, items)
	sort.Slice(pl.order, func(i, j int) bool {
		if pl.order[i].Size != pl.order[j].Size {
			return pl.order[i].Size > pl.order[j].Size
		}
		return pl.order[i].Seq < pl.order[j].Seq
	})
	for i, m := range pl.order {
		best := 0
		for q := range pl.load {
			if pl.load[q] < pl.load[best] {
				best = q
			}
		}
		pl.assign[i] = best
		pl.load[best] += m.Size
	}
	return pl, nil
}

// submitDrain runs a plan; it is the one place checkpoint reads are issued.
// Fresh (ephemeral) command queues have no backlog, so their copy chains
// overlap on the device's DMA engines; one batched round trip carries
// every non-blocking read — plus, for the stop-drain, one BatchFinish per
// stream — so the whole drain pays one IPC latency instead of one per
// buffer, and each read is received straight into its destination.
func (c *CheCL) submitDrain(pl drainPlan, ep *specEpoch) error {
	what, epoch := "checkpoint drain", uint64(0)
	var into [][]byte
	if ep != nil {
		what, epoch = "speculative drain", ep.id
	} else {
		into = make([][]byte, len(pl.order))
		for i, m := range pl.order {
			into[i] = m.Data
		}
	}
	var data [][]byte
	err := c.forward(what, func(api *proxy.Client) error {
		queues := make([]ocl.CommandQueue, len(pl.load))
		for i := range queues {
			q, err := api.CreateCommandQueue(pl.ctx.real, pl.dev.real, 0)
			if err != nil {
				return err
			}
			queues[i] = q
		}
		defer func() {
			for _, q := range queues {
				api.ReleaseCommandQueue(q) //nolint:errcheck // best-effort teardown
			}
		}()
		cmds := make([]proxy.BatchCmd, 0, len(pl.order)+len(queues))
		for i, m := range pl.order {
			cmds = append(cmds, proxy.BatchCmd{
				Op:    proxy.BatchRead,
				Queue: queues[pl.assign[i]],
				Mem:   m.real,
				Size:  m.Size,
			})
		}
		if ep == nil {
			for _, q := range queues {
				cmds = append(cmds, proxy.BatchCmd{Op: proxy.BatchFinish, Queue: q})
			}
		}
		resp, parts, frame, err := api.ReadBatch(cmds, into, epoch)
		if err != nil {
			return err
		}
		if resp.ErrIdx >= 0 {
			return ocl.Errf(resp.ErrOp, ocl.Status(resp.ErrStatus), "%s", resp.ErrDetail)
		}
		if len(parts) != len(pl.order) {
			return fmt.Errorf("checl: %s returned %d of %d buffers", what, len(parts), len(pl.order))
		}
		data = parts
		if ep != nil {
			// Completion horizon of this context's drain: the longest
			// per-stream DtoH chain overlapped on the DMA engines, plus the
			// deferred response frame.
			bw := c.app.Node().Spec.Inter.PCIeDtoH
			if pl.dev.Info.Type == hw.DeviceCPU {
				bw = c.app.Node().Spec.Inter.Memcpy
			}
			end := c.app.Clock().Now().Add(hw.DrainMakespan(bw, pl.load) + frame)
			if end.Sub(ep.copyEnd) > 0 {
				ep.copyEnd = end
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, m := range pl.order {
		if ep != nil {
			// The bytes are the buffer state at epoch begin (the runtime
			// applies effects eagerly; only the cost is deferred).
			ep.entries[m.H] = &specEntry{m: m, data: data[i]}
		} else {
			m.Data = data[i]
		}
	}
	return nil
}

// anyQueueFor returns the first-made queue of the given context, or nil.
func (c *CheCL) anyQueueFor(ctx Handle) (first *queueRec) {
	for _, q := range c.db.queues {
		if q.Ctx == ctx && (first == nil || q.Seq < first.Seq) {
			first = q
		}
	}
	return first
}

// RestartStats is what a restart cost. Total is the span from the first
// byte read to the last object rebound, and two of the fields add up to it
// exactly: Total = ReadWait + ΣPerClass. The others are spans of their own
// that lie inside it and may overlap what adds up: ReadTime is the whole of
// the image read, of which the restart waited out only ReadWait — a store
// restore rebuilds while its image is still arriving (DESIGN.md §14) —
// and Recompile is the part of PerClass["prog"] spent in clBuildProgram.
type RestartStats struct {
	// PerClass is the restart's own work, step by step: "proxy", the fork of
	// the API proxy, and the object recreation breakdown of Fig. 7 under the
	// class names of RestoreOrder ("mem" is the buffers' creation plus the
	// upload of their contents).
	PerClass  map[string]vtime.Duration
	Recompile vtime.Duration // total clBuildProgram time (the Tr of Eq. 1)
	ReadTime  vtime.Duration // checkpoint image read, start to end
	// ReadWait is the time the restart stood still waiting for bytes of the
	// image: all of ReadTime for an image that arrives in one piece (a flat
	// file), otherwise the wait for the image's head and object database,
	// for each buffer's region where the upload got ahead of the read, and
	// for the read's end.
	ReadWait vtime.Duration
	Total    vtime.Duration
	// Degraded is non-nil when a store restore could not use the newest
	// generation and fell back along the parent chain; it lists the
	// generations that were skipped and why.
	Degraded *store.DegradedRestore
}

// String is the restart in one line: the total, the image read's span and
// how much of it the restart waited out, and the recompile.
func (s RestartStats) String() string {
	return fmt.Sprintf("%s (read %s, waited on it %s; recompile %s)", s.Total, s.ReadTime, s.ReadWait, s.Recompile)
}

// Restore restarts a checkpointed CheCL application on node: the CPR
// backend restores the host image, a fresh API proxy is forked, and every
// OpenCL object is recreated in the dependency order of §III-C.
func Restore(node *proc.Node, fs *proc.FS, path string, opts Options) (*CheCL, RestartStats, error) {
	return restore(node, path, opts, func(b cpr.Backend) (*proc.Process, vtime.Duration, *store.DegradedRestore, error) {
		app, rst, err := b.Restart(node, fs, path)
		return app, rst.Time, nil, err
	})
}

// RestoreImage restarts a checkpointed CheCL application from an
// in-memory image instead of a file: the per-rank restore entry point.
// MPI partial restart uses it to revive one failed rank from its own
// segment of a coordinated global snapshot without touching the other
// ranks' bytes. The caller has already charged whatever read cost
// produced the image (e.g. store.GetSegment on the node's clock). image is
// adopted (cpr.RestartImage): the restored buffers' staging copies are
// ranges of it, so the caller gives it up.
func RestoreImage(node *proc.Node, image []byte, opts Options) (*CheCL, RestartStats, error) {
	return restore(node, "image", opts, func(cpr.Backend) (*proc.Process, vtime.Duration, *store.DegradedRestore, error) {
		app, _, err := cpr.RestartImage(node, image)
		return app, 0, nil, err
	})
}

// RestoreFromStore is Restore reading from a content-addressed checkpoint
// store instead of a flat file. ref is a manifest ID ("job@seq") or a
// bare job name (its latest checkpoint). If the newest generation cannot
// be restored the walk falls back along the parent chain (healing chunks
// from the store's redundancy as it reads); the skipped generations are
// reported in RestartStats.Degraded. When no generation restores, the
// returned error wraps the typed *store.DegradedRestore — the caller
// always learns exactly what was lost, never gets a wrong payload.
//
// A restore of a bare job name that did not degrade brought back the
// job's newest generation, so the next checkpoint to the same store and
// job may claim clean buffers against it, as if this incarnation had
// written it.
func RestoreFromStore(node *proc.Node, st store.Backend, ref string, opts Options) (*CheCL, RestartStats, error) {
	c, stats, err := restore(node, ref, opts, func(b cpr.Backend) (*proc.Process, vtime.Duration, *store.DegradedRestore, error) {
		app, rst, deg, err := b.RestartFromStore(node, st, ref)
		return app, rst.Time, deg, err
	})
	if err == nil && stats.Degraded == nil && !strings.Contains(ref, "@") {
		c.committed = ckptDest{st, ref}
	}
	return c, stats, err
}

// restore is what the three entry points above share: load brings the
// host image back as a process on node (reporting what the read cost and,
// from a store, which generations it had to skip), then the object
// database is decoded, a fresh API proxy forked and every OpenCL object
// recreated.
//
// load may return before its read is over, with the node's clock short of
// the read's end and the process's regions still arriving (cpr's
// RestartFromStore does); rebuild then waits for a region where it reads
// one, and the restore is over when both the rebuild and the read are. A
// load that returns at its read's end makes every one of those waits zero.
func restore(node *proc.Node, what string, opts Options,
	load func(b cpr.Backend) (*proc.Process, vtime.Duration, *store.DegradedRestore, error)) (*CheCL, RestartStats, error) {
	if opts.Backend == nil {
		opts.Backend = cpr.BLCR{}
	}
	began := node.Clock.Now()
	app, read, deg, err := load(opts.Backend)
	if err != nil {
		return nil, RestartStats{PerClass: map[string]vtime.Duration{}, Degraded: deg}, fmt.Errorf("checl: restart: %w", err)
	}
	loaded := node.Clock.Now()
	c, stats, err := rebuild(app, what, opts)
	stats.ReadTime, stats.Degraded = read, deg
	stats.ReadWait += loaded.Sub(began)
	if err != nil {
		// Nothing of a failed restore keeps running on node: neither the
		// process load brought back nor a proxy rebuild forked for it.
		if c != nil && c.px != nil {
			c.px.Kill()
		}
		app.Kill()
		return nil, stats, err
	}
	rebuilt := node.Clock.Now()
	done := node.Clock.AdvanceTo(began.Add(read))
	stats.ReadWait += done.Sub(rebuilt)
	stats.Total = done.Sub(began)
	return c, stats, nil
}

// awaitRegion is app.AwaitRegion, reporting how long the wait was.
func awaitRegion(app *proc.Process, name string) ([]byte, vtime.Duration) {
	sw := vtime.NewStopwatch(app.Clock())
	data := app.AwaitRegion(name)
	return data, sw.Elapsed()
}

// rebuild is restore's tail: decode the object database out of
// the restored image, fork a fresh API proxy, and recreate every OpenCL
// object. It needs the database region before anything else and each
// buffer's region only for that buffer's upload (rebindAll). When the
// rebind fails it returns the CheCL with the proxy it forked, for restore
// to tear down.
func rebuild(app *proc.Process, what string, opts Options) (*CheCL, RestartStats, error) {
	blob, waited := awaitRegion(app, dbRegion)
	stats := RestartStats{PerClass: map[string]vtime.Duration{}, ReadWait: waited}
	if blob == nil {
		return nil, stats, fmt.Errorf("checl: checkpoint %q has no CheCL object database", what)
	}
	db, err := decodeDatabase(blob)
	if err != nil {
		return nil, stats, err
	}
	app.RemoveRegion(dbRegion)

	// Reattach per-buffer regions: each staged buffer travelled as its own
	// region so store checkpoints could dedup it segment-wise. The region
	// is the buffer's staging copy from here on: the process gives it up
	// once the upload has waited for it, and nothing else refers to those
	// bytes of the restored image. The image is also the next incremental
	// checkpoint's parent, so every buffer starts out clean against it: a
	// restart is the one rebind that resets the dirty flags (a failover
	// re-uploads shadows that may be newer than the last checkpoint).
	mems := ordered(db.mems)
	for _, m := range mems {
		if blob := app.Region(memRegion(m.H)); blob != nil {
			m.Data = blob
		}
		m.Dirty = false
	}

	c := &CheCL{app: app, opts: opts, db: db, committedDB: append([]byte(nil), blob...)}
	rs, err := c.respawn()
	if err != nil {
		return c, stats, err
	}
	for _, m := range mems {
		app.RemoveRegion(memRegion(m.H))
	}
	rs.ReadWait += waited
	return c, rs, nil
}

// respawn forks a fresh API proxy for the application and rebinds every
// object in the database onto it: a restart's rebuild, a failover and the
// destructive postprocess all end this way. The fork is the "proxy" step of
// the returned stats.
func (c *CheCL) respawn() (RestartStats, error) {
	fork := vtime.NewStopwatch(c.app.Clock())
	if err := c.spawn(); err != nil {
		return RestartStats{}, err
	}
	forked := fork.Elapsed()
	rs, err := c.rebindAll()
	rs.PerClass["proxy"] = forked
	rs.Total += forked
	return rs, err
}

// rebindAll recreates every object in the database via the current proxy,
// in the dependency order of §III-C, and rebinds the real handles hidden
// behind the (unchanged) CheCL handles. The buffers' contents go up last:
// the upload is the one step that reads a buffer's bytes, which on a restart
// may still be arriving, and nothing created in between depends on it.
func (c *CheCL) rebindAll() (RestartStats, error) {
	// Every cached info answer described the old binding's hardware.
	c.db.invalidateCaches()

	stats := RestartStats{PerClass: map[string]vtime.Duration{}}
	clock := c.app.Clock()
	api := c.px.Client
	sw := vtime.NewStopwatch(clock)

	// cl_platform_id: every recorded platform is rebound to the first one.
	plats, err := api.GetPlatformIDs()
	if err != nil {
		return stats, err
	}
	for _, p := range c.db.platforms {
		info, err := api.GetPlatformInfo(plats[0])
		if err != nil {
			return stats, err
		}
		p.real = plats[0]
		p.Info = info
	}
	stats.PerClass["platform"] = sw.Reset()

	// cl_device_id, with runtime processor selection: each recorded
	// device is remapped onto an available device, preferring the option
	// set in PreferDeviceType, then the original device type.
	devs, err := api.GetDeviceIDs(plats[0], ocl.DeviceTypeAll)
	if err != nil {
		return stats, err
	}
	infos := make([]ocl.DeviceInfo, len(devs))
	for i, d := range devs {
		if infos[i], err = api.GetDeviceInfo(d); err != nil {
			return stats, err
		}
	}
	for _, d := range ordered(c.db.devices) {
		want := cmp.Or(c.opts.PreferDeviceType, d.Info.Type)
		i := max(0, slices.IndexFunc(infos, func(inf ocl.DeviceInfo) bool { return want != 0 && inf.Type == want }))
		d.real = devs[i]
		d.Info = infos[i]
	}
	stats.PerClass["device"] = sw.Reset()

	// Every other class: each record's create step, class by class in the
	// order of §III-C and each class in creation order, then the references
	// the record counts beyond the one its creation gave it.
	create := map[string]func() error{
		"context": func() error { return remake(api, c.db.contexts, func(r *contextRec) error { return r.create(c, api) }) },
		"cmd_que": func() error { return remake(api, c.db.queues, func(r *queueRec) error { return r.create(c, api) }) },
		"mem": func() error {
			return remake(api, c.db.mems, func(m *memRec) error {
				// CL_MEM_USE_HOST_PTR aliasing cannot survive a rebind: the
				// host region may belong to an old incarnation. The buffer
				// continues with copy semantics; its contents go up last.
				m.UseHostPtr, m.hostPtr = false, nil
				return m.create(c, api, m.Flags&^(ocl.MemUseHostPtr|ocl.MemCopyHostPtr), nil)
			})
		},
		"sampler": func() error { return remake(api, c.db.samplers, func(r *samplerRec) error { return r.create(c, api) }) },
		"prog": func() error {
			return remake(api, c.db.programs, func(p *programRec) error {
				// The rebuild is the Tr of the migration cost model. A binary
				// (deprecated, §III-D) is only valid on a node with the same
				// vendor implementation.
				built, err := p.create(c, api, devs[0])
				stats.Recompile += built
				if err != nil && p.FromBinary {
					err = fmt.Errorf("checl: restoring binary program (clCreateProgramWithBinary is deprecated under CheCL): %w", err)
				}
				return err
			})
		},
		"kernel": func() error {
			if err := remake(api, c.db.kernels, func(r *kernelRec) error { return r.create(c, api) }); err != nil {
				return err
			}
			return c.replayArgs(api)
		},
		"event": func() error { return remake(api, c.db.events, func(r *eventRec) error { return r.create(c, api) }) },
	}
	for _, class := range RestoreOrder[2:] {
		if err := create[class](); err != nil {
			return stats, err
		}
		stats.PerClass[class] = sw.Reset()
	}

	// Last, the buffers' contents: the staged user data goes back to device
	// memory (the HtoD transfers that dominate Fig. 7 for data-heavy
	// programs), each upload as soon as its bytes are there. A dead record
	// kept only because a kernel argument still names it has a placeholder
	// allocation and nothing to upload.
	for _, m := range ordered(c.db.mems) {
		if m.Released || m.Data == nil {
			continue
		}
		_, waited := awaitRegion(c.app, memRegion(m.H))
		stats.ReadWait += waited
		if q := c.anyQueueFor(m.Ctx); q != nil {
			if _, err := api.EnqueueWriteBuffer(q.real, m.real, true, 0, m.Data, nil); err != nil {
				return stats, err
			}
		}
		if !c.opts.Incremental && !c.shadowOn() {
			m.Data = nil
		}
	}
	stats.PerClass["mem"] += sw.Reset() - stats.ReadWait

	for _, d := range stats.PerClass {
		stats.Total += d
	}
	return stats, nil
}

// remake runs create over the records of m in creation order and gives
// each new object the references its record counts beyond the one its
// creation gave it, so that an object the application retained outlives
// its next release.
func remake[P object](api *proxy.Client, m map[Handle]P, create func(P) error) error {
	for _, r := range ordered(m) {
		if err := create(r); err != nil {
			return err
		}
		hd := r.head()
		for n := 1; n < *hd.refs; n++ {
			if err := classes[hd.kind].retain(api, *hd.real); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayArgs replays every kernel's recorded clSetKernelArg calls on api,
// translating CheCL handles to the new real handles. The replayed calls
// return nothing, so like the application's own they travel as command
// frames rather than one round trip each.
func (c *CheCL) replayArgs(api *proxy.Client) error {
	var replay proxy.BatchFrame
	send := func() error {
		if replay.Len() == 0 {
			return nil
		}
		resp, _, err := api.SendBatch(&replay)
		replay.Reset()
		if err == nil && resp.ErrIdx >= 0 {
			err = ocl.Errf(resp.ErrOp, ocl.Status(resp.ErrStatus), "%s", resp.ErrDetail)
		}
		return err
	}
	for _, k := range ordered(c.db.kernels) {
		prog, err := get(c.db.programs, k.Prog)
		if err != nil {
			return err
		}
		for i, a := range k.Args {
			if !a.Set {
				continue
			}
			forward, _, err := c.translateArg(prog, k.Name, i, a.Size, a.Raw)
			if err != nil {
				return err
			}
			replay.Add(&proxy.BatchCmd{Op: proxy.BatchSetArg, Kernel: k.real, Index: i, ArgSize: a.Size, Value: forward})
			if replay.Len() >= maxQueueCmds {
				if err := send(); err != nil {
					return err
				}
			}
		}
	}
	return send()
}

// MigrationStats aggregates the cost of a completed migration.
type MigrationStats struct {
	Checkpoint CheckpointStats
	Restart    RestartStats
	Transfer   vtime.Duration // checkpoint file movement between nodes
	Total      vtime.Duration // Tm: checkpoint + transfer + restart
}

// Migrate checkpoints the application, moves the checkpoint file to the
// target node if the filesystem is not shared, kills the source
// incarnation, and restores on the target (§IV-C). fs must be reachable
// from the source node; if it is the cluster NFS the restore reads it
// directly, otherwise the file is copied over the NIC to the target's
// local disk.
func Migrate(c *CheCL, fs *proc.FS, path string, target *proc.Node, opts Options) (*CheCL, MigrationStats, error) {
	var ms MigrationStats
	src := c.app.Node()

	ckpt, err := c.Checkpoint(fs, path)
	if err != nil {
		return nil, ms, err
	}
	ms.Checkpoint = ckpt

	restoreFS := fs
	if target != src && fs != target.NFS {
		// scp-like transfer: read on the source, push over the NIC,
		// land on the target's local disk.
		data, err := fs.ReadFile(src.Clock, path)
		if err != nil {
			return nil, ms, err
		}
		sw := vtime.NewStopwatch(target.Clock)
		target.Clock.Advance(src.Spec.Inter.NIC.Transfer(int64(len(data))))
		if err := target.LocalDisk.WriteFile(target.Clock, path, data); err != nil {
			return nil, ms, err
		}
		ms.Transfer = sw.Elapsed()
		restoreFS = target.LocalDisk
	}

	return c.handOver(ms, func() (*CheCL, RestartStats, error) {
		return Restore(target, restoreFS, path, opts)
	})
}

// handOver ends a migration: the source incarnation terminates — process
// migration, not cloning — and the target one comes up through restore.
func (c *CheCL) handOver(ms MigrationStats, restore func() (*CheCL, RestartStats, error)) (*CheCL, MigrationStats, error) {
	c.px.Kill()
	c.app.Kill()
	nc, rst, err := restore()
	if err != nil {
		return nil, ms, err
	}
	ms.Restart = rst
	ms.Total = ms.Checkpoint.Phases.Total() + ms.Transfer + rst.Total
	return nc, ms, nil
}

// MigrateViaStore migrates like Migrate, but through content-addressed
// stores: the application checkpoints into src (deduplicating against its
// earlier checkpoints), the checkpoint is replicated to dst over the NIC
// (moving only chunks dst is missing — repeated migrations of a
// mostly-unchanged job transfer only the delta), and the application
// restarts on target reading from dst. Pass dst == nil (or dst == src,
// e.g. an NFS-backed store or an erasure-coded fleet both nodes reach) to
// skip replication and restore straight from src. Any two stores replicate,
// whatever their geometries; replication is an operation of the stores
// themselves, so src and dst must then be *store.Fleet, not decorators.
func MigrateViaStore(c *CheCL, src store.Backend, job string, target *proc.Node, dst store.Backend, opts Options) (*CheCL, MigrationStats, error) {
	var ms MigrationStats
	srcNode := c.app.Node()

	ckpt, err := c.CheckpointToStore(src, job)
	if err != nil {
		return nil, ms, err
	}
	// The migration reads the checkpoint back now: barrier on its write.
	c.WaitBackgroundWrite()
	ms.Checkpoint = ckpt

	restoreStore := src
	if dst != nil && dst != src {
		srcStore, sok := src.(*store.Fleet)
		dstStore, dok := dst.(*store.Fleet)
		if !sok || !dok {
			return nil, ms, fmt.Errorf("checl: migrate via store: cannot replicate from %T to %T", src, dst)
		}
		sw := vtime.NewStopwatch(target.Clock)
		if _, _, err := srcStore.Replicate(target.Clock, ckpt.Manifest, dstStore, srcNode.Spec.Inter.NIC); err != nil {
			return nil, ms, err
		}
		ms.Transfer = sw.Elapsed()
		restoreStore = dst
	}

	return c.handOver(ms, func() (*CheCL, RestartStats, error) {
		return RestoreFromStore(target, restoreStore, ckpt.Manifest, opts)
	})
}

// SelectProcessor re-targets a *running* CheCL application onto a
// different compute device kind on the same node (runtime processor
// selection, §IV-C): a checkpoint is taken on the RAM disk, the current
// incarnation is torn down, and the application restarts preferring the
// requested device type.
func SelectProcessor(c *CheCL, want hw.DeviceType) (*CheCL, MigrationStats, error) {
	node := c.app.Node()
	opts := c.opts
	opts.PreferDeviceType = want
	return Migrate(c, node.RAMDisk, "procsel.ckpt", node, opts)
}
