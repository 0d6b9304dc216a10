package main

import (
	"fmt"
	"time"

	"checl/internal/core"
	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/proxy"
	"checl/internal/store"
	"checl/internal/vtime"
)

// ---- the checkpoint job shared by ckpt_cycle and recover ----

const touchSrc = `
__kernel void touch(__global uint* buf, uint salt, int n) {
    int i = (int)get_global_id(0);
    if (i < n) buf[i] = buf[i] * 1664525u + salt;
}`

const touchItems = 1024 // the launch dirties the whole buffer for CheCL; the kernel stays cheap

// ckptJob is the seeded script of the checkpoint workloads: initial
// contents of every buffer, and per generation a rotating window of
// rewrites plus one kernel-dirtied buffer. Even buffers hold random
// bytes, odd buffers low-entropy ramps.
type ckptJob struct {
	sz     sizes
	offset int        // seeded window rotation (kept even so the kernel target keeps its parity)
	init   [][]byte   // [buffer]
	writes [][][]byte // [generation][slot in window]
	// want[g] is every buffer's content after generation g on the bare
	// runtime; only the generations a check needs are kept.
	want     map[int][][]byte
	nativeVT vtime.Duration
}

// fill writes version ver of a buffer's contents. Only the random
// buffers draw on the seed. A ramp is a fixed function of (buffer, ver):
// where the content-defined chunker cuts it, and what it dedups against,
// depend on its phase, and seeded ramps moved the virtual time by 6 % from
// seed to seed.
func (j *ckptJob) fill(g *rng, buffer, ver int, b []byte) {
	if buffer%2 == 0 {
		g.fillRandom(b)
	} else {
		fillRamp(b, 8*buffer+ver)
	}
}

// windowBuffer is the slot-th buffer generation gen rewrites; slot ==
// sz.window names the buffer its kernel launch dirties.
func (j *ckptJob) windowBuffer(gen, slot int) int {
	return (j.offset + gen*j.sz.window + slot) % j.sz.bufCount
}

// newCkptJob generates the script for gens generations and runs it on the
// bare runtime, keeping the contents after each generation in keep.
func newCkptJob(sz sizes, seed uint64, gens int, keep ...int) (*ckptJob, error) {
	g := &rng{s: seed}
	j := &ckptJob{sz: sz, offset: 2 * int(seed%uint64(sz.bufCount/2)), want: map[int][][]byte{}}
	for b := 0; b < sz.bufCount; b++ {
		data := make([]byte, sz.bufBytes)
		j.fill(g, b, 0, data)
		j.init = append(j.init, data)
	}
	for gen := 0; gen < gens; gen++ {
		var ws [][]byte
		for slot := 0; slot < sz.window; slot++ {
			data := make([]byte, sz.bufBytes)
			j.fill(g, j.windowBuffer(gen, slot), gen+1, data)
			ws = append(ws, data)
		}
		j.writes = append(j.writes, ws)
	}
	a, err := newArm(armNative, newNode("ref"), core.Options{}, &recorder{})
	if err != nil {
		return nil, err
	}
	sw := vtime.NewStopwatch(a.node.Clock)
	h, err := j.populate(a.api)
	if err != nil {
		return nil, fmt.Errorf("checkpoint job: native reference: %w", err)
	}
	for gen := 0; gen < gens; gen++ {
		if err := j.generation(h, gen); err != nil {
			return nil, fmt.Errorf("checkpoint job: native reference: %w", err)
		}
		for _, k := range keep {
			if k == gen {
				j.nativeVT = sw.Elapsed()
				if j.want[gen], err = h.readAll(); err != nil {
					return nil, err
				}
			}
		}
	}
	return j, nil
}

// jobHandles is the job's live OpenCL state. CheCL handles survive a
// restore, so the same values address the restored incarnation.
type jobHandles struct {
	*session
	mems []ocl.Mem
	size int64
}

func (j *ckptJob) populate(api ocl.API) (*jobHandles, error) {
	s, err := openSession(api, touchSrc, "touch")
	if err != nil {
		return nil, err
	}
	h := &jobHandles{session: s, size: int64(j.sz.bufBytes)}
	for _, data := range j.init {
		m, err := api.CreateBuffer(s.ctx, ocl.MemReadWrite|ocl.MemCopyHostPtr, h.size, data)
		if err != nil {
			return nil, err
		}
		h.mems = append(h.mems, m)
	}
	return h, nil
}

// generation rewrites the generation's window, dirties one more buffer by
// a kernel launch, and drains the queue.
func (j *ckptJob) generation(h *jobHandles, gen int) error {
	for slot, data := range j.writes[gen] {
		if _, err := h.api.EnqueueWriteBuffer(h.q, h.mems[j.windowBuffer(gen, slot)], false, 0, data, nil); err != nil {
			return err
		}
	}
	target := h.mems[j.windowBuffer(gen, j.sz.window)]
	args := [][]byte{u64(uint64(target)), u32(uint32(gen + 1)), u32(touchItems)}
	for i, v := range args {
		if err := h.api.SetKernelArg(h.kern, i, int64(len(v)), v); err != nil {
			return err
		}
	}
	if _, err := h.api.EnqueueNDRangeKernel(h.q, h.kern, 1, [3]int{}, [3]int{touchItems}, [3]int{64}, nil); err != nil {
		return err
	}
	return h.api.Finish(h.q)
}

func (h *jobHandles) readAll() ([][]byte, error) {
	out := make([][]byte, len(h.mems))
	for i, m := range h.mems {
		data, _, err := h.api.EnqueueReadBuffer(h.q, m, true, 0, h.size, nil)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// verify reads every buffer back and compares it with the native
// contents after generation gen.
func (j *ckptJob) verify(h *jobHandles, gen int, what string, c *checker) {
	got, err := h.readAll()
	if err != nil {
		c.ok(what+": read back: "+err.Error(), false)
		return
	}
	for i := range got {
		c.equal(fmt.Sprintf("%s: buffer %d", what, i), got[i], j.want[gen][i])
	}
}

// ckptEnv is the machinery around the job: a two-node cluster for the
// application and a six-node 4+2 erasure-coded fleet for its checkpoints.
type ckptEnv struct {
	cluster *proc.Cluster
	fleet   *store.Fleet
	cur     current      // where the cpr and store decorators report
	traced  *tracedStore // the fleet behind the store decorator
	states  []*proc.NodeState
	disks   []*proc.FS
}

const (
	fleetNodes = 6
	jobName    = "bench-job"
)

func newCkptEnv(rec *recorder) (*ckptEnv, error) {
	e := &ckptEnv{cur: current{rec}, cluster: proc.NewCluster("app", 2, hw.TableISpec(), func(int) []*ocl.Vendor { return []*ocl.Vendor{ocl.NVIDIA()} })}
	nodes := make([]store.FleetNode, fleetNodes)
	for i := range nodes {
		name := fmt.Sprintf("ck-%02d", i)
		fs := proc.NewFS(name, hw.TableISpec().LocalDisk)
		ns := proc.NewNodeState(name)
		fs.SetNodeState(ns)
		nodes[i] = store.FleetNode{Name: name, FS: fs}
		e.states = append(e.states, ns)
		e.disks = append(e.disks, fs)
	}
	var err error
	if e.fleet, err = store.NewFleet(nodes, store.FleetConfig{}); err != nil {
		return nil, err
	}
	e.traced = &tracedStore{Backend: e.fleet, cur: &e.cur}
	return e, nil
}

// opts is how the job attaches and restores: the paper's incremental
// mode, and BLCR behind the cpr decorator.
func (e *ckptEnv) opts() core.Options {
	return core.Options{Incremental: true, Backend: &tracedCPR{cur: &e.cur}}
}

func (e *ckptEnv) usage(out *passOut) {
	out.fsFiles, out.fsBytes = 0, 0
	for _, fs := range e.disks {
		out.fsFiles += len(fs.List())
		out.fsBytes += fs.TotalBytes()
	}
	out.healed = int64(e.fleet.Heals().ShardsHealed)
}

// checkpoint takes one store checkpoint under a core-layer span.
func (e *ckptEnv) checkpoint(c *core.CheCL, out *passOut) {
	id := e.cur.rec.begin("core.checkpoint", "core")
	st, err := c.CheckpointToStore(e.traced, jobName)
	e.cur.rec.end(id)
	out.checks.ok("checkpoint: "+fmt.Sprint(err), err == nil)
	if err == nil {
		out.ckpts = append(out.ckpts, st)
	}
}

// restore kills nothing itself: it restores the job's latest generation
// on node under a core-layer span and returns the new incarnation.
func (e *ckptEnv) restore(node *proc.Node, out *passOut) (*core.CheCL, error) {
	id := e.cur.rec.begin("core.restore", "core")
	c, st, err := core.RestoreFromStore(node, e.traced, jobName, e.opts())
	e.cur.rec.end(id)
	out.checks.ok("restore: "+fmt.Sprint(err), err == nil && st.Degraded == nil)
	if err != nil {
		return nil, err
	}
	out.restores = append(out.restores, st)
	return c, nil
}

// kill terminates the application and its proxy, as a node crash would.
func kill(c *core.CheCL) {
	c.App().Kill()
	c.Detach()
}

// ---- ckpt_cycle ----

type ckptRunner struct{ job *ckptJob }

func setupCkpt(sz sizes, seed uint64) (runner, error) {
	job, err := newCkptJob(sz, seed, sz.generations, sz.generations-1)
	if err != nil {
		return nil, err
	}
	return &ckptRunner{job: job}, nil
}

func (r *ckptRunner) pass(kind string, rec *recorder) (passOut, error) {
	j := r.job
	last := j.sz.generations - 1
	out := passOut{rec: rec, nativeVT: j.nativeVT}
	e, err := newCkptEnv(rec)
	if err != nil {
		return out, err
	}
	a, err := newArm(kind, e.cluster.Nodes[0], e.opts(), rec)
	if err != nil {
		return out, err
	}

	sw := vtime.NewStopwatch(a.node.Clock)
	t0 := time.Now()
	h, err := j.populate(a.api)
	if err != nil {
		a.close()
		return out, fmt.Errorf("ckpt_cycle: populate: %w", err)
	}
	for gen := 0; gen <= last; gen++ {
		if err := j.generation(h, gen); err != nil {
			a.close()
			return out, fmt.Errorf("ckpt_cycle: generation %d: %w", gen, err)
		}
		if a.checl != nil {
			e.checkpoint(a.checl, &out)
		}
	}
	out.wall = time.Since(t0)
	out.vtime = sw.Elapsed()
	out.px = a.proxyStats()
	e.usage(&out)

	// Untimed output check. The native and proxy arms have no checkpoint;
	// their live buffers must hold what the bare runtime computed. Under
	// CheCL the application is killed and the last checkpoint must
	// restore, on the other node, to exactly those contents.
	if a.checl == nil {
		j.verify(h, last, "ckpt_cycle "+kind+" arm", &out.checks)
		a.close()
		return out, nil
	}
	kill(a.checl)
	scratch := &recorder{}
	e.cur.rec = scratch
	var check passOut
	c, err := e.restore(e.cluster.Nodes[1], &check)
	if err == nil {
		h.api = &tracedAPI{inner: c, rec: scratch}
		j.verify(h, last, "ckpt_cycle after restore", &check.checks)
		kill(c)
	}
	out.checks.add(check.checks)
	return out, nil
}

func (r *ckptRunner) finish(*passOut) error { return nil }
func (r *ckptRunner) close()                {}

// ---- recover ----

// recoverRunner holds the job checkpointed once in set-up and restored
// many times by the passes.
type recoverRunner struct {
	job  *ckptJob
	env  *ckptEnv
	live *core.CheCL // current incarnation
	at   int         // index of the node it runs on
	h    *jobHandles
}

func setupRecover(sz sizes, seed uint64) (runner, error) {
	// One extra generation is scripted for the migration after the passes.
	last := sz.generations - 1
	job, err := newCkptJob(sz, seed, sz.generations+1, last, last+1)
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	e, err := newCkptEnv(rec)
	if err != nil {
		return nil, err
	}
	a, err := newArm(armCheCL, e.cluster.Nodes[0], e.opts(), rec)
	if err != nil {
		return nil, err
	}
	h, err := job.populate(a.api)
	if err != nil {
		return nil, fmt.Errorf("recover: populate: %w", err)
	}
	var out passOut
	for gen := 0; gen <= last; gen++ {
		if err := job.generation(h, gen); err != nil {
			return nil, fmt.Errorf("recover: generation %d: %w", gen, err)
		}
		e.checkpoint(a.checl, &out)
	}
	if out.checks.failed > 0 || rec.errs > 0 {
		return nil, fmt.Errorf("recover: building the generations failed: %v", out.checks.notes)
	}
	return &recoverRunner{job: job, env: e, live: a.checl, h: h}, nil
}

func (r *recoverRunner) pass(kind string, rec *recorder) (passOut, error) {
	if kind != armCheCL {
		return r.plainPass(kind, rec)
	}
	j, e := r.job, r.env
	last := j.sz.generations - 1
	e.cur.rec = rec
	out := passOut{rec: rec, nativeVT: j.nativeVT}
	t0 := time.Now()
	for i := 0; i < j.sz.rounds; i++ {
		out.px = addProxyStats(out.px, r.live.Proxy().Client.Stats())
		kill(r.live)
		down := []int{}
		if i%2 == 1 {
			down = []int{i % fleetNodes, (i + 1) % fleetNodes}
		}
		for _, n := range down {
			e.states[n].SetDown(true)
		}
		r.at = 1 - r.at
		node := e.cluster.Nodes[r.at]
		sw := vtime.NewStopwatch(node.Clock)
		c, err := e.restore(node, &out)
		if err != nil {
			return out, fmt.Errorf("recover: round %d: %w", i, err)
		}
		r.live = c
		r.h.api = &tracedAPI{inner: c, rec: rec}
		j.verify(r.h, last, fmt.Sprintf("recover round %d", i), &out.checks)
		out.vtime += sw.Elapsed()
		for _, n := range down {
			e.states[n].SetDown(false)
		}
	}
	out.wall = time.Since(t0)
	out.px = addProxyStats(out.px, r.live.Proxy().Client.Stats())
	e.usage(&out)
	return out, nil
}

// plainPass is the native or proxy arm of the traced run. Those arms have
// nothing to restore: the job is rebuilt on a node of its own (untimed)
// and the pass is the same bulk read-back of every buffer, once per round.
func (r *recoverRunner) plainPass(kind string, rec *recorder) (passOut, error) {
	j := r.job
	last := j.sz.generations - 1
	out := passOut{rec: rec, nativeVT: j.nativeVT}
	a, err := newArm(kind, newNode("plain"), core.Options{}, &recorder{})
	if err != nil {
		return out, err
	}
	defer a.close()
	h, err := j.populate(a.api)
	if err != nil {
		return out, err
	}
	for gen := 0; gen <= last; gen++ {
		if err := j.generation(h, gen); err != nil {
			return out, err
		}
	}
	h.api = &tracedAPI{inner: a.inner, rec: rec}
	before := a.proxyStats()
	sw := vtime.NewStopwatch(a.node.Clock)
	t0 := time.Now()
	for i := 0; i < j.sz.rounds; i++ {
		j.verify(h, last, "recover "+kind+" arm", &out.checks)
	}
	out.wall = time.Since(t0)
	out.vtime = sw.Elapsed()
	after := a.proxyStats()
	out.px = proxy.Stats{Calls: after.Calls - before.Calls, Bytes: after.Bytes - before.Bytes,
		Batched: after.Batched - before.Batched, Posted: after.Posted - before.Posted}
	return out, nil
}

// finish dirties one more window, migrates the job to the other node
// through the fleet, and checks what arrives.
func (r *recoverRunner) finish(out *passOut) error {
	j, e := r.job, r.env
	gen := j.sz.generations
	rec := &recorder{}
	e.cur.rec = rec
	r.h.api = &tracedAPI{inner: r.live, rec: rec}
	if err := j.generation(r.h, gen); err != nil {
		return fmt.Errorf("recover: pre-migration generation: %w", err)
	}
	target := e.cluster.Nodes[1-r.at]
	c, ms, err := core.MigrateViaStore(r.live, e.traced, jobName, target, nil, e.opts())
	out.checks.ok("migrate: "+fmt.Sprint(err), err == nil)
	if err != nil {
		return nil
	}
	r.live, r.at = c, 1-r.at
	r.h.api = &tracedAPI{inner: c, rec: rec}
	j.verify(r.h, gen, "recover after migration", &out.checks)
	out.migration = &ms
	out.checks.failed += rec.errs
	out.checks.checked += len(rec.calls)
	return nil
}

func (r *recoverRunner) close() { kill(r.live) }
