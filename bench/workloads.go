package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"checl/internal/apps"
	"checl/internal/core"
	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/proxy"
	"checl/internal/vtime"
)

// sizes fixes the work one pass does. fullSizes is what BENCHMARK.json
// measures; shortSizes is the `go test` smoke.
type sizes struct {
	suiteScale  float64 // apps.Env.Scale for the 39-program suite
	suiteStride int     // run every n-th program (1 = all; the smoke thins the suite out)
	stormIters  int     // call_storm loop iterations (6 API calls each on average)
	bufCount    int     // checkpoint job: number of buffers
	bufBytes    int     // checkpoint job: bytes per buffer
	generations int     // checkpoint job: checkpoints per pass
	window      int     // checkpoint job: buffers rewritten per generation
	rounds      int     // recover: kill/restore rounds per pass
	passes      int     // end-to-end run: timed passes at least, however long they take
	setups      int     // end-to-end run: set-up is repeated and its median reported
}

var (
	fullSizes  = sizes{suiteScale: 0.25, suiteStride: 1, stormIters: 10000, bufCount: 32, bufBytes: 1 << 20, generations: 6, window: 8, rounds: 6, passes: 5, setups: 3}
	shortSizes = sizes{suiteScale: 0.125, suiteStride: 6, stormIters: 200, bufCount: 2, bufBytes: 64 << 10, generations: 2, window: 1, rounds: 2, passes: 1, setups: 1}
)

// The three ocl.API arms a workload can be driven through.
const (
	armNative = "native" // ocl.NewRuntime
	armProxy  = "proxy"  // proxy.Spawn(...).Client
	armCheCL  = "checl"  // core.Attach
)

// passOut is what one pass reports. Host numbers are measured around the
// timed region only; everything virtual comes from the node clocks and
// the stats structs the layers return.
type passOut struct {
	wall   time.Duration
	vtime  vtime.Duration
	rec    *recorder
	checks checker

	ckpts     []core.CheckpointStats
	restores  []core.RestartStats
	px        proxy.Stats // proxy.Client counters summed over the pass
	fsFiles   int         // Σ files over the fleet nodes after the pass
	fsBytes   int64       // Σ bytes over the fleet nodes after the pass
	healed    int64       // shards written back by degraded reads
	nativeVT  vtime.Duration
	migration *core.MigrationStats
}

// runner is a workload after set-up: pass runs one pass on the named arm,
// reporting to rec; finish runs whatever the workload does once after all
// passes; close stops the processes set-up left running.
type runner interface {
	pass(arm string, rec *recorder) (passOut, error)
	finish(out *passOut) error
	close()
}

type workload struct {
	name  string
	why   string
	setup func(sz sizes, seed uint64) (runner, error)
}

var workloads = []workload{
	{"suite", "all 39 paper apps under default CheCL: interpreter-bound, so clc is most of the wall and proxy/ipc/core are a small share", setupSuite},
	{"call_storm", "60000 tiny API calls on an 8-item kernel: call-bound, so proxy+ipc round trips dominate and clc is negligible", setupStorm},
	{"ckpt_cycle", "six incremental checkpoints of a 32 MiB job into a 4+2 fleet: the write half (core drain, cpr encode, store chunk/compress/code, FS)", setupCkpt},
	{"recover", "six kill/restore rounds from that fleet, odd rounds with two nodes down, then one migration: the read half of the same layers", setupRecover},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- checker ----

// checker counts output checks and the ones that failed; the first few
// failures are kept for the report.
type checker struct {
	checked int
	failed  int
	notes   []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// equal checks that got is byte-identical to want.
func (c *checker) equal(what string, got, want []byte) {
	c.checked++
	if !bytes.Equal(got, want) {
		c.fail("%s: %d bytes differ from the reference", what, len(got))
	}
}

// ok checks a boolean outcome (an app's Verified flag, a completed
// checkpoint or restore).
func (c *checker) ok(what string, good bool) {
	c.checked++
	if !good {
		c.fail("%s", what)
	}
}

func (c *checker) add(o checker) {
	c.checked += o.checked
	c.failed += o.failed
	for _, n := range o.notes {
		if len(c.notes) < 8 {
			c.notes = append(c.notes, n)
		}
	}
}

// ---- arms ----

// arm is one way of reaching the OpenCL implementation, already wrapped
// in the bench decorator.
type arm struct {
	api   ocl.API // inner behind the bench decorator
	inner ocl.API // ocl.Runtime, proxy.Client or core.CheCL
	node  *proc.Node
	px    *proxy.Proxy // proxy and checl arms
	checl *core.CheCL  // checl arm only
}

func newNode(name string) *proc.Node { return proc.NewNode(name, hw.TableISpec(), ocl.NVIDIA()) }

// newArm builds the named arm on node and returns it behind rec's
// decorator.
func newArm(kind string, node *proc.Node, opts core.Options, rec *recorder) (*arm, error) {
	a := &arm{node: node}
	p := node.Spawn("bench-app")
	switch kind {
	case armNative:
		p.MapDevice() // a native app loads the vendor library itself
		a.inner = ocl.NewRuntime(node.Vendors[0], node.Spec, node.Clock)
	case armProxy:
		px, err := proxy.Spawn(p, node.Vendors[0])
		if err != nil {
			return nil, fmt.Errorf("spawn proxy: %w", err)
		}
		a.px, a.inner = px, px.Client
	case armCheCL:
		c, err := core.Attach(p, opts)
		if err != nil {
			return nil, fmt.Errorf("attach: %w", err)
		}
		a.checl, a.px, a.inner = c, c.Proxy(), c
	default:
		return nil, fmt.Errorf("unknown arm %q", kind)
	}
	a.api = &tracedAPI{inner: a.inner, rec: rec}
	return a, nil
}

// close stops the arm's proxy, if it has one.
func (a *arm) close() {
	switch {
	case a.checl != nil:
		a.checl.Detach()
	case a.px != nil:
		a.px.Kill()
	}
}

func (a *arm) proxyStats() proxy.Stats {
	if a.px == nil {
		return proxy.Stats{}
	}
	return a.px.Client.Stats()
}

func addProxyStats(a, b proxy.Stats) proxy.Stats {
	a.Calls += b.Calls
	a.Bytes += b.Bytes
	a.Batched += b.Batched
	a.Posted += b.Posted
	return a
}

// ---- seeded data ----

// rng is splitmix64: the benchmark's only source of input data.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fillRandom fills b with incompressible bytes.
func (r *rng) fillRandom(b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.next())
	}
}

// fillRamp fills b with a low-entropy ramp: runs of one byte value that
// steps by one from run to run. The run length is 64+id, so ramps with
// different ids are not shifted copies of each other and do not dedup
// against each other; every 256 runs the ramp is shifted by 7, so it does
// not dedup against itself either. It still compresses 50:1.
func fillRamp(b []byte, id int) {
	run := 64 + id
	for k, start := 0, 0; start < len(b); k, start = k+1, start+run {
		v := byte(k + 7*(k>>8))
		end := min(start+run, len(b))
		for i := start; i < end; i++ {
			b[i] = v
		}
	}
}

// fillFloats fills b with float32 values in [0, 1).
func (r *rng) fillFloats(b []byte) {
	for i := 0; i+4 <= len(b); i += 4 {
		binary.LittleEndian.PutUint32(b[i:], math.Float32bits(float32(r.next()>>40)/(1<<24)))
	}
}

func u32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
func u64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// ---- shared OpenCL session boilerplate ----

// session is the platform/device/context/queue every bench-owned program
// needs, plus one built program and kernel.
type session struct {
	api  ocl.API
	dev  ocl.DeviceID
	ctx  ocl.Context
	q    ocl.CommandQueue
	kern ocl.Kernel
}

func openSession(api ocl.API, source, kernel string) (*session, error) {
	s := &session{api: api}
	plats, err := api.GetPlatformIDs()
	if err != nil {
		return nil, err
	}
	devs, err := api.GetDeviceIDs(plats[0], ocl.DeviceTypeGPU)
	if err != nil {
		return nil, err
	}
	s.dev = devs[0]
	if s.ctx, err = api.CreateContext(devs[:1]); err != nil {
		return nil, err
	}
	if s.q, err = api.CreateCommandQueue(s.ctx, s.dev, 0); err != nil {
		return nil, err
	}
	prog, err := api.CreateProgramWithSource(s.ctx, source)
	if err != nil {
		return nil, err
	}
	if err := api.BuildProgram(prog, ""); err != nil {
		return nil, err
	}
	if s.kern, err = api.CreateKernel(prog, kernel); err != nil {
		return nil, err
	}
	return s, nil
}

// ---- suite ----

type suiteRunner struct {
	sz       sizes
	order    []apps.App // the programs one pass runs, in the paper's order
	nativeVT vtime.Duration
}

// setupSuite runs the suite once on the bare runtime: the native virtual
// time is the base of checl_overhead_pct. The seed changes nothing here:
// the paper's programs generate their own inputs from fixed seeds, and
// running them in another order moves the host time by a fifth (all 39
// share one runtime, so what ran before decides the heap a program meets).
func setupSuite(sz sizes, _ uint64) (runner, error) {
	r := &suiteRunner{sz: sz}
	for i, app := range apps.All() {
		if i%sz.suiteStride == 0 {
			r.order = append(r.order, app)
		}
	}
	out, err := r.pass(armNative, &recorder{})
	if err != nil {
		return nil, err
	}
	if out.checks.failed > 0 {
		return nil, fmt.Errorf("suite: native reference run failed verification: %v", out.checks.notes)
	}
	r.nativeVT = out.vtime
	return r, nil
}

func (r *suiteRunner) pass(kind string, rec *recorder) (passOut, error) {
	a, err := newArm(kind, newNode("suite"), core.Options{}, rec)
	if err != nil {
		return passOut{}, err
	}
	defer a.close()
	out := passOut{rec: rec, nativeVT: r.nativeVT}
	sw := vtime.NewStopwatch(a.node.Clock)
	t0 := time.Now()
	for _, app := range r.order {
		env := &apps.Env{API: a.api, DeviceMask: ocl.DeviceTypeGPU, Scale: r.sz.suiteScale, Verify: true}
		res, err := app.Run(env)
		out.checks.ok(app.Name+": "+fmt.Sprint(err), err == nil)
		if err == nil && app.HasKernel {
			out.checks.ok(app.Name+": result not verified", res.Verified)
		}
	}
	out.wall = time.Since(t0)
	out.vtime = sw.Elapsed()
	out.px = a.proxyStats()
	return out, nil
}

func (r *suiteRunner) finish(*passOut) error { return nil }
func (r *suiteRunner) close()                {}

// ---- call_storm ----

const stormSrc = `
__kernel void saxpy(__global float* a, __global const float* b, float s, int n) {
    int i = (int)get_global_id(0);
    if (i < n) a[i] = a[i] * s + b[i];
}`

const (
	stormItems    = 8       // global = local = 8: the kernel itself is negligible
	stormBufBytes = 4 << 10 // both buffers, and every transfer
	stormBlocks   = 16      // distinct seeded 4 KiB blocks the writes cycle through
)

type stormRunner struct {
	sz       sizes
	initA    []byte
	blocks   [][]byte
	want     stormState // what the native run left behind
	nativeVT vtime.Duration
}

// stormState is what a pass leaves behind for the cross-arm check.
type stormState struct {
	a, b []byte // final contents of both buffers
	crc  uint32 // CRC over every 4 KiB read, in order
}

// setupStorm generates the buffers and runs the loop once on the bare
// runtime: its virtual time is the base of the overhead figure, its final
// state the reference every pass is compared with.
func setupStorm(sz sizes, seed uint64) (runner, error) {
	g := &rng{s: seed}
	r := &stormRunner{sz: sz, initA: make([]byte, stormBufBytes)}
	g.fillFloats(r.initA)
	for i := 0; i < stormBlocks; i++ {
		b := make([]byte, stormBufBytes)
		g.fillFloats(b)
		r.blocks = append(r.blocks, b)
	}
	out, ref, err := r.drive(armNative, &recorder{})
	if err != nil {
		return nil, err
	}
	r.want, r.nativeVT = ref, out.vtime
	return r, nil
}

// drive builds the two-buffer program on a fresh arm (untimed), runs the
// timed call loop and reads back the final state.
func (r *stormRunner) drive(kind string, rec *recorder) (passOut, stormState, error) {
	var st stormState
	out := passOut{rec: rec, nativeVT: r.nativeVT}
	fail := func(err error) (passOut, stormState, error) {
		return out, st, fmt.Errorf("call_storm: %s arm: %w", kind, err)
	}
	a, err := newArm(kind, newNode("storm"), core.Options{}, rec)
	if err != nil {
		return fail(err)
	}
	defer a.close()
	api := a.api
	s, err := openSession(api, stormSrc, "saxpy")
	if err != nil {
		return fail(err)
	}
	bufA, err := api.CreateBuffer(s.ctx, ocl.MemReadWrite|ocl.MemCopyHostPtr, stormBufBytes, r.initA)
	if err != nil {
		return fail(err)
	}
	bufB, err := api.CreateBuffer(s.ctx, ocl.MemReadOnly|ocl.MemCopyHostPtr, stormBufBytes, r.blocks[0])
	if err != nil {
		return fail(err)
	}
	argA, argB := u64(uint64(bufA)), u64(uint64(bufB))
	argS, argN := u32(math.Float32bits(0.5)), u32(stormItems)
	size := [3]int{stormItems}

	// Errors inside the loop are counted by the decorator and surface as
	// a failed cross-arm check; the loop itself keeps going so a pass
	// always does the same number of calls.
	sw := vtime.NewStopwatch(a.node.Clock)
	t0 := time.Now()
	for i := 0; i < r.sz.stormIters; i++ {
		_ = api.SetKernelArg(s.kern, 0, 8, argA)
		_ = api.SetKernelArg(s.kern, 1, 8, argB)
		_ = api.SetKernelArg(s.kern, 2, 4, argS)
		_ = api.SetKernelArg(s.kern, 3, 4, argN)
		_, _ = api.EnqueueNDRangeKernel(s.q, s.kern, 1, [3]int{}, size, size, nil)
		if i%4 == 3 {
			_, _ = api.EnqueueWriteBuffer(s.q, bufB, false, 0, r.blocks[(i/4)%stormBlocks], nil)
			got, _, _ := api.EnqueueReadBuffer(s.q, bufA, true, 0, stormBufBytes, nil)
			st.crc = crc32.Update(st.crc, crc32.IEEETable, got)
			_, _ = api.GetDeviceInfo(s.dev)
			_ = api.Finish(s.q)
		}
	}
	out.wall = time.Since(t0)
	out.vtime = sw.Elapsed()
	out.px = a.proxyStats()
	if st.a, _, err = api.EnqueueReadBuffer(s.q, bufA, true, 0, stormBufBytes, nil); err != nil {
		return fail(err)
	}
	if st.b, _, err = api.EnqueueReadBuffer(s.q, bufB, true, 0, stormBufBytes, nil); err != nil {
		return fail(err)
	}
	return out, st, nil
}

func (r *stormRunner) pass(kind string, rec *recorder) (passOut, error) {
	out, st, err := r.drive(kind, rec)
	if err != nil {
		return out, err
	}
	out.checks.equal("call_storm buffer a", st.a, r.want.a)
	out.checks.equal("call_storm buffer b", st.b, r.want.b)
	out.checks.ok("call_storm read checksum differs from native", st.crc == r.want.crc)
	return out, nil
}

func (r *stormRunner) finish(*passOut) error { return nil }
func (r *stormRunner) close()                {}
