package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"checl/internal/cpr"
	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
)

const vaddSrc = `
__kernel void vadd(__global const float* a, __global const float* b,
                   __global float* c, uint n) {
    size_t i = get_global_id(0);
    if (i < n) c[i] = a[i] + b[i];
}
__kernel void scale(__global float* x, float s) {
    x[get_global_id(0)] = x[get_global_id(0)] * s;
}`

func handleBytes[T ~uint64](h T) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(h))
	return b
}

func u32bytes(v uint32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, v)
	return b
}

func f32bytes(v float32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, math.Float32bits(v))
	return b
}

func newNodeNV(name string) *proc.Node {
	return proc.NewNode(name, hw.TableISpec(), ocl.NVIDIA())
}

func newNodeAMD(name string) *proc.Node {
	return proc.NewNode(name, hw.TableISpec(), ocl.AMD())
}

// vaddApp is a minimal OpenCL application driver that works against any
// ocl.API implementation — the vendor runtime or CheCL.
type vaddApp struct {
	api  ocl.API
	n    int
	ctx  ocl.Context
	q    ocl.CommandQueue
	prog ocl.Program
	k    ocl.Kernel
	a, b ocl.Mem
	c    ocl.Mem
	dev  ocl.DeviceID
}

func setupVaddApp(t testing.TB, api ocl.API, n int) *vaddApp {
	t.Helper()
	app := &vaddApp{api: api, n: n}
	plats, err := api.GetPlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	devs, err := api.GetDeviceIDs(plats[0], ocl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	app.dev = devs[0]
	if app.ctx, err = api.CreateContext(devs[:1]); err != nil {
		t.Fatal(err)
	}
	if app.q, err = api.CreateCommandQueue(app.ctx, devs[0], ocl.QueueProfilingEnable); err != nil {
		t.Fatal(err)
	}
	if app.prog, err = api.CreateProgramWithSource(app.ctx, vaddSrc); err != nil {
		t.Fatal(err)
	}
	if err := api.BuildProgram(app.prog, ""); err != nil {
		t.Fatal(err)
	}
	if app.k, err = api.CreateKernel(app.prog, "vadd"); err != nil {
		t.Fatal(err)
	}
	host := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(host[4*i:], math.Float32bits(float32(i)))
	}
	if app.a, err = api.CreateBuffer(app.ctx, ocl.MemReadOnly|ocl.MemCopyHostPtr, int64(4*n), host); err != nil {
		t.Fatal(err)
	}
	if app.b, err = api.CreateBuffer(app.ctx, ocl.MemReadOnly|ocl.MemCopyHostPtr, int64(4*n), host); err != nil {
		t.Fatal(err)
	}
	if app.c, err = api.CreateBuffer(app.ctx, ocl.MemWriteOnly, int64(4*n), nil); err != nil {
		t.Fatal(err)
	}
	for i, h := range []ocl.Mem{app.a, app.b, app.c} {
		if err := api.SetKernelArg(app.k, i, 8, handleBytes(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := api.SetKernelArg(app.k, 3, 4, u32bytes(uint32(n))); err != nil {
		t.Fatal(err)
	}
	return app
}

func (a *vaddApp) launch(t *testing.T) ocl.Event {
	t.Helper()
	ev, err := a.api.EnqueueNDRangeKernel(a.q, a.k, 1, [3]int{}, [3]int{a.n}, [3]int{64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func (a *vaddApp) finish(t *testing.T) {
	t.Helper()
	if err := a.api.Finish(a.q); err != nil {
		t.Fatal(err)
	}
}

func (a *vaddApp) verify(t *testing.T) {
	t.Helper()
	a.finish(t)
	out, _, err := a.api.EnqueueReadBuffer(a.q, a.c, true, 0, int64(4*a.n), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.n; i++ {
		got := math.Float32frombits(binary.LittleEndian.Uint32(out[4*i:]))
		if got != 2*float32(i) {
			t.Fatalf("c[%d] = %v, want %v", i, got, 2*float32(i))
		}
	}
}

func attach(t testing.TB, node *proc.Node, opts Options) (*proc.Process, *CheCL) {
	t.Helper()
	app := node.Spawn("app")
	c, err := Attach(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Detach)
	return app, c
}

func TestTransparentExecution(t *testing.T) {
	node := newNodeNV("pc0")
	appProc, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 256)
	app.launch(t)
	app.verify(t)
	// The application never acquired device mappings: it is
	// checkpointable by BLCR while the OpenCL objects live in the proxy.
	if appProc.DeviceMapped() {
		t.Error("application process acquired device mappings under CheCL")
	}
	// Handles visible to the app are CheCL handles, not real ones.
	if Handle(app.ctx).Class() != "context" {
		t.Errorf("context handle class = %q", Handle(app.ctx).Class())
	}
	if Handle(app.a).Class() != "mem" {
		t.Errorf("mem handle class = %q", Handle(app.a).Class())
	}
	counts := c.ObjectCounts()
	if counts["mem"] != 3 || counts["kernel"] != 1 || counts["prog"] != 1 || counts["cmd_que"] != 1 {
		t.Errorf("object counts = %v", counts)
	}
}

func TestNativeOpenCLProcessIsNotCheckpointable(t *testing.T) {
	// The §II failure CheCL exists to fix: without CheCL, the application
	// process itself loads the vendor library and cannot be checkpointed.
	node := newNodeNV("pc0")
	app := node.Spawn("native-app")
	rt := ocl.NewRuntime(node.Vendors[0], node.Spec, node.Clock)
	app.MapDevice() // loading libOpenCL.so maps the devices
	a := setupVaddApp(t, rt, 64)
	a.launch(t)
	a.verify(t)
	if _, err := (cpr.BLCR{}).Checkpoint(app, node.LocalDisk, "native.ckpt"); err == nil {
		t.Fatal("BLCR should fail on a native OpenCL process")
	}
}

func TestCheckpointPhases(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 1<<16) // 256 KiB per buffer
	app.launch(t)                    // leave an uncompleted kernel in the queue

	st, err := c.Checkpoint(node.LocalDisk, "app.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	// At least one enqueued command was incomplete: sync must cost time.
	if st.Phases.Sync <= 0 {
		t.Error("sync phase should be non-zero with an in-flight kernel")
	}
	if st.DirtyBuffers != 3 || st.DirtyBytes != 3*4<<16 {
		t.Errorf("staged = %d buffers / %d bytes", st.DirtyBuffers, st.DirtyBytes)
	}
	if st.Phases.Preprocess <= 0 {
		t.Error("preprocess (DtoH staging) should cost time")
	}
	if st.FileSize < st.DirtyBytes {
		t.Errorf("file size %d should include the %d staged bytes", st.FileSize, st.DirtyBytes)
	}
	if st.Phases.Write <= 0 {
		t.Error("write phase should cost time")
	}
	// The API-proxy advantage over CheCUDA: postprocess is negligible.
	if st.Phases.Postprocess*20 > st.Phases.Write {
		t.Errorf("postprocess (%v) should be negligible vs write (%v)", st.Phases.Postprocess, st.Phases.Write)
	}
	// The application continues running after the checkpoint.
	app.verify(t)
}

func TestRestartPreservesStateAndHandles(t *testing.T) {
	src := newNodeNV("pc0")
	_, c := attach(t, src, Options{})
	app := setupVaddApp(t, c, 512)
	app.launch(t)
	c.Finish(app.q)
	preEvent := app.launch(t) // an event that must survive as a dummy
	c.Finish(app.q)

	if _, err := c.Checkpoint(src.LocalDisk, "app.ckpt"); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: everything on the source dies.
	c.Proxy().Kill()
	c.App().Kill()

	dst := newNodeNV("pc1")
	// Move the file to the destination's disk (no shared FS here).
	data, err := src.LocalDisk.ReadFile(src.Clock, "app.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	dst.LocalDisk.WriteFile(dst.Clock, "app.ckpt", data)

	rc, rst, err := Restore(dst, dst.LocalDisk, "app.ckpt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Detach()

	// The application resumes with its OLD CheCL handles: the vaddApp
	// struct fields are still valid — only the API implementation changed.
	app.api = rc
	// Buffer contents survived the round trip.
	out, _, err := rc.EnqueueReadBuffer(app.q, app.c, true, 0, int64(4*app.n), nil)
	if err != nil {
		t.Fatalf("read with pre-checkpoint handles: %v", err)
	}
	for i := 0; i < app.n; i++ {
		got := math.Float32frombits(binary.LittleEndian.Uint32(out[4*i:]))
		if got != 2*float32(i) {
			t.Fatalf("restored c[%d] = %v, want %v", i, got, 2*float32(i))
		}
	}
	// The pre-checkpoint event is now a dummy that never blocks.
	if err := rc.WaitForEvents([]ocl.Event{preEvent}); err != nil {
		t.Errorf("wait on pre-checkpoint event after restore: %v", err)
	}
	// Kernels are usable immediately (args were replayed).
	app.launch(t)
	app.verify(t)

	// Fig. 7 structure: mem and prog recreation dominate.
	if rst.PerClass["mem"] <= 0 || rst.PerClass["prog"] <= 0 {
		t.Errorf("per-class restore times = %v", rst.PerClass)
	}
	if rst.Recompile <= 0 {
		t.Error("recompilation time should be non-zero")
	}
	for _, class := range RestoreOrder {
		if _, ok := rst.PerClass[class]; !ok {
			t.Errorf("restore breakdown missing class %q", class)
		}
	}
}

func TestSignalTriggeredImmediateMode(t *testing.T) {
	node := newNodeNV("pc0")
	appProc, c := attach(t, node, Options{
		Mode:     Immediate,
		CkptFS:   node.LocalDisk,
		CkptPath: "sig.ckpt",
	})
	app := setupVaddApp(t, c, 128)
	appProc.Signal(proc.SIGUSR1)
	// Any API call triggers the checkpoint in immediate mode.
	app.launch(t)
	if c.LastCheckpoint() == nil {
		t.Fatal("immediate-mode checkpoint did not fire")
	}
	if !node.LocalDisk.Exists("sig.ckpt") {
		t.Fatal("checkpoint file not written")
	}
	app.verify(t)
}

func TestSignalTriggeredDelayedMode(t *testing.T) {
	node := newNodeNV("pc0")
	appProc, c := attach(t, node, Options{
		Mode:     Delayed,
		CkptFS:   node.LocalDisk,
		CkptPath: "sig.ckpt",
	})
	app := setupVaddApp(t, c, 128)
	appProc.Signal(proc.SIGUSR1)
	// Non-synchronising calls must NOT trigger the checkpoint.
	app.launch(t)
	if c.LastCheckpoint() != nil {
		t.Fatal("delayed-mode checkpoint fired before a sync point")
	}
	// The next synchronisation point takes it.
	app.finish(t)
	if c.LastCheckpoint() == nil {
		t.Fatal("delayed-mode checkpoint did not fire at clFinish")
	}
	app.verify(t)
}

// TestSignalledCheckpointFailureReported: a signal-triggered checkpoint
// has no caller to hand its error to, so a full disk or a missing
// destination must be readable from LastCheckpointError — in both trigger
// modes — and the next checkpoint that succeeds clears it.
func TestSignalledCheckpointFailureReported(t *testing.T) {
	for _, mode := range []Mode{Immediate, Delayed} {
		t.Run(mode.String(), func(t *testing.T) {
			node := newNodeNV("pc0")
			full := proc.NewFS("full", hw.TableISpec().LocalDisk, proc.WithCapacity(1))
			signalled := func(opts Options) *CheCL {
				appProc, c := attach(t, node, opts)
				app := setupVaddApp(t, c, 128)
				appProc.Signal(proc.SIGUSR1)
				app.launch(t)
				app.finish(t)
				app.verify(t)
				return c
			}

			c := signalled(Options{Mode: mode, CkptFS: full, CkptPath: "sig.ckpt"})
			var nospace *proc.ErrNoSpace
			if err := c.LastCheckpointError(); !errors.As(err, &nospace) {
				t.Fatalf("full disk: LastCheckpointError = %v, want a wrapped *proc.ErrNoSpace", err)
			}
			if c.LastCheckpoint() != nil || full.Exists("sig.ckpt") || len(c.App().RegionNames()) != 0 {
				t.Errorf("a checkpoint that could not be written left stats, a file or the staged regions %v", c.App().RegionNames())
			}
			if _, err := c.Checkpoint(node.LocalDisk, "ok.ckpt"); err != nil {
				t.Fatal(err)
			}
			if err := c.LastCheckpointError(); err != nil {
				t.Errorf("a successful checkpoint left LastCheckpointError = %v", err)
			}

			c = signalled(Options{Mode: mode})
			if err := c.LastCheckpointError(); !errors.Is(err, ErrNoCheckpointDestination) {
				t.Errorf("no destination: LastCheckpointError = %v, want ErrNoCheckpointDestination", err)
			}
		})
	}
}

func TestIncrementalCheckpointing(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{Incremental: true})
	app := setupVaddApp(t, c, 1<<12)
	app.launch(t)
	c.Finish(app.q)

	st1, err := c.Checkpoint(node.LocalDisk, "inc1.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if st1.DirtyBuffers != 3 {
		t.Fatalf("first checkpoint staged %d buffers, want 3", st1.DirtyBuffers)
	}
	// No kernel ran since: nothing is dirty, nothing is re-staged.
	st2, err := c.Checkpoint(node.LocalDisk, "inc2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if st2.DirtyBuffers != 0 {
		t.Errorf("second checkpoint staged %d buffers, want 0", st2.DirtyBuffers)
	}
	if !(st2.Phases.Preprocess < st1.Phases.Preprocess) {
		t.Errorf("incremental preprocess (%v) should beat full (%v)", st2.Phases.Preprocess, st1.Phases.Preprocess)
	}
	// The vadd kernel writes only c (per the write-set analysis): after a
	// launch exactly one buffer is dirty.
	app.launch(t)
	c.Finish(app.q)
	st3, err := c.Checkpoint(node.LocalDisk, "inc3.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if st3.DirtyBuffers != 1 {
		t.Errorf("third checkpoint staged %d buffers, want 1 (only the written one)", st3.DirtyBuffers)
	}
	// Restore from the incremental checkpoint still yields correct data.
	c.Proxy().Kill()
	c.App().Kill()
	rc, _, err := Restore(node, node.LocalDisk, "inc3.ckpt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Detach()
	app.api = rc
	app.verify(t)
}

func TestDestructiveModeAblation(t *testing.T) {
	// CheCUDA-style delete-everything checkpointing pays object
	// recreation in postprocess; the API proxy approach does not (§IV-B).
	run := func(destructive bool) PhaseTimes {
		node := newNodeNV("pc0")
		_, c := attach(t, node, Options{Destructive: destructive})
		app := setupVaddApp(t, c, 4096)
		app.launch(t)
		st, err := c.Checkpoint(node.LocalDisk, "d.ckpt")
		if err != nil {
			t.Fatal(err)
		}
		app.verify(t) // both modes must leave the app runnable
		return st.Phases
	}
	keep := run(false)
	destroy := run(true)
	if !(destroy.Postprocess > 10*keep.Postprocess) {
		t.Errorf("destructive postprocess (%v) should dwarf proxy-mode postprocess (%v)",
			destroy.Postprocess, keep.Postprocess)
	}
}

// TestDestructiveFailedCheckpointKeepsProxy: a destructive checkpoint whose
// dump fails (a full disk) returns with a live proxy and every object
// bound, so the application runs on and the next checkpoint succeeds and
// restores bit-identical.
func TestDestructiveFailedCheckpointKeepsProxy(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{Destructive: true})
	app := setupVaddApp(t, c, 1024)
	app.launch(t)
	app.finish(t)
	full := proc.NewFS("full", hw.TableISpec().LocalDisk, proc.WithCapacity(1))
	var nospace *proc.ErrNoSpace
	if _, err := c.Checkpoint(full, "d.ckpt"); !errors.As(err, &nospace) {
		t.Fatalf("checkpoint to a full disk: %v, want a wrapped *proc.ErrNoSpace", err)
	}
	if _, err := c.Checkpoint(node.RAMDisk, "d.ckpt"); err != nil {
		t.Fatalf("checkpoint after a failed one: %v", err)
	}
	app.verify(t)
	want := readBuffers(t, c, app)
	rc, _, err := Restore(node, node.RAMDisk, "d.ckpt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	sameBuffers(t, "not bit-identical after a destructive checkpoint that followed a failed one", rc, app, want)
}

// TestDestructiveCheckpointUnderDMTCP: DMTCP refuses a device mapping
// anywhere in the process tree, so it checkpoints CheCL only when the
// destructive mode kills the proxy before the dump (§V); the restore is
// bit-identical.
func TestDestructiveCheckpointUnderDMTCP(t *testing.T) {
	node := newNodeNV("pc0")
	opts := Options{Destructive: true, Backend: cpr.DMTCP{}}
	_, c := attach(t, node, opts)
	app := setupVaddApp(t, c, 1024)
	app.launch(t)
	app.finish(t)
	if _, err := c.Checkpoint(node.RAMDisk, "dmtcp.ckpt"); err != nil {
		t.Fatalf("destructive checkpoint under DMTCP: %v", err)
	}
	app.verify(t)
	want := readBuffers(t, c, app)
	rc, _, err := Restore(node, node.RAMDisk, "dmtcp.ckpt", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	sameBuffers(t, "not bit-identical after a destructive checkpoint under DMTCP", rc, app, want)
}

func TestBinaryProgramHeuristic(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})

	// Build once from source to obtain a vendor binary.
	app := setupVaddApp(t, c, 64)
	bin, err := c.GetProgramBinary(app.prog)
	if err != nil {
		t.Fatal(err)
	}
	// Create a second program from the binary: CheCL has no source to
	// parse, so clSetKernelArg falls back to the address heuristic.
	prog2, err := c.CreateProgramWithBinary(app.ctx, app.dev, bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BuildProgram(prog2, ""); err != nil {
		t.Fatal(err)
	}
	k2, err := c.CreateKernel(prog2, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range []ocl.Mem{app.a, app.b, app.c} {
		if err := c.SetKernelArg(k2, i, 8, handleBytes(h)); err != nil {
			t.Fatalf("heuristic arg %d: %v", i, err)
		}
	}
	if err := c.SetKernelArg(k2, 3, 4, u32bytes(64)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnqueueNDRangeKernel(app.q, k2, 1, [3]int{}, [3]int{64}, [3]int{64}, nil); err != nil {
		t.Fatalf("launch via heuristic-translated args: %v", err)
	}
	app.verify(t)
}

func TestBinaryProgramHeuristicFalsePositive(t *testing.T) {
	// §III-D: an 8-byte scalar whose value collides with a live CheCL
	// handle is mis-identified as a handle. Document-by-test.
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 64)
	bin, err := c.GetProgramBinary(app.prog)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := c.CreateProgramWithBinary(app.ctx, app.dev, bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BuildProgram(prog2, ""); err != nil {
		t.Fatal(err)
	}
	k2, err := c.CreateKernel(prog2, "scale")
	if err != nil {
		t.Fatal(err)
	}
	// "scale" takes (__global float* x, float s): pass an 8-byte scalar
	// that equals the CheCL handle of buffer a. Without a parsed
	// signature CheCL translates it as if it were a handle.
	collision := handleBytes(app.a)
	if err := c.SetKernelArg(k2, 0, 8, collision); err != nil {
		t.Fatal(err)
	}
	prec, perr := get(c.db.programs, Handle(prog2))
	if perr != nil {
		t.Fatal(perr)
	}
	forwarded, _, err := c.translateArg(prec, "scale", 1, 8, collision)
	if err != nil {
		t.Fatal(err)
	}
	// The false positive: the forwarded bytes differ from what the app
	// passed, because CheCL "translated" an innocent scalar.
	same := true
	for i := range forwarded {
		if forwarded[i] != collision[i] {
			same = false
		}
	}
	if same {
		t.Error("expected the address heuristic to mis-translate a colliding scalar (documented §III-D false positive)")
	}
	// With a parsed signature (source program) the same bytes pass
	// through untouched.
	srcRec, perr := get(c.db.programs, Handle(app.prog))
	if perr != nil {
		t.Fatal(perr)
	}
	forwarded2, _, err := c.translateArg(srcRec, "scale", 1, 8, collision)
	if err != nil {
		t.Fatal(err)
	}
	for i := range forwarded2 {
		if forwarded2[i] != collision[i] {
			t.Fatal("signature-guided translation must not touch scalar bytes")
		}
	}
}

func TestUseHostPtrThroughCheCL(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 64)

	host := make([]byte, 4*64)
	for i := 0; i < 64; i++ {
		binary.LittleEndian.PutUint32(host[4*i:], math.Float32bits(2))
	}
	m, err := c.CreateBuffer(app.ctx, ocl.MemReadWrite|ocl.MemUseHostPtr, int64(len(host)), host)
	if err != nil {
		t.Fatal(err)
	}
	k, err := c.CreateKernel(app.prog, "scale")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetKernelArg(k, 0, 8, handleBytes(m)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetKernelArg(k, 1, 4, f32bytes(3)); err != nil {
		t.Fatal(err)
	}
	// Mutate the host region directly; the kernel must observe it, and
	// the result must be written back into the host region (§III-D cache
	// protocol, with its redundant transfers).
	binary.LittleEndian.PutUint32(host[0:], math.Float32bits(10))
	if _, err := c.EnqueueNDRangeKernel(app.q, k, 1, [3]int{}, [3]int{64}, [3]int{64}, nil); err != nil {
		t.Fatal(err)
	}
	app.finish(t)
	got0 := math.Float32frombits(binary.LittleEndian.Uint32(host[0:]))
	got1 := math.Float32frombits(binary.LittleEndian.Uint32(host[4:]))
	if got0 != 30 || got1 != 6 {
		t.Errorf("host region after kernel = %v, %v; want 30, 6", got0, got1)
	}
}

func TestRefcountReleaseRemovesFromDatabase(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 64)
	if err := c.RetainMemObject(app.a); err != nil {
		t.Fatal(err)
	}
	if err := c.ReleaseMemObject(app.a); err != nil {
		t.Fatal(err)
	}
	if c.ObjectCounts()["mem"] != 3 {
		t.Error("retained object dropped too early")
	}
	if err := c.ReleaseMemObject(app.a); err != nil {
		t.Fatal(err)
	}
	if c.ObjectCounts()["mem"] != 2 {
		t.Error("released object still in database")
	}
	if err := c.ReleaseMemObject(app.a); err == nil {
		t.Error("releasing a dead CheCL handle must fail")
	}
}

func TestCheCLErrorsOnForeignHandles(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	if _, err := c.CreateCommandQueue(ocl.Context(12345), 0, 0); ocl.StatusOf(err) != ocl.InvalidContext {
		t.Errorf("foreign context: %v", err)
	}
	if err := c.Finish(ocl.CommandQueue(999)); ocl.StatusOf(err) != ocl.InvalidCommandQueue {
		t.Errorf("foreign queue: %v", err)
	}
	if err := c.ReleaseEvent(ocl.Event(7)); ocl.StatusOf(err) != ocl.InvalidEvent {
		t.Errorf("foreign event: %v", err)
	}
}
