package proxy

import (
	"encoding/binary"
	"math"
	"testing"

	"checl/internal/cpr"
	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/vtime"
)

const vaddSrc = `
__kernel void vadd(__global const float* a, __global const float* b,
                   __global float* c, uint n) {
    size_t i = get_global_id(0);
    if (i < n) c[i] = a[i] + b[i];
}`

func spawnNV(t *testing.T) (*proc.Node, *proc.Process, *Proxy) {
	t.Helper()
	return spawnNVWith(t, SpawnOpts{})
}

func spawnNVWith(t *testing.T, opts SpawnOpts) (*proc.Node, *proc.Process, *Proxy) {
	t.Helper()
	node := proc.NewNode("pc0", hw.TableISpec(), ocl.NVIDIA())
	app := node.Spawn("app")
	px, err := SpawnWithOptions(app, node.Vendor("NVIDIA Corporation"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Kill)
	return node, app, px
}

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

func TestSpawnProcessTopology(t *testing.T) {
	node, app, px := spawnNV(t)
	// Two processes: the application and its API proxy child (§III-A).
	if len(node.Processes()) != 2 {
		t.Errorf("processes = %d, want 2", len(node.Processes()))
	}
	if app.DeviceMapped() {
		t.Error("application process must not acquire device mappings")
	}
	if !px.Process.DeviceMapped() {
		t.Error("proxy process must hold the device mappings")
	}
	// Fork cost (~0.08s) charged.
	if node.Clock.Now() < vtime.Time(70*vtime.Millisecond) {
		t.Errorf("proxy fork cost not charged: clock at %v", node.Clock.Now())
	}
	// The application is checkpointable; the proxy is not.
	if _, err := (cpr.BLCR{}).Checkpoint(app, node.LocalDisk, "app.ckpt"); err != nil {
		t.Errorf("BLCR on application process: %v", err)
	}
	if _, err := (cpr.BLCR{}).Checkpoint(px.Process, node.LocalDisk, "px.ckpt"); err == nil {
		t.Error("BLCR on proxy process should fail")
	}
}

func TestEndToEndKernelThroughProxy(t *testing.T) {
	_, _, px := spawnNV(t)
	api := px.Client

	plats, err := api.GetPlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	devs, err := api.GetDeviceIDs(plats[0], ocl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	info, err := api.GetDeviceInfo(devs[0])
	if err != nil || info.Name != "Tesla C1060" {
		t.Fatalf("device info = %+v, %v", info, err)
	}
	ctx, err := api.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := api.CreateCommandQueue(ctx, devs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := api.CreateProgramWithSource(ctx, vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := api.BuildProgram(prog, ""); err != nil {
		t.Fatal(err)
	}
	k, err := api.CreateKernel(prog, "vadd")
	if err != nil {
		t.Fatal(err)
	}

	n := 128
	host := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(host[4*i:], math.Float32bits(float32(i)))
	}
	a, err := api.CreateBuffer(ctx, ocl.MemReadOnly|ocl.MemCopyHostPtr, int64(4*n), host)
	if err != nil {
		t.Fatal(err)
	}
	b, err := api.CreateBuffer(ctx, ocl.MemReadOnly, int64(4*n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := api.EnqueueWriteBuffer(q, b, true, 0, host, nil); err != nil {
		t.Fatal(err)
	}
	cbuf, err := api.CreateBuffer(ctx, ocl.MemWriteOnly, int64(4*n), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range []ocl.Mem{a, b, cbuf} {
		if err := api.SetKernelArg(k, i, 8, handleBytes(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := api.SetKernelArg(k, 3, 4, u32bytes(uint32(n))); err != nil {
		t.Fatal(err)
	}
	ev, err := api.EnqueueNDRangeKernel(q, k, 1, [3]int{}, [3]int{n}, [3]int{64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := api.WaitForEvents([]ocl.Event{ev}); err != nil {
		t.Fatal(err)
	}
	out, _, err := api.EnqueueReadBuffer(q, cbuf, true, 0, int64(4*n), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := math.Float32frombits(binary.LittleEndian.Uint32(out[4*i:]))
		if got != 2*float32(i) {
			t.Fatalf("c[%d] = %v, want %v", i, got, 2*float32(i))
		}
	}

	st := api.Stats()
	if st.Calls < 10 {
		t.Errorf("forwarded calls = %d, want >= 10", st.Calls)
	}
	if st.Bytes < int64(8*n) {
		t.Errorf("forwarded bytes = %d, want at least two buffer payloads", st.Bytes)
	}
}

func TestErrorStatusSurvivesWire(t *testing.T) {
	_, _, px := spawnNV(t)
	_, err := px.Client.CreateContext(nil)
	if got := ocl.StatusOf(err); got != ocl.InvalidValue {
		t.Errorf("status across wire = %v (err %v), want CL_INVALID_VALUE", got, err)
	}
	err = px.Client.BuildProgram(ocl.Program(0xbad), "")
	if got := ocl.StatusOf(err); got != ocl.InvalidProgram {
		t.Errorf("status across wire = %v, want CL_INVALID_PROGRAM", got)
	}
}

func TestForwardingOverheadCharged(t *testing.T) {
	// The proxy makes data transfer strictly slower than direct use of the
	// runtime: extra per-call latency plus a host-to-host copy (§IV-A).
	spec := hw.TableISpec()

	direct := func() vtime.Duration {
		node := proc.NewNode("d", spec, ocl.NVIDIA())
		rt := ocl.NewRuntime(ocl.NVIDIA(), spec, node.Clock)
		plats, _ := rt.GetPlatformIDs()
		devs, _ := rt.GetDeviceIDs(plats[0], ocl.DeviceTypeAll)
		ctx, _ := rt.CreateContext(devs)
		q, _ := rt.CreateCommandQueue(ctx, devs[0], 0)
		m, _ := rt.CreateBuffer(ctx, ocl.MemReadWrite, 32<<20, nil)
		sw := vtime.NewStopwatch(node.Clock)
		if _, err := rt.EnqueueWriteBuffer(q, m, true, 0, make([]byte, 32<<20), nil); err != nil {
			t.Fatal(err)
		}
		return sw.Elapsed()
	}()

	proxied := func() vtime.Duration {
		node := proc.NewNode("p", spec, ocl.NVIDIA())
		app := node.Spawn("app")
		px, err := Spawn(app, node.Vendor("NVIDIA Corporation"))
		if err != nil {
			t.Fatal(err)
		}
		defer px.Kill()
		api := px.Client
		plats, _ := api.GetPlatformIDs()
		devs, _ := api.GetDeviceIDs(plats[0], ocl.DeviceTypeAll)
		ctx, _ := api.CreateContext(devs)
		q, _ := api.CreateCommandQueue(ctx, devs[0], 0)
		m, _ := api.CreateBuffer(ctx, ocl.MemReadWrite, 32<<20, nil)
		sw := vtime.NewStopwatch(node.Clock)
		if _, err := api.EnqueueWriteBuffer(q, m, true, 0, make([]byte, 32<<20), nil); err != nil {
			t.Fatal(err)
		}
		return sw.Elapsed()
	}()

	if !(proxied > direct) {
		t.Errorf("proxied transfer (%v) should exceed direct transfer (%v)", proxied, direct)
	}
	// The overhead should be on the order of the extra memcpy (32MB at
	// 6 GB/s is about 5.3 ms), not a 10x blowup.
	if proxied > 3*direct {
		t.Errorf("proxied transfer (%v) unreasonably slower than direct (%v)", proxied, direct)
	}
}

// TestFramedCallPrice: each call on the framed transport is charged two
// IPCCallLatency plus its frame bytes at the node's host-memcpy bandwidth
// — nothing else.
func TestFramedCallPrice(t *testing.T) {
	node, _, px := spawnNVWith(t, SpawnOpts{Transport: TransportPipe})
	spec := node.Spec
	for i := 0; i < 10; i++ {
		sw, sent := vtime.NewStopwatch(node.Clock), px.Client.Stats().Bytes
		if _, err := px.Client.GetPlatformIDs(); err != nil {
			t.Fatal(err)
		}
		n := px.Client.Stats().Bytes - sent
		if want := 2*spec.IPCCallLatency + spec.Inter.Memcpy.Transfer(n); n == 0 || sw.Elapsed() != want {
			t.Fatalf("call %d moved %d bytes and cost %v, want %v", i, n, sw.Elapsed(), want)
		}
	}
}

func TestTransportString(t *testing.T) {
	if TransportPipe.String() != "pipe" || TransportRing.String() != "ring" {
		t.Error("transport names wrong")
	}
	if (SpawnOpts{}).Transport != TransportRing {
		t.Error("the zero SpawnOpts must select the ring transport")
	}
}

func TestKillStopsProxy(t *testing.T) {
	node, _, px := spawnNV(t)
	px.Kill()
	if px.Alive() {
		t.Error("proxy still alive after Kill")
	}
	if len(node.Processes()) != 1 {
		t.Errorf("processes after kill = %d, want 1 (the app)", len(node.Processes()))
	}
	// Calls after kill fail cleanly.
	if _, err := px.Client.GetPlatformIDs(); err == nil {
		t.Error("call after kill should fail")
	}
	px.Kill() // idempotent
}

func TestSpawnRequiresVendor(t *testing.T) {
	node := proc.NewNode("pc0", hw.TableISpec())
	app := node.Spawn("app")
	if _, err := Spawn(app, nil); err == nil {
		t.Error("Spawn with nil vendor should fail")
	}
}
