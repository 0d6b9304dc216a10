package core

import (
	"bytes"
	"errors"
	"testing"

	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
)

// stormLoop is the call_storm shape: per iteration four clSetKernelArg
// and a launch; every fourth iteration a 4 KiB non-blocking write, a
// blocking read and a clFinish. It returns every read's data, in order.
func stormLoop(t testing.TB, api ocl.API, app *vaddApp, iters int, block []byte) [][]byte {
	t.Helper()
	var reads [][]byte
	n := u32bytes(uint32(app.n))
	args := [][]byte{handleBytes(app.a), handleBytes(app.b), handleBytes(app.c), n}
	for i := 0; i < iters; i++ {
		for j, v := range args {
			if err := api.SetKernelArg(app.k, j, int64(len(v)), v); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := api.EnqueueNDRangeKernel(app.q, app.k, 1, [3]int{}, [3]int{app.n}, [3]int{64}, nil); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			block[0] = byte(i)
			if _, err := api.EnqueueWriteBuffer(app.q, app.b, false, 0, block, nil); err != nil {
				t.Fatal(err)
			}
			got, _, err := api.EnqueueReadBuffer(app.q, app.c, true, 0, int64(len(block)), nil)
			if err != nil {
				t.Fatal(err)
			}
			reads = append(reads, append([]byte(nil), got...))
			if err := api.Finish(app.q); err != nil {
				t.Fatal(err)
			}
		}
	}
	return reads
}

// TestQueueCallStormCounts gates the round-trip half of the hot-path
// claim where no clock is involved: a call_storm-shaped loop pays a wire
// call per sync point, not per API call, and computes what the bare
// runtime computes.
func TestQueueCallStormCounts(t *testing.T) {
	const iters, n = 64, 1024 // 4 KiB buffers
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, n)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	before := c.Proxy().Client.Stats()
	got := stormLoop(t, c, app, iters, make([]byte, 4*n))
	after := c.Proxy().Client.Stats()

	groups := int64(iters / 4)
	if calls := after.Calls - before.Calls; calls > 3*groups {
		t.Errorf("%d wire calls for %d groups of 4 iterations; want <= 3 per group", calls, groups)
	}
	if batched := after.Batched - before.Batched; batched < 21*groups {
		t.Errorf("%d commands rode frames for %d groups; want >= 21 per group", batched, groups)
	}

	refNode := newNodeNV("ref")
	rt := ocl.NewRuntime(refNode.Vendors[0], refNode.Spec, refNode.Clock)
	ref := setupVaddApp(t, rt, n)
	want := stormLoop(t, rt, ref, iters, make([]byte, 4*n))
	if len(got) != len(want) {
		t.Fatalf("%d reads under CheCL, %d on the bare runtime", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("read %d differs from the bare runtime", i)
		}
	}
	for _, m := range []struct {
		name     string
		got, ref ocl.Mem
	}{{"a", app.a, ref.a}, {"b", app.b, ref.b}, {"c", app.c, ref.c}} {
		g, _, err := c.EnqueueReadBuffer(app.q, m.got, true, 0, 4*n, nil)
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := rt.EnqueueReadBuffer(ref.q, m.ref, true, 0, 4*n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("final buffer %s differs from the bare runtime", m.name)
		}
	}
}

// TestQueueSteadyStateAllocs gates the allocation half: queueing a
// clSetKernelArg or a launch allocates (almost) nothing — the commands sit
// by value in a reused slice — and the capacity flushes the loop runs into
// are amortised over the commands they carry.
func TestQueueSteadyStateAllocs(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 64)
	n := u32bytes(uint32(app.n))
	args := [][]byte{handleBytes(app.a), handleBytes(app.b), handleBytes(app.c), n}
	const callsPerRun = 5
	run := func() {
		for j, v := range args {
			if err := c.SetKernelArg(app.k, j, int64(len(v)), v); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.EnqueueNDRangeKernel(app.q, app.k, 1, [3]int{}, [3]int{app.n}, [3]int{64}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*maxQueueCmds/callsPerRun; i++ {
		run() // warm the queue, its arenas and the frame past their first growth
	}
	perCall := testing.AllocsPerRun(400, run) / callsPerRun
	t.Logf("%.2f allocations per queued call", perCall)
	if perCall > 2 {
		t.Errorf("%.2f allocations per queued call; want <= 2", perCall)
	}
	app.verify(t)
}

// TestQueueCapacityFlushErrorDropsCommandCleanly: when the capacity flush
// in front of a command delivers an earlier command's deferred error, the
// current command is dropped — and must leave nothing behind: no shadow
// bytes, no dirty mark, no event record. Otherwise a later failover
// re-uploads data the device never received.
func TestQueueCapacityFlushErrorDropsCommandCleanly(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{AutoFailover: true})
	app := setupVaddApp(t, c, 64)
	size := int64(4 * app.n)
	old := bytes.Repeat([]byte{0x11}, int(size))
	if _, err := c.EnqueueWriteBuffer(app.q, app.a, true, 0, old, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnqueueCopyBuffer(app.q, app.a, app.b, 0, 0, size, nil); err != nil {
		t.Fatal(err)
	}
	app.finish(t)

	// One queued command that will fail at the runtime, then a depth that
	// makes the very next command flush it first.
	if _, err := c.EnqueueWriteBuffer(app.q, app.c, false, size, []byte{1, 2, 3, 4}, nil); err != nil {
		t.Fatalf("out-of-bounds write must fail at the flush, not the call: %v", err)
	}
	c.queueDepth = 1
	events := len(c.db.events)

	dropped := bytes.Repeat([]byte{0xEE}, int(size))
	var be *BatchError
	if _, err := c.EnqueueWriteBuffer(app.q, app.a, false, 0, dropped, nil); !errors.As(err, &be) {
		t.Fatalf("write behind a failing capacity flush returned %v, want the deferred *BatchError", err)
	}
	if _, err := c.EnqueueCopyBuffer(app.q, app.c, app.b, 0, 0, size, nil); err != nil {
		t.Fatal(err) // queues behind nothing: the failed frame is gone
	}
	c.queueDepth = 0
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.db.events); got != events+1 {
		t.Errorf("%d event records after one dropped and one queued command, want %d", got, events+1)
	}

	// Fail over: the rebind re-uploads the shadows. Device and shadow must
	// both still hold the last write the device actually received.
	c.Proxy().Kill()
	got, _, err := c.EnqueueReadBuffer(app.q, app.a, true, 0, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.FailoverStats().Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", c.FailoverStats().Failovers)
	}
	if !bytes.Equal(got, old) {
		t.Errorf("device buffer after failover holds %#x..., want the pre-drop contents %#x...", got[:4], old[:4])
	}
	arec, err := get(c.db.mems, Handle(app.a))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(arec.Data, got) {
		t.Errorf("shadow %#x... differs from the device %#x... after failover", arec.Data[:4], got[:4])
	}
}

// TestRoundTripCensus pins the round trips each phase of a job's life
// pays: what a frame carries may change, how many frames a phase sends may
// not. A vadd-sized incremental job runs, checkpoints into a 4+2 fleet, is
// killed and restored from it, and migrates through it.
func TestRoundTripCensus(t *testing.T) {
	fl, _ := newTestFleet(t)
	cluster := proc.NewCluster("pc", 3, hw.TableISpec(), func(int) []*ocl.Vendor {
		return []*ocl.Vendor{ocl.NVIDIA()}
	})
	opts := Options{Incremental: true}
	calls := func(c *CheCL) int64 { return c.Proxy().Client.Stats().Calls }
	got := map[string]int64{}

	_, c := attach(t, cluster.Nodes[0], opts)
	app := setupVaddApp(t, c, 1<<10)
	app.launch(t)
	app.verify(t)
	got["attach+run"] = calls(c)

	before := calls(c)
	if _, err := c.CheckpointToStore(fl, "vadd"); err != nil {
		t.Fatal(err)
	}
	got["checkpoint"] = calls(c) - before

	c.App().Kill()
	rc, _, err := RestoreFromStore(cluster.Nodes[1], fl, "vadd", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Detach)
	got["restore"] = calls(rc)

	before = calls(rc)
	mc, _, err := MigrateViaStore(rc, fl, "vadd", cluster.Nodes[2], nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mc.Detach)
	got["migrate: checkpoint"] = calls(rc) - before
	got["migrate: restore"] = calls(mc)

	app.api = mc
	app.verify(t)
	want := map[string]int64{
		"attach+run": 14, "checkpoint": 8, "restore": 18,
		"migrate: checkpoint": 1, "migrate: restore": 18,
	}
	for phase, n := range want {
		if got[phase] != n {
			t.Errorf("%s: %d round trips, want %d", phase, got[phase], n)
		}
	}
}
