package core

import (
	"bytes"
	"errors"
	"testing"

	"checl/internal/ipc"
	"checl/internal/ocl"
	"checl/internal/proxy"
)

// TestBatchCoalescesRoundTrips: a run of non-blocking enqueues plus the
// closing clFinish costs ONE wire call, at least 2x fewer than the same
// calls cost through a bare proxy.Client, which forwards each on its own.
func TestBatchCoalescesRoundTrips(t *testing.T) {
	const iters = 10
	data := make([]byte, 4*64)
	for i := 0; i < 64; i++ {
		copy(data[4*i:], f32bytes(float32(i)))
	}
	loop := func(api ocl.API, app *vaddApp) {
		for i := 0; i < iters; i++ {
			if _, err := api.EnqueueWriteBuffer(app.q, app.a, false, 0, data, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := api.EnqueueWriteBuffer(app.q, app.b, false, 0, data, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := api.EnqueueNDRangeKernel(app.q, app.k, 1, [3]int{}, [3]int{64}, [3]int{64}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := api.Finish(app.q); err != nil {
			t.Fatal(err)
		}
	}

	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 64)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	before := c.px.Client.Stats()
	loop(c, app)
	after := c.px.Client.Stats()
	queued := after.Calls - before.Calls

	bareNode := newNodeNV("pc1")
	px, err := proxy.Spawn(bareNode.Spawn("bare"), bareNode.Vendors[0])
	if err != nil {
		t.Fatal(err)
	}
	defer px.Kill()
	bareApp := setupVaddApp(t, px.Client, 64)
	bareBefore := px.Client.Stats().Calls
	loop(px.Client, bareApp)
	bare := px.Client.Stats().Calls - bareBefore

	if queued != 1 {
		t.Errorf("queued run cost %d wire calls; want 1 (3*%d enqueues + finish in one frame)", queued, iters)
	}
	if bare < 2*queued {
		t.Errorf("round-trip reduction below 2x: bare client=%d queued=%d", bare, queued)
	}
	if got := after.Batched - before.Batched; got != int64(3*iters+1) {
		t.Errorf("batched-command counter moved by %d, want %d", got, 3*iters+1)
	}
	if n := c.PendingBatch(); n != 0 {
		t.Errorf("%d commands still pending after clFinish", n)
	}
	app.verify(t)
}

// TestBatchDeferredErrorAttribution: a batched command that fails on the
// device surfaces at the next sync point as a *BatchError naming the
// originating entry point and its index, commands before it executed,
// and commands after it never ran.
func TestBatchDeferredErrorAttribution(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 64)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	size := int64(4 * app.n)
	first := bytes.Repeat([]byte{0xAA}, int(size))
	second := bytes.Repeat([]byte{0xBB}, int(size))

	// Index 0: valid write. Index 1: out-of-bounds write (the runtime
	// rejects it with CL_INVALID_VALUE). Index 2: a write that must
	// never execute. Index 3: the flushing clFinish.
	if _, err := c.EnqueueWriteBuffer(app.q, app.c, false, 0, first, nil); err != nil {
		t.Fatalf("valid deferred write returned eagerly: %v", err)
	}
	if _, err := c.EnqueueWriteBuffer(app.q, app.c, false, size, []byte{1, 2, 3, 4}, nil); err != nil {
		t.Fatalf("deferred out-of-bounds write must not fail at the call: %v", err)
	}
	if _, err := c.EnqueueWriteBuffer(app.q, app.c, false, 0, second, nil); err != nil {
		t.Fatal(err)
	}

	err := c.Finish(app.q)
	if err == nil {
		t.Fatal("clFinish swallowed the deferred error")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("deferred error type = %T (%v), want *BatchError", err, err)
	}
	if be.Method != "clEnqueueWriteBuffer" {
		t.Errorf("attributed method = %q, want clEnqueueWriteBuffer", be.Method)
	}
	if be.Index != 1 {
		t.Errorf("attributed index = %d, want 1", be.Index)
	}
	var oe *ocl.Error
	if !errors.As(err, &oe) {
		t.Fatalf("BatchError does not unwrap to *ocl.Error: %v", err)
	}
	if _, status, _ := oe.ErrorCode(); status != int32(ocl.InvalidValue) {
		t.Errorf("deferred status = %d, want CL_INVALID_VALUE", status)
	}

	// Partial execution: index 0 ran, index 2 did not.
	out, _, err := c.EnqueueReadBuffer(app.q, app.c, true, 0, size, nil)
	if err != nil {
		t.Fatalf("read after deferred error: %v", err)
	}
	if !bytes.Equal(out, first) {
		t.Errorf("buffer does not hold the pre-error write: got %x... want %x...", out[:4], first[:4])
	}
}

// TestBatchDeferredReadError: a terminal read is itself part of the
// batch; its failure carries read attribution, not clFinish.
func TestBatchDeferredReadError(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 64)

	_, _, err := c.EnqueueReadBuffer(app.q, app.c, true, int64(4*app.n), 16, nil)
	if err == nil {
		t.Fatal("out-of-bounds batched read succeeded")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("read error type = %T (%v), want *BatchError", err, err)
	}
	if be.Method != "clEnqueueReadBuffer" {
		t.Errorf("attributed method = %q, want clEnqueueReadBuffer", be.Method)
	}

	// The queue is still usable afterwards.
	app.launch(t)
	app.verify(t)
}

// TestBatchDeferredErrorUnderFaults: the deferred-error contract holds
// under the seeded kill plan — crashes during the flush are retried or
// failed over, and the surviving error still names the right command.
func TestBatchDeferredErrorUnderFaults(t *testing.T) {
	node := newNodeNV("pc0")
	inj := ipc.NewFaultInjector(faultKillPlan(7, 3))
	_, c := attach(t, node, Options{
		AutoFailover: true,
		Shadow:       ShadowFull,
		Fault:        inj,
	})
	app := setupVaddApp(t, c, 64)
	size := int64(4 * app.n)
	data := bytes.Repeat([]byte{0xCC}, int(size))

	// Healthy batched traffic first, so faults land mid-stream.
	for i := 0; i < 4; i++ {
		if _, err := c.EnqueueWriteBuffer(app.q, app.a, false, 0, data, nil); err != nil {
			t.Fatal(err)
		}
		app.launch(t)
		if err := c.Finish(app.q); err != nil {
			t.Fatalf("fault-free batch %d under injection: %v", i, err)
		}
	}

	if _, err := c.EnqueueWriteBuffer(app.q, app.c, false, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnqueueWriteBuffer(app.q, app.c, false, size, []byte{9}, nil); err != nil {
		t.Fatal(err)
	}
	err := c.Finish(app.q)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("deferred error under faults = %T (%v), want *BatchError", err, err)
	}
	if be.Method != "clEnqueueWriteBuffer" || be.Index != 1 {
		t.Errorf("attribution under faults = %s[%d], want clEnqueueWriteBuffer[1]", be.Method, be.Index)
	}
	if inj.Injected() == 0 {
		t.Error("fault plan never fired; test proves nothing about crash interplay")
	}

	// And the pre-error write survived the chaos.
	out, _, err := c.EnqueueReadBuffer(app.q, app.c, true, 0, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Error("pre-error write lost under fault plan")
	}
}
