package proxy

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"checl/internal/hw"
	"checl/internal/ipc"
	"checl/internal/ocl"
	"checl/internal/proc"
)

// spawnFaulted spawns a proxy on the framed transport, where the plan's
// kill kinds cut the stream at byte positions inside a frame. Their ring
// analogues are covered by the ring's own tests and the core parity soak.
func spawnFaulted(t *testing.T, plan ipc.FaultPlan) (*proc.Node, *Proxy, *ipc.FaultInjector) {
	t.Helper()
	node := proc.NewNode("pc0", hw.TableISpec(), ocl.NVIDIA())
	app := node.Spawn("app")
	inj := ipc.NewFaultInjector(plan)
	px, err := SpawnWithOptions(app, node.Vendors[0], SpawnOpts{Transport: TransportPipe, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Kill)
	return node, px, inj
}

// TestFaultRetryTransparent: connection kills (the proxy process survives)
// are absorbed by the client's reconnect-and-retry loop — the API caller
// never sees an error, and the server's dedupe cache answers retries of
// mutating calls whose response was lost. Its second half loses exactly
// the reply to a clCreateBuffer, on both transports.
func TestFaultRetryTransparent(t *testing.T) {
	t.Run("seeded", testFaultRetrySeeded)
	t.Run("lost-create-reply/framed", func(t *testing.T) { testFaultRetryLostCreate(t, TransportPipe) })
	t.Run("lost-create-reply/ring", func(t *testing.T) { testFaultRetryLostCreate(t, TransportRing) })
	t.Run("replay-after-later-calls", testReplayAfterLaterCalls)
}

// testReplayAfterLaterCalls: the replay cache keeps a reply by reference,
// so a reply must own its bytes. A clCreateBuffer is re-sent under its
// sequence number after other calls were answered, and the cache still
// answers with the handle it first returned.
func testReplayAfterLaterCalls(t *testing.T) {
	_, _, px := spawnNV(t)
	f := setupBatchFixture(t, px, 64)
	ring := ipc.NewRing(px.server, nil)
	go ring.Serve()
	defer ring.Close()
	send := func(seq uint64, op BatchOp, args ...uint64) uint64 {
		t.Helper()
		rec := appendRecord(startFrame(nil), op, false, nil, nil, nil, args...)
		seal(rec, 1)
		var reply *[]byte
		if _, _, err := ring.CallRaw(route, seq, &request{Recs: rec}, nil, &reply, nil); err != nil {
			t.Fatal(err)
		}
		ev := make([]ocl.Event, 1)
		resp, _, err := decodeReply(*reply, ev)
		if err != nil || resp.ErrIdx >= 0 {
			t.Fatalf("%s: %v %+v", op.Method(), err, resp)
		}
		return uint64(ev[0])
	}
	ctx, err := f.api.GetCommandQueueInfo(f.q)
	if err != nil {
		t.Fatal(err)
	}
	const seq = 1 << 40 // far from the client's own sequence numbers
	m := send(seq, opCreateBuffer, uint64(ctx.Context), uint64(ocl.MemReadWrite), 4096)
	for i := uint64(1); i <= 4; i++ {
		send(seq+i, opCreateBuffer, uint64(ctx.Context), uint64(ocl.MemReadWrite), 64)
	}
	replayed := px.Replayed()
	if again := send(seq, opCreateBuffer, uint64(ctx.Context), uint64(ocl.MemReadWrite), 4096); again != m || px.Replayed() != replayed+1 {
		t.Fatalf("replay answered %#x (replayed %d more), first answer %#x", again, px.Replayed()-replayed, m)
	}
}

// testFaultRetryLostCreate: the reply to a clCreateBuffer the proxy ran is
// lost; the retry is answered from the dedupe cache with the same handle,
// and the runtime holds one buffer, not two. Its device memory in use,
// which the runtime reports when an allocation cannot fit, counts them.
func testFaultRetryLostCreate(t *testing.T, tr Transport) {
	node := proc.NewNode("pc0", hw.TableISpec(), ocl.NVIDIA())
	inj := ipc.NewFaultInjector(ipc.FaultPlan{
		EveryN: 1, SkipFirst: 3, Max: 1, // the fourth call: clCreateBuffer
		Kinds: []ipc.FaultKind{ipc.FaultKillBeforeResponse},
	})
	px, err := SpawnWithOptions(node.Spawn("app"), node.Vendors[0], SpawnOpts{Transport: tr, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Kill)
	api := px.Client
	plats, err := api.GetPlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	devs, err := api.GetDeviceIDs(plats[0], ocl.DeviceTypeGPU)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CreateContext(devs[:1])
	if err != nil {
		t.Fatal(err)
	}
	m, err := api.CreateBuffer(ctx, ocl.MemReadWrite, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev := inj.Events(); len(ev) != 1 || ev[0].Call != 4 {
		t.Fatalf("fault events %v, want one on call 4", ev)
	}
	if n := awaitReplays(px, 1); n != 1 || api.Stats().Retries != 1 {
		t.Fatalf("replayed %d, retried %d; want one delivery answered from the cache", n, api.Stats().Retries)
	}
	// Later calls must not disturb what the cache answered.
	q, err := api.CreateCommandQueue(ctx, devs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := api.ReleaseCommandQueue(q); err != nil {
		t.Fatal(err)
	}
	info, err := api.GetMemObjectInfo(m)
	if err != nil || info.Size != 4096 || info.RefCount != 1 {
		t.Fatalf("the replayed handle names %+v (%v), want one 4096-byte buffer", info, err)
	}
	dev, err := api.GetDeviceInfo(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = api.CreateBuffer(ctx, ocl.MemReadWrite, dev.GlobalMemSize, nil)
	if want := fmt.Sprintf("(4096 of %d in use)", dev.GlobalMemSize); ocl.StatusOf(err) != ocl.MemObjectAllocFailure || !strings.Contains(err.Error(), want) {
		t.Fatalf("device memory: %v; want %s: one buffer, not two", err, want)
	}
}

func testFaultRetrySeeded(t *testing.T) {
	_, px, inj := spawnFaulted(t, ipc.FaultPlan{
		Seed:      7,
		EveryN:    4,
		SkipFirst: 2,
	})
	api := px.Client

	plats, err := api.GetPlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	devs, err := api.GetDeviceIDs(plats[0], ocl.DeviceTypeGPU)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := api.CreateCommandQueue(ctx, devs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := api.CreateBuffer(ctx, 0, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 4096)
	for i := range want {
		want[i] = byte(i * 7)
	}
	// Plenty of faulted round trips.
	for i := 0; i < 30; i++ {
		if _, err := api.EnqueueWriteBuffer(q, buf, true, 0, want, nil); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	got, _, err := api.EnqueueReadBuffer(q, buf, true, 0, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %d, want %d (faults corrupted data)", i, got[i], want[i])
		}
	}

	st := api.Stats()
	if st.Reconnects < 1 || st.Retries < 1 {
		t.Errorf("stats = %+v, want at least one reconnect and retry", st)
	}
	if inj.Injected() < 1 {
		t.Fatal("plan injected nothing; test proves nothing")
	}
	// At least one fault should have killed the connection after the server
	// executed a mutating call, forcing a dedupe replay.
	killsAfterExec := 0
	for _, ev := range inj.Events() {
		switch ev.Kind {
		case ipc.FaultKillBeforeResponse, ipc.FaultKillBetween, ipc.FaultKillMidResponse:
			killsAfterExec++
		}
	}
	if killsAfterExec > 0 && awaitReplays(px, 1) == 0 {
		t.Errorf("%d response-side kills but no replayed calls", killsAfterExec)
	}
}

// awaitReplays waits up to five seconds for px to have answered n
// deliveries from its replay cache and returns the count. Both deliveries
// of a retried call reach the server, but on the framed pipe the retry can
// claim the sequence number first, and the killed delivery replays later.
func awaitReplays(px *Proxy, n int64) int64 {
	for deadline := time.Now().Add(5 * time.Second); px.Replayed() < n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return px.Replayed()
}

// TestFaultCrashServerSurfaces: a proxy-process crash is not retryable —
// the error reaches the caller as ErrConnDown and the process is dead
// (core.CheCL's failover is the layer that handles this).
func TestFaultCrashServerSurfaces(t *testing.T) {
	_, px, _ := spawnFaulted(t, ipc.FaultPlan{
		EveryN:    3,
		SkipFirst: 2,
		Max:       1,
		Kinds:     []ipc.FaultKind{ipc.FaultCrashServer},
	})
	api := px.Client

	if _, err := api.GetPlatformIDs(); err != nil {
		t.Fatal(err)
	}
	if _, err := api.GetPlatformIDs(); err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 5 && lastErr == nil; i++ {
		_, lastErr = api.GetPlatformIDs()
	}
	if !errors.Is(lastErr, ipc.ErrConnDown) {
		t.Fatalf("err = %v, want ErrConnDown after proxy crash", lastErr)
	}
	if px.Alive() {
		t.Error("proxy process should be dead after FaultCrashServer")
	}
}

// TestFaultKillDrainsHandlers: Kill while calls are in flight from many
// goroutines must not race the teardown (run under -race) and must leave
// every caller with either a success or a connection-down error.
func TestFaultKillDrainsHandlers(t *testing.T) {
	node := proc.NewNode("pc0", hw.TableISpec(), ocl.NVIDIA())
	app := node.Spawn("app")
	px, err := Spawn(app, node.Vendors[0])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for j := 0; j < 50; j++ {
				if _, errs[i] = px.Client.GetPlatformIDs(); errs[i] != nil {
					return
				}
			}
		}(i)
	}
	close(start)
	px.Kill()
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, ipc.ErrConnDown) {
			t.Errorf("caller %d: unexpected error class: %v", i, err)
		}
	}
	// A second Kill must be a no-op, not a double close panic.
	px.Kill()
}

// TestFaultRedialAfterKillFails: once the proxy is killed, redial must
// refuse and calls must fail instead of hanging.
func TestFaultRedialAfterKillFails(t *testing.T) {
	node := proc.NewNode("pc0", hw.TableISpec(), ocl.NVIDIA())
	app := node.Spawn("app")
	px, err := Spawn(app, node.Vendors[0])
	if err != nil {
		t.Fatal(err)
	}
	px.Kill()
	if _, err := px.Client.GetPlatformIDs(); !errors.Is(err, ipc.ErrConnDown) {
		t.Fatalf("call after Kill = %v, want ErrConnDown", err)
	}
	if _, err := px.dial(); err == nil {
		t.Fatal("dial after Kill should fail")
	}
}
