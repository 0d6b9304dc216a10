package proxy

import (
	"errors"
	"sync"
	"testing"

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
// mutating calls whose response was lost.
func TestFaultRetryTransparent(t *testing.T) {
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
	if killsAfterExec > 0 && px.Replayed() == 0 {
		t.Errorf("%d response-side kills but no replayed calls", killsAfterExec)
	}
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
