package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"checl/internal/apps"
	"checl/internal/ipc"
	"checl/internal/ocl"
)

// faultKillPlan is the seeded "kill the proxy every K calls" mix: every
// connection-kill position plus full proxy crashes.
func faultKillPlan(seed uint64, everyN int) ipc.FaultPlan {
	return ipc.FaultPlan{
		Seed:      seed,
		EveryN:    everyN,
		SkipFirst: 4,
		Kinds: []ipc.FaultKind{
			ipc.FaultKillBeforeRequest,
			ipc.FaultKillMidRequest,
			ipc.FaultKillBeforeResponse,
			ipc.FaultKillBetween,
			ipc.FaultKillMidResponse,
			ipc.FaultCrashServer,
		},
	}
}

// TestFailoverTransparentVadd crashes the proxy process repeatedly under a
// small application: with AutoFailover and ShadowFull the application runs
// to a correct result and never sees an error.
func TestFailoverTransparentVadd(t *testing.T) {
	node := newNodeNV("pc0")
	inj := ipc.NewFaultInjector(ipc.FaultPlan{
		EveryN:    6,
		SkipFirst: 2,
		Max:       4,
		Kinds:     []ipc.FaultKind{ipc.FaultCrashServer},
	})
	_, c := attach(t, node, Options{AutoFailover: true, Shadow: ShadowFull, Fault: inj})
	app := setupVaddApp(t, c, 256)
	app.launch(t)
	app.verify(t)

	fs := c.FailoverStats()
	if fs.Failovers < 1 {
		t.Fatalf("no failover happened (injected %d faults); test proves nothing", inj.Injected())
	}
	if fs.ReplayedCalls <= 0 {
		t.Error("failover recorded no rebind replay calls")
	}
	if fs.LastRecovery <= 0 || fs.TotalRecovery < fs.LastRecovery {
		t.Errorf("recovery times inconsistent: last=%v total=%v", fs.LastRecovery, fs.TotalRecovery)
	}
}

// TestFailoverShadowPolicies documents the shadow-policy contract: after a
// proxy crash between a kernel launch and the read of its result,
// ShadowFull restores the computed data while ShadowNone restores zeros
// (the data died with the proxy's device memory).
func TestFailoverShadowPolicies(t *testing.T) {
	run := func(policy ShadowPolicy) []byte {
		node := newNodeNV("pc0")
		_, c := attach(t, node, Options{AutoFailover: true, Shadow: policy})
		app := setupVaddApp(t, c, 64)
		app.launch(t)
		if err := c.Finish(app.q); err != nil {
			t.Fatal(err)
		}
		// Simulate a proxy crash after the launch completed.
		c.Proxy().Kill()
		out, _, err := c.EnqueueReadBuffer(app.q, app.c, true, 0, int64(4*app.n), nil)
		if err != nil {
			t.Fatalf("%v read after crash: %v", policy, err)
		}
		if c.FailoverStats().Failovers != 1 {
			t.Fatalf("%v: failovers = %d, want 1", policy, c.FailoverStats().Failovers)
		}
		return out
	}

	full := run(ShadowFull)
	for i := 0; i < len(full)/4; i++ {
		got := binary.LittleEndian.Uint32(full[4*i:])
		want := f32bytes(2 * float32(i))
		if got != binary.LittleEndian.Uint32(want) {
			t.Fatalf("ShadowFull lost data: word %d = %#x", i, got)
		}
	}

	none := run(ShadowNone)
	for i, b := range none {
		if b != 0 {
			t.Fatalf("ShadowNone byte %d = %d; expected the documented zero-fill loss", i, b)
		}
	}
}

// TestFailoverEventWaitLists: events created before a crash are rebound as
// dummy markers; an enqueue retried after failover must wait on the
// rebound events without error.
func TestFailoverEventWaitLists(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{AutoFailover: true, Shadow: ShadowFull})
	app := setupVaddApp(t, c, 64)
	ev := app.launch(t)
	if err := c.Finish(app.q); err != nil {
		t.Fatal(err)
	}
	c.Proxy().Kill()
	// This read waits on a pre-crash event: the forward closure must
	// translate it to the rebound dummy marker, not the stale real handle.
	if _, _, err := c.EnqueueReadBuffer(app.q, app.c, true, 0, int64(4*app.n), []ocl.Event{ev}); err != nil {
		t.Fatalf("read waiting on pre-crash event: %v", err)
	}
	if c.FailoverStats().Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", c.FailoverStats().Failovers)
	}
}

// TestFailoverCheckpointAfterCrash: a checkpoint taken right after a
// failover must still capture correct buffer contents.
func TestFailoverCheckpointAfterCrash(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{AutoFailover: true, Shadow: ShadowFull})
	app := setupVaddApp(t, c, 64)
	app.launch(t)
	if err := c.Finish(app.q); err != nil {
		t.Fatal(err)
	}
	c.Proxy().Kill()
	if _, err := c.Checkpoint(node.LocalDisk, "postcrash.ckpt"); err != nil {
		t.Fatal(err)
	}
	nc, _, err := Restore(node, node.LocalDisk, "postcrash.ckpt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Detach()
	out, _, err := nc.EnqueueReadBuffer(app.q, app.c, true, 0, int64(4*app.n), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < app.n; i++ {
		want := binary.LittleEndian.Uint32(f32bytes(2 * float32(i)))
		if got := binary.LittleEndian.Uint32(out[4*i:]); got != want {
			t.Fatalf("restored c[%d] = %#x, want %#x", i, got, want)
		}
	}
}

// memDigests reads back every live buffer (injection suspended) and hashes
// its contents, keyed by the stable CheCL handle.
func memDigests(t *testing.T, c *CheCL) map[Handle]string {
	t.Helper()
	// The reads below go straight to the proxy client, bypassing the batch
	// queue — flush any deferred enqueues first so they are visible.
	if err := c.Drain(); err != nil {
		t.Fatalf("draining batch before digest: %v", err)
	}
	if c.opts.Fault != nil {
		c.opts.Fault.Suspend()
		defer c.opts.Fault.Resume()
	}
	out := map[Handle]string{}
	for _, m := range c.db.orderedMems() {
		q := c.anyQueueFor(m.Ctx)
		if q == nil {
			out[m.H] = fmt.Sprintf("unreadable:%d", m.Size)
			continue
		}
		data, _, err := c.px.Client.EnqueueReadBuffer(q.real, m.real, true, 0, m.Size, nil)
		if err != nil {
			t.Fatalf("reading back %v: %v", m.H, err)
		}
		sum := sha256.Sum256(data)
		out[m.H] = hex.EncodeToString(sum[:8])
	}
	return out
}

// runAppDigest runs one benchmark app under CheCL (optionally fault
// injected) and returns the digest of every live buffer.
func runAppDigest(t *testing.T, a apps.App, scale float64, inj *ipc.FaultInjector, batch bool) map[Handle]string {
	t.Helper()
	node := newNodeNV("pc0")
	app := node.Spawn(a.Name)
	opts := Options{AutoFailover: true, Shadow: ShadowFull, Fault: inj}
	c, err := Attach(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	if !batch {
		c.queueDepth = 1 // every command in a frame of its own
	}
	env := &apps.Env{API: c, DeviceMask: ocl.DeviceTypeGPU, Scale: scale}
	if _, err := a.Run(env); err != nil {
		t.Fatalf("%s under faults: %v", a.Name, err)
	}
	return memDigests(t, c)
}

// TestFaultAppsBitIdentical is the acceptance soak: every benchmark app
// runs to completion under the seeded kill-every-K plan, and its final
// buffer contents are bit-identical to a fault-free run. Both the
// classic one-call-per-enqueue path and the batched hot path must hold
// the bit-identical guarantee.
func TestFaultAppsBitIdentical(t *testing.T) {
	scale := 0.2
	everyN := 40
	if testing.Short() {
		everyN = 80
	}
	for _, batch := range []bool{false, true} {
		batch := batch
		name := "unbatched"
		if batch {
			name = "batched"
		}
		t.Run(name, func(t *testing.T) {
			for _, a := range apps.All() {
				a := a
				t.Run(a.Name, func(t *testing.T) {
					clean := runAppDigest(t, a, scale, nil, batch)
					inj := ipc.NewFaultInjector(faultKillPlan(2026, everyN))
					faulted := runAppDigest(t, a, scale, inj, batch)
					if len(clean) != len(faulted) {
						t.Fatalf("object count diverged: clean=%d faulted=%d", len(clean), len(faulted))
					}
					for h, want := range clean {
						if got, ok := faulted[h]; !ok {
							t.Errorf("buffer %v missing from faulted run", h)
						} else if got != want {
							t.Errorf("buffer %v contents diverged: %s vs %s", h, got, want)
						}
					}
					if inj.Injected() == 0 {
						t.Logf("note: %s made too few calls to trigger the plan", a.Name)
					}
				})
			}
		})
	}
}
