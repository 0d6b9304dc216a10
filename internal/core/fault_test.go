package core

import (
	"testing"

	"checl/internal/hw"
	"checl/internal/ipc"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/store"
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
// small application: with AutoFailover the application runs to a correct
// result and never sees an error.
func TestFailoverTransparentVadd(t *testing.T) {
	node := newNodeNV("pc0")
	inj := ipc.NewFaultInjector(ipc.FaultPlan{
		EveryN:    6,
		SkipFirst: 2,
		Max:       4,
		Kinds:     []ipc.FaultKind{ipc.FaultCrashServer},
	})
	_, c := attach(t, node, Options{AutoFailover: true, Fault: inj})
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

// TestFailoverShadowPolicies documents the shadow contract: after a proxy
// crash between a kernel launch and the read of its result, AutoFailover
// restores the computed data from the shadows it keeps.
func TestFailoverShadowPolicies(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{AutoFailover: true})
	app := setupVaddApp(t, c, 64)
	app.launch(t)
	app.finish(t)
	// Simulate a proxy crash after the launch completed: the read of the
	// result fails over.
	c.Proxy().Kill()
	app.verify(t)
	if n := c.FailoverStats().Failovers; n != 1 {
		t.Fatalf("failovers = %d, want 1", n)
	}
}

// TestFailoverEventWaitLists: events created before a crash are rebound as
// dummy markers; an enqueue retried after failover must wait on the
// rebound events without error.
func TestFailoverEventWaitLists(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{AutoFailover: true})
	app := setupVaddApp(t, c, 64)
	ev := app.launch(t)
	app.finish(t)
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
	_, c := attach(t, node, Options{AutoFailover: true})
	app := setupVaddApp(t, c, 64)
	app.launch(t)
	app.finish(t)
	c.Proxy().Kill()
	if _, err := c.Checkpoint(node.LocalDisk, "postcrash.ckpt"); err != nil {
		t.Fatal(err)
	}
	nc, _, err := Restore(node, node.LocalDisk, "postcrash.ckpt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Detach()
	app.api = nc
	app.verify(t)
}

// TestFailoverBetweenIncrementalCheckpoints: a buffer written after an
// incremental checkpoint stays dirty across a proxy failover, so the next
// generation re-stages it and the restore returns that generation, not
// its parent. The failover re-uploads the shadow copy; it does not make
// the device agree with the previous checkpoint.
func TestFailoverBetweenIncrementalCheckpoints(t *testing.T) {
	node := newNodeNV("pc0")
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	_, c := attach(t, node, Options{Incremental: true, AutoFailover: true})
	app := setupVaddApp(t, c, 1<<12)
	app.launch(t)
	if _, err := c.CheckpointToStore(st, "vadd"); err != nil {
		t.Fatal(err)
	}
	mutate(t, c)
	c.Proxy().Kill()
	app.finish(t)
	if n := c.FailoverStats().Failovers; n != 1 {
		t.Fatalf("failovers = %d, want 1", n)
	}
	want := memDigests(t, c)
	second, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	if second.DirtyBuffers != 1 || second.CleanBuffers != 2 {
		t.Errorf("gen 2 staged %d buffers and reused %d, want 1 and 2", second.DirtyBuffers, second.CleanBuffers)
	}
	rc, rst, err := RestoreFromStore(node, st, "vadd", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	if rst.Degraded != nil {
		t.Fatalf("restore degraded: %v", rst.Degraded)
	}
	diffDigests(t, "restored", want, memDigests(t, rc))
}
