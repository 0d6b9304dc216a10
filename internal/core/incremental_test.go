package core

import (
	"bytes"
	"errors"
	"testing"

	"checl/internal/apps"
	"checl/internal/hw"
	"checl/internal/ipc"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/store"
	"checl/internal/vtime"
)

// TestIncrementalCheckpointDelta: the second generation of an incremental
// store checkpoint re-stages only the buffers written since the first,
// reuses the parent's chunk refs for the clean ones, and still restores
// bit-identical.
func TestIncrementalCheckpointDelta(t *testing.T) {
	node := newNodeNV("pc0")
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	_, c := attach(t, node, Options{Incremental: true})
	app := setupVaddApp(t, c, 1<<14) // 64 KiB per buffer
	app.launch(t)
	c.Finish(app.q)

	st1, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	if st1.DirtyBuffers != 3 || st1.CleanBuffers != 0 {
		t.Fatalf("gen1 dirty/clean = %d/%d, want 3/0", st1.DirtyBuffers, st1.CleanBuffers)
	}

	// Rewrite only the output buffer; a and b stay clean.
	junk := make([]byte, 4*app.n)
	for i := range junk {
		junk[i] = byte(i*7 + 3)
	}
	if _, err := c.EnqueueWriteBuffer(app.q, app.c, true, 0, junk, nil); err != nil {
		t.Fatal(err)
	}

	st2, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	if st2.DirtyBuffers != 1 || st2.CleanBuffers != 2 {
		t.Fatalf("gen2 dirty/clean = %d/%d, want 1/2", st2.DirtyBuffers, st2.CleanBuffers)
	}
	if st2.DirtyBytes >= st1.DirtyBytes {
		t.Errorf("gen2 copied %d bytes, gen1 copied %d; expected a reduction", st2.DirtyBytes, st1.DirtyBytes)
	}
	if st2.StorePut == nil || st2.StorePut.ReusedBytes == 0 {
		t.Errorf("gen2 reused no parent chunks: %+v", st2.StorePut)
	}

	m1, err := st.Resolve("vadd@1")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := st.Resolve("vadd@2")
	if err != nil {
		t.Fatal(err)
	}
	if delta := m2.DeltaSize(&m1); delta >= m2.Size/2 {
		t.Errorf("gen2 delta = %d of %d payload bytes; expected a minority", delta, m2.Size)
	}

	want := readBuffers(t, c, app)
	rc, rst, err := RestoreFromStore(node, st, "vadd", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	if rst.Degraded != nil {
		t.Fatalf("restore degraded: %v", rst.Degraded)
	}
	for m, w := range want {
		got, _, err := rc.EnqueueReadBuffer(app.q, m, true, 0, int64(len(w)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("buffer %v not bit-identical after incremental restore", m)
		}
	}
}

// TestParallelDrainMatchesSerial: draining the preprocess phase over
// concurrent device-to-host streams must produce the same restored bytes
// as the serial drain and take strictly less virtual preprocess time.
func TestParallelDrainMatchesSerial(t *testing.T) {
	run := func(workers int) (CheckpointStats, map[ocl.Mem][]byte) {
		node := newNodeNV("pc0")
		st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
		_, c := attach(t, node, Options{DrainWorkers: workers})
		app := setupVaddApp(t, c, 1<<16) // 256 KiB per buffer
		app.launch(t)
		c.Finish(app.q)
		stats, err := c.CheckpointToStore(st, "vadd")
		if err != nil {
			t.Fatal(err)
		}
		rc, _, err := RestoreFromStore(node, st, "vadd", Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { rc.Detach(); rc.App().Kill() }()
		out := map[ocl.Mem][]byte{}
		for m, data := range readBuffers(t, rc, app) {
			out[m] = data
		}
		return stats, out
	}

	serial, serialBufs := run(1)
	par, parBufs := run(4)
	if par.DrainWorkers <= 1 {
		t.Fatalf("parallel run reports DrainWorkers = %d", par.DrainWorkers)
	}
	for m, w := range serialBufs {
		if !bytes.Equal(parBufs[m], w) {
			t.Fatalf("buffer %v diverged between serial and parallel drain", m)
		}
	}
	if par.Phases.Preprocess >= serial.Phases.Preprocess {
		t.Errorf("parallel preprocess %v not faster than serial %v",
			par.Phases.Preprocess, serial.Phases.Preprocess)
	}
	if par.StagedBytes != serial.StagedBytes {
		t.Errorf("staged bytes diverged: %d vs %d", par.StagedBytes, serial.StagedBytes)
	}
}

// TestOverlappedStoreWrite: in delayed mode with OverlapStoreWrite the
// checkpoint returns after the copy phase, the store write completes in
// the background while the application progresses, and the barrier
// retro-fills the manifest and reports the hidden portion.
func TestOverlappedStoreWrite(t *testing.T) {
	node := newNodeNV("pc0")
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	_, c := attach(t, node, Options{Mode: Delayed, Incremental: true, OverlapStoreWrite: true})
	app := setupVaddApp(t, c, 1<<14)
	app.launch(t)
	c.Finish(app.q)

	stats, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.BackgroundWrite {
		t.Fatal("checkpoint did not release to a background write")
	}
	if stats.Manifest != "" {
		t.Fatalf("manifest %q filled before the barrier", stats.Manifest)
	}

	// Application progress hides the write entirely.
	node.Clock.Advance(vtime.Second)
	before := node.Clock.Now()
	if err := c.WaitBackgroundWrite(); err != nil {
		t.Fatal(err)
	}
	if got := node.Clock.Now(); got != before {
		t.Errorf("fully hidden write still charged %v", got.Sub(before))
	}
	lc := c.LastCheckpoint()
	if lc == nil || lc.Manifest == "" || lc.StorePut == nil {
		t.Fatalf("barrier did not retro-fill the checkpoint stats: %+v", lc)
	}
	if lc.Overlap <= 0 {
		t.Errorf("overlap = %v, want > 0", lc.Overlap)
	}

	want := readBuffers(t, c, app)
	rc, _, err := RestoreFromStore(node, st, lc.Manifest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	for m, w := range want {
		got, _, err := rc.EnqueueReadBuffer(app.q, m, true, 0, int64(len(w)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("buffer %v not bit-identical after overlapped checkpoint", m)
		}
	}
}

// TestOverlappedWriteOwnsItsBytes: the background put works on the one
// private copy the snapshot made, never on the staged buffers the
// application keeps using. The staged copies are scribbled over while the
// write is in flight (under -race a shared byte would be a reported race)
// and the checkpoint still restores what was checkpointed.
func TestOverlappedWriteOwnsItsBytes(t *testing.T) {
	node := newNodeNV("pc0")
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	_, c := attach(t, node, Options{Mode: Delayed, Incremental: true, OverlapStoreWrite: true})
	app := setupVaddApp(t, c, 1<<16)
	app.launch(t)
	c.Finish(app.q)
	want := readBuffers(t, c, app)

	stats, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.BackgroundWrite {
		t.Fatal("checkpoint did not release to a background write")
	}
	for _, m := range c.db.mems {
		for i := range m.Data {
			m.Data[i] ^= 0xFF
		}
	}
	if err := c.WaitBackgroundWrite(); err != nil {
		t.Fatal(err)
	}
	rc, _, err := RestoreFromStore(node, st, c.LastCheckpoint().Manifest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	for m, w := range want {
		got, _, err := rc.EnqueueReadBuffer(app.q, m, true, 0, int64(len(w)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("buffer %v restored from an overlapped checkpoint is not what was checkpointed", m)
		}
	}
}

// TestBackgroundWriteFailureSurfaced: a failed overlapped write is
// reported as a typed *BackgroundWriteError at the next checkpoint, which
// must also distrust every clean flag of the uncommitted generation and
// re-stage everything.
func TestBackgroundWriteFailureSurfaced(t *testing.T) {
	node := newNodeNV("pc0")
	tiny := proc.NewFS("tiny", hw.TableISpec().LocalDisk, proc.WithCapacity(16<<10))
	bad := store.New(tiny, store.Config{})
	good := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)

	_, c := attach(t, node, Options{Mode: Delayed, Incremental: true, OverlapStoreWrite: true})
	app := setupVaddApp(t, c, 1<<14)
	app.launch(t)
	c.Finish(app.q)

	st1, err := c.CheckpointToStore(bad, "vadd")
	if err != nil {
		t.Fatal(err) // the failure is in the background, not here
	}
	if !st1.BackgroundWrite {
		t.Fatal("checkpoint did not release to a background write")
	}

	st2, err := c.CheckpointToStore(good, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	if st2.BackgroundErr == nil {
		t.Fatal("previous generation's write failure was not surfaced")
	}
	var nospace *proc.ErrNoSpace
	if !errors.As(st2.BackgroundErr, &nospace) {
		t.Errorf("BackgroundErr = %v, want to unwrap *proc.ErrNoSpace", st2.BackgroundErr)
	}
	if st2.CleanBuffers != 0 {
		t.Errorf("%d buffers kept clean flags from an uncommitted generation", st2.CleanBuffers)
	}
	if err := c.WaitBackgroundWrite(); err != nil {
		t.Fatalf("second write should have landed: %v", err)
	}
	if lc := c.LastCheckpoint(); lc == nil || lc.Manifest == "" {
		t.Fatalf("good store's manifest missing after barrier: %+v", lc)
	}
}

// TestReleasedBufferSkippedInCheckpoint: a buffer whose refcount hit zero
// while a kernel argument still names it becomes a dead record — the
// checkpoint must not stage it, and after a restore the handle resolves
// for kernel-arg replay but stays dead to the application.
func TestReleasedBufferSkippedInCheckpoint(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 256)
	app.launch(t)
	c.Finish(app.q)

	if err := c.ReleaseMemObject(app.b); err != nil {
		t.Fatal(err)
	}
	if n := c.ObjectCounts()["mem"]; n != 2 {
		t.Fatalf("live mems = %d, want 2", n)
	}

	stats, err := c.Checkpoint(node.LocalDisk, "released.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedReleased != 1 {
		t.Errorf("SkippedReleased = %d, want 1", stats.SkippedReleased)
	}
	if stats.StagedBuffers != 2 {
		t.Errorf("StagedBuffers = %d, want 2", stats.StagedBuffers)
	}

	rc, _, err := Restore(node, node.LocalDisk, "released.ckpt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	if n := rc.ObjectCounts()["mem"]; n != 2 {
		t.Errorf("restored live mems = %d, want 2", n)
	}
	if _, _, err := rc.EnqueueReadBuffer(app.q, app.a, true, 0, int64(4*app.n), nil); err != nil {
		t.Errorf("live buffer unreadable after restore: %v", err)
	}
	if _, _, err := rc.EnqueueReadBuffer(app.q, app.b, true, 0, int64(4*app.n), nil); ocl.StatusOf(err) != ocl.InvalidMemObject {
		t.Errorf("dead handle readable after restore: %v", err)
	}
}

// runIncrementalRestoreDigest runs one benchmark app, mutates its first
// buffer deterministically, checkpoints into a store and returns the
// buffer digests of a restore from the newest generation. In incremental
// mode two generations are written (the second sees the mutation as the
// only dirty data) and the checkpoint disk injects seeded faults healed
// by a clean replica; the full-reference mode writes one clean full
// checkpoint of the same final state.
func runIncrementalRestoreDigest(t *testing.T, a apps.App, scale float64, inj *ipc.FaultInjector, incremental, speculative bool) map[Handle]string {
	t.Helper()
	node := newNodeNV("pc0")
	appProc := node.Spawn(a.Name)
	opts := Options{AutoFailover: true, Shadow: ShadowFull, Fault: inj}
	if incremental {
		opts.Incremental = true
		opts.DrainWorkers = 4
	}
	if speculative {
		opts.SpeculativeDrain = true
	}
	c, err := Attach(appProc, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	env := &apps.Env{API: c, DeviceMask: ocl.DeviceTypeGPU, Scale: scale}
	if _, err := a.Run(env); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	var ckptFS *proc.FS
	var st *store.Store
	if incremental {
		diskInj := proc.NewFaultInjector(proc.DiskFaultPlan{Seed: 2027, EveryN: 8})
		ckptFS = proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk, proc.WithFault(diskInj))
		st = store.New(ckptFS, fineChunks)
		replica := store.New(proc.NewFS("replica-disk", hw.TableISpec().LocalDisk), fineChunks)
		st.AttachReplica(replica, node.Spec.Inter.NIC)
	} else {
		ckptFS = proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk)
		st = store.New(ckptFS, fineChunks)
	}

	ckpt := func() CheckpointStats {
		var stats CheckpointStats
		var ckErr error
		for attempt := 0; attempt < 5; attempt++ {
			if stats, ckErr = c.CheckpointToStore(st, a.Name); ckErr == nil {
				return stats
			}
			if _, rerr := st.Recover(); rerr != nil {
				t.Fatalf("recover between attempts: %v", rerr)
			}
		}
		t.Fatalf("checkpoint failed 5 attempts: %v", ckErr)
		return stats
	}

	mutate := func() {
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		mems := c.db.orderedMems()
		if len(mems) == 0 {
			return
		}
		m := mems[0]
		q := c.anyQueueFor(m.Ctx)
		if q == nil {
			return
		}
		junk := make([]byte, m.Size)
		for i := range junk {
			junk[i] = byte(i*11 + 5)
		}
		if _, err := c.EnqueueWriteBuffer(ocl.CommandQueue(q.H), ocl.Mem(m.H), true, 0, junk, nil); err != nil {
			t.Fatal(err)
		}
	}

	if incremental {
		ckpt() // gen1: everything dirty
		if speculative {
			// Begin the epoch before the mutation: the junk write lands
			// mid-epoch and must violate the in-flight speculative copy.
			// Under seeded proxy kills the begin itself may fail; the
			// checkpoint then stop-drains, which is the abort contract.
			if err := c.BeginCheckpointEpoch(); err != nil {
				t.Logf("%s: epoch begin aborted under faults: %v", a.Name, err)
			}
		}
		mutate()
		gen2 := ckpt() // gen2: only the mutated buffer re-staged
		if len(c.db.orderedMems()) > 1 && gen2.CleanBuffers == 0 {
			t.Errorf("%s gen2 re-staged everything; incremental tracking proved nothing", a.Name)
		}
	} else {
		mutate()
		ckpt()
	}

	rc, rst, err := RestoreFromStore(node, st, a.Name, Options{})
	if err != nil {
		t.Fatalf("%s restore: %v", a.Name, err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	if rst.Degraded != nil {
		t.Fatalf("%s restore degraded with a replica attached: %v", a.Name, rst.Degraded)
	}
	return memDigests(t, rc)
}

// TestFaultAppsIncrementalBitIdentical is the PR's acceptance soak: for
// every benchmark app, an incremental + parallel-drain checkpoint taken
// under seeded proxy kills and checkpoint-disk faults restores
// bit-identical to a clean full checkpoint of the same state — and so
// does a speculative-drain checkpoint whose epoch saw the mutation land
// mid-flight under the same fault mix.
func TestFaultAppsIncrementalBitIdentical(t *testing.T) {
	scale := 0.2
	everyN := 40
	if testing.Short() {
		everyN = 80
	}
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			full := runIncrementalRestoreDigest(t, a, scale, nil, false, false)
			inj := ipc.NewFaultInjector(faultKillPlan(2027, everyN))
			inc := runIncrementalRestoreDigest(t, a, scale, inj, true, false)
			specInj := ipc.NewFaultInjector(faultKillPlan(2029, everyN))
			spec := runIncrementalRestoreDigest(t, a, scale, specInj, true, true)
			for label, got := range map[string]map[Handle]string{"incremental": inc, "speculative": spec} {
				if len(full) != len(got) {
					t.Fatalf("object count diverged: full=%d %s=%d", len(full), label, len(got))
				}
				for h, want := range full {
					if g, ok := got[h]; !ok {
						t.Errorf("buffer %v missing from %s restore", h, label)
					} else if g != want {
						t.Errorf("buffer %v diverged in %s arm: %s vs %s", h, label, g, want)
					}
				}
			}
		})
	}
}
