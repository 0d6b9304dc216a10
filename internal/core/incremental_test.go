package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/proxy"
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
	sameBuffers(t, "not bit-identical after incremental restore", rc, app, want)
}

// drainJob creates sizes[i]-byte buffers, alternating over two contexts
// when two is set, and fills each with its own pattern through a blocking
// write. Incremental mode keeps the staged copies after a checkpoint so the
// tests below can look at them.
func drainJob(t *testing.T, opts Options, sizes []int, two bool) (*proc.Node, *CheCL, []ocl.CommandQueue, []ocl.Mem) {
	t.Helper()
	node := newNodeNV("pc0")
	opts.Incremental = true
	_, c := attach(t, node, opts)
	plats, err := c.GetPlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	devs, err := c.GetDeviceIDs(plats[0], ocl.DeviceTypeGPU)
	if err != nil {
		t.Fatal(err)
	}
	var queues []ocl.CommandQueue
	var ctxs []ocl.Context
	for len(ctxs) == 0 || (two && len(ctxs) == 1) {
		ctx, err := c.CreateContext(devs[:1])
		if err != nil {
			t.Fatal(err)
		}
		q, err := c.CreateCommandQueue(ctx, devs[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		ctxs, queues = append(ctxs, ctx), append(queues, q)
	}
	qOf := make([]ocl.CommandQueue, len(sizes))
	mems := make([]ocl.Mem, len(sizes))
	for i, size := range sizes {
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(j*7 + i*31 + 1)
		}
		k := i % len(ctxs)
		m, err := c.CreateBuffer(ctxs[k], ocl.MemReadWrite, int64(size), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.EnqueueWriteBuffer(queues[k], m, true, 0, data, nil); err != nil {
			t.Fatal(err)
		}
		qOf[i], mems[i] = queues[k], m
	}
	return node, c, qOf, mems
}

// TestParallelDrainMatchesSerial: what the one planned, batched drain
// stages for each buffer is bit-identical to what a blocking
// clEnqueueReadBuffer of that buffer returns — for fewer buffers than
// streams, exactly drainStreams, one more, and over two contexts, with
// sizes that make the LPT order differ from creation order.
func TestParallelDrainMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		n   int
		two bool
	}{{1, false}, {3, false}, {8, false}, {9, false}, {9, true}} {
		sizes := make([]int, tc.n)
		for i := range sizes {
			sizes[i] = 4096 * (1 + (i*5)%7)
		}
		node, c, queues, mems := drainJob(t, Options{}, sizes, tc.two)
		want := make([][]byte, tc.n)
		for i, m := range mems {
			data, _, err := c.EnqueueReadBuffer(queues[i], m, true, 0, int64(sizes[i]), nil)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = data
		}
		stats, err := c.Checkpoint(node.LocalDisk, "drain.ckpt")
		if err != nil {
			t.Fatal(err)
		}
		if stats.DirtyBuffers != tc.n {
			t.Fatalf("%d buffers: %d drained", tc.n, stats.DirtyBuffers)
		}
		for i, m := range mems {
			if got := c.db.mems[Handle(m)].Data; !bytes.Equal(got, want[i]) {
				t.Errorf("%d buffers, two contexts %v: buffer %d staged %d bytes that differ from its blocking read (%d bytes)",
					tc.n, tc.two, i, len(got), len(want[i]))
			}
		}
	}
}

// TestDrainLandsInPlace: read data reaches each buffer's staging slice
// without a gather on the server or a bounce on the client. A 32 x 1 MiB
// drain that has to allocate its staging memory allocates little more than
// one byte per staged byte, and a re-drain into the retained staging
// memory allocates next to nothing — on both transports. The framed
// stream additionally holds one response scratch per connection, sized by
// the first drain and reused by every later one, so the bound on fresh
// staging is taken on a connection that has drained before.
func TestDrainLandsInPlace(t *testing.T) {
	const n, size = 32, 1 << 20
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = size
	}
	for _, tc := range testTransports {
		tr := tc.tr
		_, c, _, _ := drainJob(t, Options{Transport: tr}, sizes, false)
		mems := ordered(c.db.mems)
		drain := func() uint64 {
			t.Helper()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.drain(mems, nil)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range mems {
				if len(m.Data) != size {
					t.Fatalf("%s: buffer %v staged %d bytes", tc.name, m.H, len(m.Data))
				}
			}
			return after.TotalAlloc - before.TotalAlloc
		}

		limit := uint64(n * size * 5 / 4)
		if tr == proxy.TransportPipe {
			limit += n * size // the framed connection's response scratch, once
		}
		if cold := drain(); cold > limit {
			t.Errorf("%s: first drain allocated %d bytes for %d staged (limit %d)", tc.name, cold, n*size, limit)
		}
		for _, m := range mems {
			m.Data = nil
		}
		if fresh := drain(); fresh > n*size*5/4 {
			t.Errorf("%s: a drain into fresh staging memory allocated %d bytes for %d staged", tc.name, fresh, n*size)
		}
		if again := drain(); again > 2<<20 {
			t.Errorf("%s: a re-drain into retained staging memory allocated %d bytes", tc.name, again)
		}
	}
}

// TestOverlappedStoreWrite: in delayed mode a store checkpoint returns
// with its manifest after the copy phase, the store write's time runs
// behind the application, and the barrier reports the hidden portion.
func TestOverlappedStoreWrite(t *testing.T) {
	node := newNodeNV("pc0")
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	_, c := attach(t, node, Options{Mode: Delayed, Incremental: true})
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
	if stats.Manifest == "" || stats.StorePut == nil {
		t.Fatalf("checkpoint returned without its manifest: %+v", stats)
	}

	// Application progress hides the write entirely.
	node.Clock.Advance(vtime.Second)
	before := node.Clock.Now()
	c.WaitBackgroundWrite()
	if got := node.Clock.Now(); got != before {
		t.Errorf("fully hidden write still charged %v", got.Sub(before))
	}
	lc := c.LastCheckpoint()
	if lc == nil || lc.Manifest != stats.Manifest {
		t.Fatalf("LastCheckpoint = %+v, want the checkpoint of %s", lc, stats.Manifest)
	}
	if lc.Overlap <= stats.Overlap {
		t.Errorf("overlap after the barrier = %v, want more than the %v on return", lc.Overlap, stats.Overlap)
	}

	want := readBuffers(t, c, app)
	rc, _, err := RestoreFromStore(node, st, lc.Manifest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	sameBuffers(t, "not bit-identical after overlapped checkpoint", rc, app, want)
}

// TestOverlappedWriteAddsToEpochOverlap: the barrier adds the write's
// hidden share to the overlap a speculative checkpoint already reported
// for its drain; it does not replace it, even when it lands at once and
// hides next to nothing.
func TestOverlappedWriteAddsToEpochOverlap(t *testing.T) {
	node := newNodeNV("pc0")
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	_, c := attach(t, node, Options{Mode: Delayed, Incremental: true})
	app := setupVaddApp(t, c, specVaddItems)
	app.launch(t)
	app.finish(t)
	if err := c.BeginCheckpointEpoch(); err != nil {
		t.Fatal(err)
	}
	node.Clock.Advance(vtime.Second) // the application runs past the drain
	stats, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Speculative || !stats.BackgroundWrite || stats.Overlap <= 0 {
		t.Fatalf("want a speculative checkpoint gone behind with a hidden drain: %+v", stats)
	}
	c.WaitBackgroundWrite()
	if lc := c.LastCheckpoint(); lc.Overlap < stats.Overlap {
		t.Errorf("overlap after the barrier = %v, below the %v the checkpoint returned", lc.Overlap, stats.Overlap)
	}
}

// TestOverlappedWriteOwnsItsBytes: the write that goes behind has read the
// views of the staged buffers before the checkpoint returns, so the
// application may scribble over them at once, before the barrier, and the
// checkpoint still restores what was checkpointed.
func TestOverlappedWriteOwnsItsBytes(t *testing.T) {
	node := newNodeNV("pc0")
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	_, c := attach(t, node, Options{Mode: Delayed, Incremental: true})
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
	c.WaitBackgroundWrite()
	rc, _, err := RestoreFromStore(node, st, c.LastCheckpoint().Manifest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	sameBuffers(t, "restored from an overlapped checkpoint is not what was checkpointed", rc, app, want)
}

// TestOverlappedWriteCopiesNoImage: a write that goes behind takes no copy
// of the image. The second delayed checkpoint of 16 MiB of compressible,
// rewritten buffers re-drains into the staging memory it kept and hands the
// store views of it, so it allocates less than half the image on the host
// (under -race, where sync.Pool drops a quarter of its Puts, an image and a
// half more).
func TestOverlappedWriteCopiesNoImage(t *testing.T) {
	const n, size = 16, 1 << 20
	limit := uint64(n * size / 2)
	if raceDetector {
		limit += n * size * 3 / 2
	}
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = size
	}
	_, c, queues, mems := drainJob(t, Options{Mode: Delayed}, sizes, false)
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), store.Config{})
	checkpoint := func() uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats, err := c.CheckpointToStore(st, "job")
		c.WaitBackgroundWrite()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.BackgroundWrite || stats.DirtyBuffers != n {
			t.Fatalf("checkpoint went behind %v with %d dirty buffers, want %d", stats.BackgroundWrite, stats.DirtyBuffers, n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	checkpoint()
	for i, m := range mems {
		if _, err := c.EnqueueWriteBuffer(queues[i], m, true, 0, bytes.Repeat([]byte{byte(i)}, size), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := checkpoint(); got > limit {
		t.Errorf("second delayed checkpoint of %d MiB allocated %d KiB, want under %d", n*size>>20, got>>10, limit>>10)
	}
}

// TestBackgroundWriteFailureSurfaced: a store write that goes behind
// fails where it is made — the checkpoint returns the error, not the next
// one — and the next checkpoint makes no clean claim toward the
// generation that was never written: what the failed one staged is
// written again.
func TestBackgroundWriteFailureSurfaced(t *testing.T) {
	node := newNodeNV("pc0")
	tiny := proc.NewFS("tiny", hw.TableISpec().LocalDisk, proc.WithCapacity(16<<10))
	bad := store.New(tiny, store.Config{})
	good := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)

	_, c := attach(t, node, Options{Mode: Delayed, Incremental: true})
	app := setupVaddApp(t, c, 1<<14)
	app.launch(t)
	c.Finish(app.q)
	if _, err := c.CheckpointToStore(good, "vadd"); err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 4*app.n)
	if _, err := c.EnqueueWriteBuffer(app.q, app.a, true, 0, junk, nil); err != nil {
		t.Fatal(err)
	}

	var nospace *proc.ErrNoSpace
	if _, err := c.CheckpointToStore(bad, "vadd"); !errors.As(err, &nospace) {
		t.Fatalf("checkpoint into a full store returned %v, want a wrapped *proc.ErrNoSpace", err)
	}
	if c.LastCheckpoint() != nil {
		t.Error("a failed checkpoint left LastCheckpoint set")
	}

	st, err := c.CheckpointToStore(good, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	man, err := good.Resolve(st.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range man.Segments {
		if seg.Clean {
			t.Errorf("segment %s claimed clean toward %s, which lacks what the failed checkpoint staged", seg.Name, man.Parent)
		}
	}
	want := readBuffers(t, c, app)
	rc, rst, err := RestoreFromStore(node, good, "vadd", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	if rst.Degraded != nil {
		t.Fatalf("restore fell back: %v", rst.Degraded)
	}
	sameBuffers(t, "is not what the last checkpoint held", rc, app, want)
}

// checkCleanClaimAcross checkpoints vadd incrementally as job "vadd" into
// st, rewrites every buffer, runs between — which stages the rewritten
// buffers for something other than vadd's next generation in st — and
// checkpoints "vadd" into st again. That generation must claim nothing
// clean toward the first: it restores bit-identical, without falling back.
func checkCleanClaimAcross(t *testing.T, st store.Backend, between func(c *CheCL, node *proc.Node)) {
	t.Helper()
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{Incremental: true})
	app := setupVaddApp(t, c, 1<<14) // 64 KiB per buffer
	app.launch(t)
	app.finish(t)
	if _, err := c.CheckpointToStore(st, "vadd"); err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 4*app.n)
	for i := range junk {
		junk[i] = byte(i*5 + 1)
	}
	for _, m := range []ocl.Mem{app.a, app.b} {
		if _, err := c.EnqueueWriteBuffer(app.q, m, true, 0, junk, nil); err != nil {
			t.Fatal(err)
		}
	}
	app.launch(t)
	app.finish(t)

	between(c, node)
	last, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	want := readBuffers(t, c, app)
	rc, rst, err := RestoreFromStore(node, st, "vadd", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	if rst.Degraded != nil {
		t.Fatalf("restore of %s fell back: %v", last.Manifest, rst.Degraded)
	}
	sameBuffers(t, "is not what the last checkpoint held", rc, app, want)
}

// TestCleanClaimAfterFailedPut: a store checkpoint that fails (three of
// the fleet's six nodes down) has staged the rewritten buffers; its retry
// writes them rather than claiming them clean toward the generation before.
func TestCleanClaimAfterFailedPut(t *testing.T) {
	st, nodes := newTestFleet(t)
	checkCleanClaimAcross(t, st, func(c *CheCL, _ *proc.Node) {
		down := st.Nodes()[:3]
		for _, name := range down {
			nodes[name].SetDown(true)
		}
		if _, err := c.CheckpointToStore(st, "vadd"); err == nil {
			t.Fatalf("checkpoint with %v down succeeded", down)
		}
		for _, name := range down {
			nodes[name].SetDown(false)
		}
	})
}

// TestCleanClaimAfterFlatCheckpoint: a flat checkpoint between two store
// checkpoints (a signalled one, an MPI local snapshot) stages the
// rewritten buffers for its file, not for the store.
func TestCleanClaimAfterFlatCheckpoint(t *testing.T) {
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	checkCleanClaimAcross(t, st, func(c *CheCL, node *proc.Node) {
		if _, err := c.Checkpoint(node.LocalDisk, "between.ckpt"); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCleanClaimAfterOtherJob: a checkpoint of job "b" into the same
// store stages the rewritten buffers for b's generation, not for vadd's.
func TestCleanClaimAfterOtherJob(t *testing.T) {
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	checkCleanClaimAcross(t, st, func(c *CheCL, _ *proc.Node) {
		if _, err := c.CheckpointToStore(st, "b"); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCleanClaimAfterOtherStore: a checkpoint of the same job into another
// store of the same name stages the rewritten buffers for that store:
// a claim names its store by identity, not by name.
func TestCleanClaimAfterOtherStore(t *testing.T) {
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	other := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	checkCleanClaimAcross(t, st, func(c *CheCL, _ *proc.Node) {
		if _, err := c.CheckpointToStore(other, "vadd"); err != nil {
			t.Fatal(err)
		}
	})
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
	if stats.DirtyBuffers != 2 {
		t.Errorf("DirtyBuffers = %d, want 2", stats.DirtyBuffers)
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
