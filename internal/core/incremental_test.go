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
		mems := c.db.orderedMems()
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
// after the copy phase, the store write completes in
// the background while the application progresses, and the barrier
// retro-fills the manifest and reports the hidden portion.
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
	sameBuffers(t, "not bit-identical after overlapped checkpoint", rc, app, want)
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
	if err := c.WaitBackgroundWrite(); err != nil {
		t.Fatal(err)
	}
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
		if err == nil {
			err = c.WaitBackgroundWrite()
		}
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

// TestBackgroundWriteFailureSurfaced: a failed overlapped write is
// reported as a typed *BackgroundWriteError at the next checkpoint, which
// must also distrust every clean flag of the uncommitted generation and
// re-stage everything.
func TestBackgroundWriteFailureSurfaced(t *testing.T) {
	node := newNodeNV("pc0")
	tiny := proc.NewFS("tiny", hw.TableISpec().LocalDisk, proc.WithCapacity(16<<10))
	bad := store.New(tiny, store.Config{})
	good := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)

	_, c := attach(t, node, Options{Mode: Delayed, Incremental: true})
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
