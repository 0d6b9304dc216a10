package core

import (
	"errors"
	"testing"

	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/store"
)

// TestStoreCheckpointIncrementalDedup is the tentpole end-to-end path:
// two successive store checkpoints of a running OpenCL app where only the
// output buffer changed. The second Put must re-upload far fewer new
// bytes than the first, and restoring from it must reproduce the buffers
// bit-for-bit.
func TestStoreCheckpointIncrementalDedup(t *testing.T) {
	node := newNodeNV("pc0")
	// Finer chunking keeps small metadata churn (object database headers,
	// event records) from dirtying large chunks around it.
	st := store.New(node.LocalDisk, store.Config{MinChunk: 1 << 10, AvgChunk: 4 << 10, MaxChunk: 16 << 10})
	_, c := attach(t, node, Options{Incremental: true})
	app := setupVaddApp(t, c, 1<<16) // 256 KiB per buffer

	// setupVaddApp fills a and b with identical data, which the store
	// would deduplicate within one checkpoint; give b distinct content so
	// each buffer's chunks are unique and dedup numbers are legible.
	bdata := make([]byte, 4*app.n)
	for i := range bdata {
		bdata[i] = byte(i*7 + i>>9)
	}
	if _, err := c.EnqueueWriteBuffer(app.q, app.b, true, 0, bdata, nil); err != nil {
		t.Fatal(err)
	}
	app.launch(t)
	c.Finish(app.q)

	st1, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	if st1.Manifest != "vadd@1" || st1.StorePut == nil {
		t.Fatalf("first store checkpoint stats = %+v", st1)
	}
	if st1.StorePut.NewBytes == 0 {
		t.Fatal("first checkpoint deduplicated against an empty store")
	}

	// Acceptance bar: a second checkpoint of the unmodified app writes
	// >= 50% fewer new bytes. (It actually deduplicates completely.)
	st2, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Manifest != "vadd@2" {
		t.Fatalf("second manifest = %s", st2.Manifest)
	}
	if st2.StorePut.NewBytes > st1.StorePut.NewBytes/2 {
		t.Errorf("unmodified 2nd checkpoint uploaded %d new bytes, 1st uploaded %d — dedup below 50%%",
			st2.StorePut.NewBytes, st1.StorePut.NewBytes)
	}
	if st2.DirtyBuffers != 0 {
		t.Errorf("unmodified checkpoint restaged %d buffers", st2.DirtyBuffers)
	}

	// Run `scale` over the output buffer: exactly one buffer is dirty, so
	// the third checkpoint re-uploads only the chunks it touched.
	k, err := c.CreateKernel(app.prog, "scale")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetKernelArg(k, 0, 8, handleBytes(app.c)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetKernelArg(k, 1, 4, f32bytes(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnqueueNDRangeKernel(app.q, k, 1, [3]int{}, [3]int{app.n}, [3]int{64}, nil); err != nil {
		t.Fatal(err)
	}
	c.Finish(app.q)

	st3, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	if st3.StorePut.NewBytes == 0 {
		t.Error("dirtying a buffer produced no new chunks")
	}
	if st3.StorePut.NewBytes > st1.StorePut.NewBytes/2 {
		t.Errorf("one-dirty-buffer checkpoint uploaded %d of %d new bytes — not limited to dirty chunks",
			st3.StorePut.NewBytes, st1.StorePut.NewBytes)
	}
	// Only the dirty buffer was re-staged under incremental mode.
	if st3.DirtyBuffers != 1 {
		t.Errorf("restaged %d buffers, want 1 (only the scaled output)", st3.DirtyBuffers)
	}

	// Restore from the second checkpoint and compare every buffer
	// bit-for-bit against the live incarnation's staged state.
	want := readBuffers(t, c, app)

	rc, rst, err := RestoreFromStore(node, st, "vadd", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Detach()
	if rst.ReadTime <= 0 || rst.Total <= 0 {
		t.Errorf("restore stats = %+v", rst)
	}
	sameBuffers(t, "differs after restore from store", rc, app, want)
}

// TestStoreReplicationSurvivesSourceLoss is the migration-resilience
// acceptance path: replicate a checkpoint to a second node's store, wipe
// the source filesystem, and restart on the second node.
func TestStoreReplicationSurvivesSourceLoss(t *testing.T) {
	cluster := proc.NewCluster("pc", 2, hw.TableISpec(), func(i int) []*ocl.Vendor {
		return []*ocl.Vendor{ocl.NVIDIA()}
	})
	src, dst := cluster.Nodes[0], cluster.Nodes[1]
	srcStore := store.New(src.LocalDisk, store.Config{})
	dstStore := store.New(dst.LocalDisk, store.Config{})

	_, c := attach(t, src, Options{})
	app := setupVaddApp(t, c, 1<<12)
	app.launch(t)
	c.Finish(app.q)

	ck, err := c.CheckpointToStore(srcStore, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srcStore.Replicate(dst.Clock, ck.Manifest, dstStore, src.Spec.Inter.NIC); err != nil {
		t.Fatal(err)
	}

	// The source node dies: every file on its local disk is lost.
	c.Detach()
	for _, p := range src.LocalDisk.List() {
		if err := src.LocalDisk.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	rc, _, err := RestoreFromStore(dst, dstStore, ck.Manifest, Options{})
	if err != nil {
		t.Fatalf("restore from replica after source loss: %v", err)
	}
	defer rc.Detach()
	if rc.App().Node() != dst {
		t.Error("restored app on wrong node")
	}
	app.api = rc
	app.verify(t)
}

func TestMigrateViaStore(t *testing.T) {
	cluster := proc.NewCluster("pc", 2, hw.TableISpec(), func(i int) []*ocl.Vendor {
		return []*ocl.Vendor{ocl.NVIDIA()}
	})
	src, dst := cluster.Nodes[0], cluster.Nodes[1]
	chunks := store.Config{MinChunk: 1 << 10, AvgChunk: 4 << 10, MaxChunk: 16 << 10}
	srcStore := store.New(src.LocalDisk, chunks)
	dstStore := store.New(dst.LocalDisk, chunks)

	_, c := attach(t, src, Options{})
	app := setupVaddApp(t, c, 1<<15) // 128 KiB per buffer
	app.launch(t)
	c.Finish(app.q)

	rc, ms, err := MigrateViaStore(c, srcStore, "vadd", dst, dstStore, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Detach()
	if ms.Transfer <= 0 {
		t.Error("cross-store migration must pay a NIC transfer")
	}
	if ms.Checkpoint.Manifest != "vadd@1" {
		t.Errorf("manifest = %s", ms.Checkpoint.Manifest)
	}
	if len(src.Processes()) != 0 {
		t.Errorf("source node still has %d processes", len(src.Processes()))
	}
	app.api = rc
	app.verify(t)

	// A second migration of the (mostly unchanged) job back the other way
	// moves only the delta: most chunks already sit in srcStore.
	rc2, ms2, err := MigrateViaStore(rc, dstStore, "vadd", src, srcStore, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Detach()
	if ms2.Checkpoint.StorePut.NewBytes > ms.Checkpoint.StorePut.NewBytes/2 {
		t.Errorf("return migration uploaded %d new bytes vs %d on first — no cross-store dedup",
			ms2.Checkpoint.StorePut.NewBytes, ms.Checkpoint.StorePut.NewBytes)
	}
	app.api = rc2
	app.verify(t)
}

func TestMigrateViaSharedStoreSkipsReplication(t *testing.T) {
	cluster := proc.NewCluster("pc", 2, hw.TableISpec(), func(i int) []*ocl.Vendor {
		return []*ocl.Vendor{ocl.NVIDIA()}
	})
	src, dst := cluster.Nodes[0], cluster.Nodes[1]
	nfsStore := store.New(cluster.NFS, store.Config{})

	_, c := attach(t, src, Options{})
	app := setupVaddApp(t, c, 1<<12)
	app.launch(t)
	c.Finish(app.q)

	rc, ms, err := MigrateViaStore(c, nfsStore, "vadd", dst, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Detach()
	if ms.Transfer != 0 {
		t.Errorf("shared-store migration should not pay a transfer: %v", ms.Transfer)
	}
	app.api = rc
	app.verify(t)
}

// TestMigrateViaStoreAcrossGeometries: any store replicates into any other —
// here out of a store on the cluster's NFS (1+0) into a 4+2 fleet, which
// the target then restores from.
func TestMigrateViaStoreAcrossGeometries(t *testing.T) {
	cluster := proc.NewCluster("pc", 2, hw.TableISpec(), func(i int) []*ocl.Vendor {
		return []*ocl.Vendor{ocl.NVIDIA()}
	})
	src, dst := cluster.Nodes[0], cluster.Nodes[1]
	nfsStore := store.New(cluster.NFS, fineChunks)
	fleet, _ := newTestFleet(t)

	_, c := attach(t, src, Options{})
	app := setupVaddApp(t, c, 1<<15)
	app.launch(t)
	c.Finish(app.q)

	rc, ms, err := MigrateViaStore(c, nfsStore, "vadd", dst, fleet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Detach()
	if ms.Transfer <= 0 {
		t.Error("cross-store migration must pay a NIC transfer")
	}
	if man, ok, err := fleet.Latest("vadd"); err != nil || !ok || man.ID() != ms.Checkpoint.Manifest {
		t.Errorf("the fleet's latest is %s (%v, %v), migrated %s", man.ID(), ok, err, ms.Checkpoint.Manifest)
	}
	if rc.App().Node() != dst {
		t.Error("restored app on wrong node")
	}
	app.api = rc
	app.verify(t)
}

func TestStoreCheckpointSurfacesNoSpace(t *testing.T) {
	node := newNodeNV("pc0")
	tiny := proc.NewFS("tiny", hw.TableISpec().LocalDisk, proc.WithCapacity(16<<10))
	st := store.New(tiny, store.Config{})
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 1<<14)
	app.launch(t)
	c.Finish(app.q)

	_, err := c.CheckpointToStore(st, "vadd")
	var nospace *proc.ErrNoSpace
	if !errors.As(err, &nospace) {
		t.Fatalf("err = %v, want *proc.ErrNoSpace", err)
	}
}
