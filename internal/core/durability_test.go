package core

import (
	"bytes"
	"errors"
	"testing"

	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/store"
	"checl/internal/vtime"
)

// fineChunks keeps checkpoint payloads multi-chunk so chunk-level damage
// and healing are exercised even on small test apps.
var fineChunks = store.Config{MinChunk: 1 << 10, AvgChunk: 4 << 10, MaxChunk: 16 << 10}

// readBuffers snapshots every vadd buffer through api.
func readBuffers(t *testing.T, api ocl.API, app *vaddApp) map[ocl.Mem][]byte {
	t.Helper()
	out := map[ocl.Mem][]byte{}
	for _, m := range []ocl.Mem{app.a, app.b, app.c} {
		data, _, err := api.EnqueueReadBuffer(app.q, m, true, 0, int64(4*app.n), nil)
		if err != nil {
			t.Fatal(err)
		}
		out[m] = data
	}
	return out
}

// TestWronglyCleanBufferRestoresParent: a clean buffer whose staged copy
// changes between two incremental checkpoints is a wrong clean claim. The
// store trusts it and names the parent's bytes for that buffer's region;
// the image's body checksum covers every region, so the restore refuses
// the generation and degrades to the previous one, whose buffers it
// restores as they were.
func TestWronglyCleanBufferRestoresParent(t *testing.T) {
	node := newNodeNV("pc0")
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	_, c := attach(t, node, Options{Incremental: true})
	app := setupVaddApp(t, c, 1<<14)
	app.launch(t)
	if err := c.Finish(app.q); err != nil {
		t.Fatal(err)
	}
	want := readBuffers(t, c, app)
	first, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	a := c.db.mems[Handle(app.a)]
	for i := range a.Data {
		a.Data[i] ^= 0xFF
	}
	second, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	if second.CleanBuffers != 3 {
		t.Fatalf("gen 2 flagged %d buffers clean, want 3", second.CleanBuffers)
	}

	rc, rst, err := RestoreFromStore(node, st, "vadd", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	if d := rst.Degraded; d == nil || d.Restored != first.Manifest || len(d.Skipped) != 1 || d.Skipped[0].ID != second.Manifest {
		t.Errorf("restore did not degrade from %s to %s: %+v", second.Manifest, first.Manifest, d)
	}
	for m, w := range want {
		got, _, err := rc.EnqueueReadBuffer(app.q, m, true, 0, int64(len(w)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Errorf("buffer %v is not what the first checkpoint held", m)
		}
	}
}

// TestDurableCheckpointScrubRestoreSoak runs checkpoint/scrub/restore
// cycles of a live OpenCL app against a checkpoint disk that injects a
// fault on every 6th operation, with a clean mirror (1+1). Every cycle
// must restore bit-identical with no degradation: verified writes, retries
// and healing from the mirror absorb the whole fault plan.
func TestDurableCheckpointScrubRestoreSoak(t *testing.T) {
	node := newNodeNV("pc0")
	inj := proc.NewFaultInjector(proc.DiskFaultPlan{Seed: 2026, EveryN: 6})
	ckptFS := proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk, proc.WithFault(inj))
	st, err := store.NewMirror(ckptFS, proc.NewFS("replica-disk", hw.TableISpec().LocalDisk), fineChunks)
	if err != nil {
		t.Fatal(err)
	}

	_, c := attach(t, node, Options{Incremental: true})
	app := setupVaddApp(t, c, 1<<14)
	app.launch(t)
	c.Finish(app.q)

	scale, err := c.CreateKernel(app.prog, "scale")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetKernelArg(scale, 0, 8, handleBytes(app.c)); err != nil {
		t.Fatal(err)
	}

	for cycle := 0; cycle < 4; cycle++ {
		// Dirty the output buffer so each generation has fresh chunks.
		if err := c.SetKernelArg(scale, 1, 4, f32bytes(float32(cycle)+2)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.EnqueueNDRangeKernel(app.q, scale, 1, [3]int{}, [3]int{app.n}, [3]int{64}, nil); err != nil {
			t.Fatal(err)
		}
		c.Finish(app.q)

		var ckErr error
		committed := false
		for attempt := 0; attempt < 5 && !committed; attempt++ {
			if _, ckErr = c.CheckpointToStore(st, "vadd"); ckErr == nil {
				committed = true
			}
		}
		if !committed {
			t.Fatalf("cycle %d: checkpoint failed 5 attempts: %v", cycle, ckErr)
		}

		if cycle == 1 {
			rep, err := st.Scrub(node.Clock)
			if err != nil {
				t.Fatalf("cycle %d: scrub: %v", cycle, err)
			}
			if !rep.OK() {
				t.Fatalf("cycle %d: scrub findings with a replica attached: %v", cycle, rep.Findings)
			}
		}

		want := readBuffers(t, c, app)
		rc, rst, err := RestoreFromStore(node, st, "vadd", Options{})
		if err != nil {
			t.Fatalf("cycle %d: restore: %v", cycle, err)
		}
		if rst.Degraded != nil {
			t.Fatalf("cycle %d: restore degraded with a replica attached: %v", cycle, rst.Degraded)
		}
		for m, w := range want {
			got, _, err := rc.EnqueueReadBuffer(app.q, m, true, 0, int64(len(w)), nil)
			if err != nil {
				t.Fatalf("cycle %d: read after restore: %v", cycle, err)
			}
			if !bytes.Equal(got, w) {
				t.Fatalf("cycle %d: buffer %v not bit-identical after restore", cycle, m)
			}
		}
		rc.Detach()
		rc.App().Kill()
	}
	if inj.Injected() == 0 {
		t.Fatal("the soak injected no faults")
	}
}

// TestRestoreFromStoreDegraded is the zero-replica contract: when the
// newest generation is damaged past healing, the restore falls back to
// the previous one and says so — and when nothing restores, the error is
// the typed *store.DegradedRestore, never a silently wrong payload.
func TestRestoreFromStoreDegraded(t *testing.T) {
	node := newNodeNV("pc0")
	ckptFS := proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk)
	st := store.New(ckptFS, fineChunks)

	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 1<<14)
	app.launch(t)
	c.Finish(app.q)

	if _, err := c.CheckpointToStore(st, "vadd"); err != nil {
		t.Fatal(err)
	}
	want1 := readBuffers(t, c, app)

	scale, err := c.CreateKernel(app.prog, "scale")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetKernelArg(scale, 0, 8, handleBytes(app.c)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetKernelArg(scale, 1, 4, f32bytes(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnqueueNDRangeKernel(app.q, scale, 1, [3]int{}, [3]int{app.n}, [3]int{64}, nil); err != nil {
		t.Fatal(err)
	}
	c.Finish(app.q)
	if _, err := c.CheckpointToStore(st, "vadd"); err != nil {
		t.Fatal(err)
	}

	// Corrupt a chunk only the newest generation references: its pack holds
	// the records of exactly the chunks the first generation did not have.
	if !ckptFS.FlipBit("ckptstore/packs/vadd/00000002.0", 4096*8) {
		t.Fatal("the second generation wrote no pack of its own")
	}
	clock := vtime.NewClock()

	rc, rst, err := RestoreFromStore(node, st, "vadd", Options{})
	if err != nil {
		t.Fatalf("degraded restore: %v", err)
	}
	if rst.Degraded == nil || rst.Degraded.Restored != "vadd@1" ||
		len(rst.Degraded.Skipped) != 1 || rst.Degraded.Skipped[0].ID != "vadd@2" {
		t.Fatalf("degradation report = %+v", rst.Degraded)
	}
	// The payload is the older generation's, bit for bit — in particular
	// the output buffer holds its pre-scale content.
	for m, w := range want1 {
		got, _, err := rc.EnqueueReadBuffer(app.q, m, true, 0, int64(len(w)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Errorf("buffer %v differs from generation 1 after degraded restore", m)
		}
	}
	rc.Detach()
	rc.App().Kill()

	// Damage every remaining generation: the restore must fail with the
	// typed report, never return garbage.
	for _, p := range []string{"ckptstore/manifests/vadd/00000001", "ckptstore/manifests/vadd/00000002"} {
		frame, err := ckptFS.ReadFile(clock, p)
		if err != nil {
			t.Fatal(err)
		}
		frame[len(frame)/2] ^= 0xFF
		if err := ckptFS.WriteFile(clock, p, frame); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = RestoreFromStore(node, st, "vadd", Options{})
	if err == nil {
		t.Fatal("restore with no restorable generation must fail")
	}
	var dr *store.DegradedRestore
	if !errors.As(err, &dr) || dr.Restored != "" {
		t.Fatalf("err = %v (%T), want wrapped *store.DegradedRestore", err, err)
	}
}
