package core

import (
	"testing"

	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/store"
	"checl/internal/vtime"
)

// specVaddItems is the item count of specVaddRun's vadd: each of its three
// buffers holds that many float32s.
const specVaddItems = 1 << 14

// specVaddRun drives one vadd application through a checkpoint with work
// issued mid-epoch (speculative arm) or just before the checkpoint
// (stop-drain arm): the device state at commit is identical either way,
// so the two arms must produce bit-identical images.
func specVaddRun(t *testing.T, speculative bool) (CheckpointStats, map[Handle]string, map[Handle]string) {
	t.Helper()
	node := newNodeNV("pc0")
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	_, c := attach(t, node, Options{Incremental: true})
	app := setupVaddApp(t, c, specVaddItems)
	app.launch(t)
	if err := c.Finish(app.q); err != nil {
		t.Fatal(err)
	}

	if speculative {
		if err := c.BeginCheckpointEpoch(); err != nil {
			t.Fatal(err)
		}
		if got := c.EpochState(); got != EpochSpeculating {
			t.Fatalf("epoch state after begin = %v, want Speculating", got)
		}
	}

	// Work after the copies started: rewrite the output buffer, then
	// launch the kernel again (its write-set names the output buffer).
	// Both must violate the in-flight speculative copy of app.c.
	junk := make([]byte, 4*app.n)
	for i := range junk {
		junk[i] = byte(i*13 + 7)
	}
	if _, err := c.EnqueueWriteBuffer(app.q, app.c, true, 0, junk, nil); err != nil {
		t.Fatal(err)
	}
	app.launch(t)
	if err := c.Finish(app.q); err != nil {
		t.Fatal(err)
	}

	stats, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.EpochState(); got != EpochIdle {
		t.Fatalf("epoch state after checkpoint = %v, want Idle", got)
	}
	live := memDigests(t, c)

	rc, rst, err := RestoreFromStore(node, st, "vadd", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	if rst.Degraded != nil {
		t.Fatalf("restore degraded: %v", rst.Degraded)
	}
	return stats, live, memDigests(t, rc)
}

// TestSpeculativeEpochBitIdentical: a checkpoint that speculated through
// mid-epoch writes and kernel launches restores bit-identical to the live
// state and to a stop-drain checkpoint of the same state — the violated
// copies were detected and re-drained.
func TestSpeculativeEpochBitIdentical(t *testing.T) {
	spec, specLive, specRestored := specVaddRun(t, true)
	base, _, baseRestored := specVaddRun(t, false)

	if !spec.Speculative {
		t.Fatal("speculative arm did not commit an epoch")
	}
	if base.Speculative {
		t.Fatal("baseline arm committed an epoch")
	}
	if spec.SpeculatedBuffers != 3 {
		t.Errorf("SpeculatedBuffers = %d, want 3", spec.SpeculatedBuffers)
	}
	if spec.ViolatedBuffers < 1 {
		t.Errorf("ViolatedBuffers = %d, want >= 1 (output buffer was written mid-epoch)", spec.ViolatedBuffers)
	}
	// One re-copy of each violated buffer, nothing more: commit runs on
	// quiesced queues, so no pass can be violated again.
	if want := int64(spec.ViolatedBuffers) * 4 * specVaddItems; spec.RecopiedBytes != want {
		t.Errorf("RecopiedBytes = %d, want %d (%d violated buffers of %d bytes)",
			spec.RecopiedBytes, want, spec.ViolatedBuffers, 4*specVaddItems)
	}

	for h, want := range specLive {
		if got := specRestored[h]; got != want {
			t.Errorf("buffer %v: restored %s != live %s (stale speculative copy committed)", h, got, want)
		}
	}
	if len(specRestored) != len(baseRestored) {
		t.Fatalf("object count diverged: speculative=%d stop-drain=%d", len(specRestored), len(baseRestored))
	}
	for h, want := range baseRestored {
		if got := specRestored[h]; got != want {
			t.Errorf("buffer %v: speculative image %s != stop-drain image %s", h, got, want)
		}
	}
}

// TestSpeculativeEpochDrainHidden: with application progress between epoch
// begin and commit, the speculative checkpoint's preprocess shrinks to
// the violated residue and the hidden copy time shows up as Overlap.
func TestSpeculativeEpochDrainHidden(t *testing.T) {
	run := func(speculative bool) CheckpointStats {
		node := newNodeNV("pc0")
		st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
		_, c := attach(t, node, Options{Incremental: true})
		app := setupVaddApp(t, c, 1<<16) // 256 KiB per buffer
		app.launch(t)
		if err := c.Finish(app.q); err != nil {
			t.Fatal(err)
		}

		// A small side buffer soaks up the mid-epoch writes so the three
		// big vadd buffers stay unviolated.
		small, err := c.CreateBuffer(app.ctx, ocl.MemReadWrite, 1<<10, nil)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := c.CreateKernel(app.prog, "scale")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetKernelArg(sk, 0, 8, handleBytes(small)); err != nil {
			t.Fatal(err)
		}
		if err := c.SetKernelArg(sk, 1, 4, f32bytes(1.5)); err != nil {
			t.Fatal(err)
		}

		if speculative {
			if err := c.BeginCheckpointEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		// Progress during the epoch: enough kernel time to hide the
		// overlapped drain of the big buffers.
		for i := 0; i < 64; i++ {
			if _, err := c.EnqueueNDRangeKernel(app.q, sk, 1, [3]int{}, [3]int{1 << 8}, [3]int{64}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Finish(app.q); err != nil {
			t.Fatal(err)
		}

		stats, err := c.CheckpointToStore(st, "vadd")
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	spec := run(true)
	base := run(false)

	if spec.ViolatedBuffers != 1 {
		t.Errorf("ViolatedBuffers = %d, want 1 (only the small scale buffer)", spec.ViolatedBuffers)
	}
	if spec.Overlap <= 0 {
		t.Errorf("Overlap = %s, want > 0 (drain hidden behind kernel time)", spec.Overlap)
	}
	if spec.Phases.Preprocess*2 >= base.Phases.Preprocess {
		t.Errorf("speculative preprocess %s not well below stop-drain %s",
			spec.Phases.Preprocess, base.Phases.Preprocess)
	}
	if spec.StallTime >= base.StallTime {
		t.Errorf("speculative stall %s >= stop-drain stall %s", spec.StallTime, base.StallTime)
	}
}

// TestSpeculationConservativeFallback: a kernel whose clc analysis failed
// (no recorded write-set) must conservatively violate every buffer it
// binds during an epoch — the pessimistic launch can never commit a stale
// speculative copy. The control arm with the analysis intact violates
// only the kernel's actual write-set.
func TestSpeculationConservativeFallback(t *testing.T) {
	run := func(dropWriteSet bool) (CheckpointStats, map[Handle]string, map[Handle]string) {
		node := newNodeNV("pc0")
		st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
		_, c := attach(t, node, Options{Incremental: true})
		app := setupVaddApp(t, c, 1<<12)
		app.launch(t)
		if err := c.Finish(app.q); err != nil {
			t.Fatal(err)
		}

		if dropWriteSet {
			// Simulate failed write-set analysis (indirect stores, an
			// unparsed builtin): the program record keeps no entry for the
			// kernel, so writtenMems falls back to every bound buffer.
			prec, err := c.db.program(Handle(app.prog))
			if err != nil {
				t.Fatal(err)
			}
			delete(prec.WriteSets, "vadd")
		}

		if err := c.BeginCheckpointEpoch(); err != nil {
			t.Fatal(err)
		}
		app.launch(t) // mid-epoch launch: writes c, analysis may not know
		if err := c.Finish(app.q); err != nil {
			t.Fatal(err)
		}

		stats, err := c.CheckpointToStore(st, "vadd")
		if err != nil {
			t.Fatal(err)
		}
		live := memDigests(t, c)
		rc, _, err := RestoreFromStore(node, st, "vadd", Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { rc.Detach(); rc.App().Kill() }()
		return stats, live, memDigests(t, rc)
	}

	pess, pessLive, pessRestored := run(true)
	exact, _, exactRestored := run(false)

	if pess.ViolatedBuffers != 3 {
		t.Errorf("pessimistic launch violated %d buffers, want all 3 bound", pess.ViolatedBuffers)
	}
	if exact.ViolatedBuffers != 1 {
		t.Errorf("analysed launch violated %d buffers, want 1 (the write-set)", exact.ViolatedBuffers)
	}
	for h, want := range pessLive {
		if got := pessRestored[h]; got != want {
			t.Errorf("buffer %v: pessimistic image stale (%s != live %s)", h, got, want)
		}
	}
	for h, want := range exactRestored {
		if got := pessRestored[h]; got != want {
			t.Errorf("buffer %v: pessimistic image %s != analysed image %s", h, got, want)
		}
	}
}

// TestSpeculativeEpochAbortOnFailover: a proxy death mid-epoch aborts the
// epoch deterministically — the next checkpoint stop-drains, reports the
// abort reason, and still restores bit-identical.
func TestSpeculativeEpochAbortOnFailover(t *testing.T) {
	node := newNodeNV("pc0")
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	_, c := attach(t, node, Options{
		Incremental:  true,
		AutoFailover: true, Shadow: ShadowFull,
	})
	app := setupVaddApp(t, c, 1<<12)
	app.launch(t)
	if err := c.Finish(app.q); err != nil {
		t.Fatal(err)
	}

	if err := c.BeginCheckpointEpoch(); err != nil {
		t.Fatal(err)
	}
	if got := c.EpochState(); got != EpochSpeculating {
		t.Fatalf("epoch state = %v, want Speculating", got)
	}

	// Kill the proxy mid-epoch; the next forwarded call fails over and
	// must abort the epoch (the dead proxy's copies are worthless).
	c.px.Kill()
	junk := make([]byte, 4*app.n)
	if _, err := c.EnqueueWriteBuffer(app.q, app.c, true, 0, junk, nil); err != nil {
		t.Fatalf("write across failover: %v", err)
	}
	if got := c.EpochState(); got != EpochIdle {
		t.Fatalf("epoch state after failover = %v, want Idle (aborted)", got)
	}

	stats, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Speculative {
		t.Error("checkpoint after abort still committed an epoch")
	}
	if stats.EpochAborted != "proxy failover" {
		t.Errorf("EpochAborted = %q, want \"proxy failover\"", stats.EpochAborted)
	}

	live := memDigests(t, c)
	rc, _, err := RestoreFromStore(node, st, "vadd", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rc.Detach(); rc.App().Kill() }()
	restored := memDigests(t, rc)
	for h, want := range live {
		if got := restored[h]; got != want {
			t.Errorf("buffer %v diverged after mid-epoch failover", h)
		}
	}
}

// TestSpeculativeStallTracker: the core checkpoint path feeds the shared
// vtime.StallTracker — phase labels for every checkpoint, spec labels for
// speculative ones — instead of an ad-hoc counter.
func TestSpeculativeStallTracker(t *testing.T) {
	node := newNodeNV("pc0")
	st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), fineChunks)
	_, c := attach(t, node, Options{Incremental: true})
	app := setupVaddApp(t, c, 1<<14)
	app.launch(t)
	if err := c.Finish(app.q); err != nil {
		t.Fatal(err)
	}
	if err := c.BeginCheckpointEpoch(); err != nil {
		t.Fatal(err)
	}
	stats, err := c.CheckpointToStore(st, "vadd")
	if err != nil {
		t.Fatal(err)
	}

	labels := c.Stall().ByLabel()
	if labels["spec-begin"] <= 0 {
		t.Errorf("spec-begin stall missing: %v", labels)
	}
	if labels["ckpt-write"] <= 0 {
		t.Errorf("ckpt-write stall missing: %v", labels)
	}
	if c.Stall().Total() <= 0 {
		t.Error("stall tracker recorded nothing")
	}
	var sum vtime.Duration
	for _, d := range labels {
		sum += d
	}
	if sum != c.Stall().Total() {
		t.Errorf("per-label sum %s != total %s", sum, c.Stall().Total())
	}
	if stats.StallTime < stats.Phases.Total() {
		t.Errorf("StallTime %s below phase total %s", stats.StallTime, stats.Phases.Total())
	}
}
