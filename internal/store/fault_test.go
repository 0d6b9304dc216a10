package store

import (
	"bytes"
	"strings"
	"testing"

	"checl/internal/hw"
	"checl/internal/proc"
	"checl/internal/vtime"
)

// faultStore builds a store whose backing FS runs under inj.
func faultStore(inj *proc.FaultInjector) *Store {
	fs := proc.NewFS("primary", hw.TableISpec().LocalDisk, proc.WithFault(inj))
	return New(fs, Config{})
}

// corruptFile flips one byte of path in place, bypassing any injector.
func corruptFile(t *testing.T, fs *proc.FS, path string) {
	t.Helper()
	clock := vtime.NewClock()
	data, err := fs.ReadFile(clock, path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := fs.WriteFile(clock, path, data); err != nil {
		t.Fatal(err)
	}
}

// uniqueVersions builds checkpoint payloads that share a common base but
// each own a unique tail, so every generation references at least one
// chunk no other generation does.
func uniqueVersions(n int, base, tail int) [][]byte {
	out := make([][]byte, n)
	common := payload(40, base)
	for i := range out {
		v := append([]byte(nil), common...)
		out[i] = append(v, payload(int64(1000+i), tail)...)
	}
	return out
}

func TestDurablePutUnderTransientFaults(t *testing.T) {
	// A fault on every 5th disk operation — torn, lost, rot, EIO — must be
	// absorbed by verified writes and retries: Put succeeds and the stored
	// checkpoint is bit-identical.
	inj := proc.NewFaultInjector(proc.DiskFaultPlan{Seed: 1, EveryN: 5})
	s := faultStore(inj)
	clock := vtime.NewClock()
	data := payload(20, 512<<10)

	man, _, err := s.Put(clock, "job", data)
	if err != nil {
		t.Fatalf("put under faults: %v (after %d ops, %d injected)", err, inj.Ops(), inj.Injected())
	}
	if inj.Injected() == 0 {
		t.Fatal("no faults were injected; the test exercised nothing")
	}

	inj.Suspend()
	got, _, err := s.Get(clock, man.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("checkpoint written under faults is not bit-identical")
	}
	rep, err := s.Fsck(clock)
	if err != nil || !rep.OK() {
		t.Fatalf("fsck after faulty put: %v %v", err, rep.Errors)
	}
}

func TestFailedPutRecoverReclaimsCapacity(t *testing.T) {
	// Regression: a Put that dies after staging some chunks must not leak
	// their capacity forever. Recover deletes the staged orphans and
	// returns the filesystem to its pre-Put usage.
	inj := proc.NewFaultInjector(proc.DiskFaultPlan{
		Seed: 2, EveryN: 1, SkipFirst: 4, Kinds: []proc.DiskFaultKind{proc.DiskFaultEIO},
	})
	s := faultStore(inj)
	clock := vtime.NewClock()

	_, _, err := s.Put(clock, "job", payload(21, 256<<10))
	if err == nil {
		t.Fatal("put should have failed under an unlimited EIO storm")
	}
	inj.Suspend()
	leaked := s.fs.TotalBytes()
	if leaked == 0 {
		t.Fatal("the failed put staged nothing; the leak scenario did not occur")
	}

	rst, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rst.StagedFiles == 0 || rst.StagedBytes == 0 {
		t.Fatalf("recover reclaimed nothing: %+v", rst)
	}
	if after := s.fs.TotalBytes(); after != 0 {
		t.Errorf("capacity leak: %d bytes still used after Recover (was %d)", after, leaked)
	}
	rep, err := s.Fsck(clock)
	if err != nil || !rep.OK() {
		t.Fatalf("fsck after recover: %v %v", err, rep.Errors)
	}

	// The store is fully usable again.
	data := payload(22, 256<<10)
	man, _, err := s.Put(clock, "job", data)
	if err != nil {
		t.Fatal(err)
	}
	if man.Seq != 1 {
		t.Errorf("failed put consumed a sequence number: next put got seq %d", man.Seq)
	}
	got, _, err := s.Get(clock, man.ID())
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("roundtrip after recover: %v", err)
	}
}

func TestRecoverQuarantinesTornManifest(t *testing.T) {
	s := New(testFS(), Config{})
	clock := vtime.NewClock()
	if _, _, err := s.Put(clock, "job", payload(23, 128<<10)); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, s.fs, s.manifestPath("job", 1))

	mans, issues := s.Manifests()
	if len(mans) != 0 || len(issues) != 1 || issues[0].ID() != "job@1" {
		t.Fatalf("manifests = %d good, issues = %v", len(mans), issues)
	}

	rst, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rst.ManifestsQuarantined != 1 {
		t.Fatalf("recover stats = %+v", rst)
	}
	// The torn frame is out of the way: no issues remain, the orphaned
	// chunks were reclaimed, and fsck is clean.
	if _, issues := s.Manifests(); len(issues) != 0 {
		t.Errorf("issues after recover: %v", issues)
	}
	if rst.OrphanChunks == 0 {
		t.Error("the quarantined manifest's chunks were not reclaimed")
	}
	rep, err := s.Fsck(clock)
	if err != nil || !rep.OK() {
		t.Fatalf("fsck after recover: %v %v", err, rep.Errors)
	}
	if !s.fs.Exists(s.quarantinePrefix() + "job-00000001") {
		t.Error("quarantined frame not preserved for post-mortem")
	}
}

func TestGCRefusesUnreadableManifests(t *testing.T) {
	s := New(testFS(), Config{})
	clock := vtime.NewClock()
	for _, v := range uniqueVersions(3, 256<<10, 32<<10) {
		if _, _, err := s.Put(clock, "job", v); err != nil {
			t.Fatal(err)
		}
	}
	corruptFile(t, s.fs, s.manifestPath("job", 1))

	_, err := s.GC(1)
	if err == nil {
		t.Fatal("gc ran with an unreadable manifest in the store")
	}
	if !strings.Contains(err.Error(), "Recover or Scrub") {
		t.Errorf("gc error does not point at the fix: %v", err)
	}

	// After Recover the torn frame is quarantined and GC proceeds.
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GC(1); err != nil {
		t.Fatalf("gc after recover: %v", err)
	}
}

func TestInterruptedGCIdempotentRerun(t *testing.T) {
	inj := proc.NewFaultInjector(proc.DiskFaultPlan{
		Seed: 3, EveryN: 1, Max: 3, Kinds: []proc.DiskFaultKind{proc.DiskFaultEIO},
	})
	fs := proc.NewFS("primary", hw.TableISpec().LocalDisk)
	s := New(fs, Config{})
	clock := vtime.NewClock()
	versions := uniqueVersions(4, 512<<10, 64<<10)
	for _, v := range versions {
		if _, _, err := s.Put(clock, "job", v); err != nil {
			t.Fatal(err)
		}
	}

	// Three consecutive EIOs defeat the retry budget: the first remove GC
	// attempts fails hard and GC aborts partway.
	fs.SetFault(inj)
	if _, err := s.GC(2); err == nil {
		t.Fatal("gc should have failed under a 3-deep EIO burst")
	}

	// The injector is exhausted (Max=3); re-running the same GC finishes
	// the job, and a third run is a no-op.
	st, err := s.GC(2)
	if err != nil {
		t.Fatalf("gc rerun: %v", err)
	}
	if st.ManifestsKept != 2 {
		t.Fatalf("gc rerun stats = %+v", st)
	}
	st2, err := s.GC(2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ManifestsDropped != 0 || st2.ChunksDropped != 0 {
		t.Errorf("third gc was not a no-op: %+v", st2)
	}

	rep, err := s.Fsck(clock)
	if err != nil || !rep.OK() {
		t.Fatalf("fsck after interrupted gc: %v %v", err, rep.Errors)
	}
	for seq := 3; seq <= 4; seq++ {
		got, _, err := s.Get(clock, manifestID("job", uint64(seq)))
		if err != nil || !bytes.Equal(got, versions[seq-1]) {
			t.Fatalf("kept generation %d damaged by interrupted gc: %v", seq, err)
		}
	}
}

func TestInterruptedReplicateIdempotentRerun(t *testing.T) {
	src := New(testFS(), Config{})
	inj := proc.NewFaultInjector(proc.DiskFaultPlan{
		Seed: 4, EveryN: 1, SkipFirst: 6, Max: 3, Kinds: []proc.DiskFaultKind{proc.DiskFaultEIO},
	})
	dstFS := proc.NewFS("replica", hw.TableISpec().LocalDisk, proc.WithFault(inj))
	dst := New(dstFS, Config{})
	clock := vtime.NewClock()
	data := payload(24, 512<<10)
	if _, _, err := src.Put(clock, "job", data); err != nil {
		t.Fatal(err)
	}

	if _, _, err := src.Replicate(clock, "job", dst, hw.GigE); err == nil {
		t.Fatal("replicate should have failed under a 3-deep EIO burst")
	}
	// The destination has only staged leftovers: no manifest published.
	if _, ok, _ := dst.Latest("job"); ok {
		t.Fatal("interrupted replication published a manifest")
	}

	// Injector exhausted; the rerun completes and is idempotent after.
	man, _, err := src.Replicate(clock, "job", dst, hw.GigE)
	if err != nil {
		t.Fatalf("replicate rerun: %v", err)
	}
	if _, err := dst.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _, err := dst.Get(clock, man.ID())
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("replica roundtrip after rerun: %v", err)
	}
	rep, err := dst.Fsck(clock)
	if err != nil || !rep.OK() {
		t.Fatalf("replica fsck: %v %v", err, rep.Errors)
	}
	_, st, err := src.Replicate(clock, "job", dst, hw.GigE)
	if err != nil || st.ChunksCopied != 0 {
		t.Errorf("third replicate not a no-op: %+v %v", st, err)
	}
}

func TestGetHealsFromReplica(t *testing.T) {
	s := New(testFS(), Config{})
	replica := New(proc.NewFS("replica", hw.TableISpec().LocalDisk), Config{})
	s.AttachReplica(replica, hw.GigE)
	clock := vtime.NewClock()
	data := payload(25, 512<<10)
	man, _, err := s.Put(clock, "job", data)
	if err != nil {
		t.Fatal(err)
	}

	// Damage the primary: one chunk corrupted at rest, another lost.
	corruptFile(t, s.fs, s.chunkPath(man.Chunks[0].Sum))
	victim := man.Chunks[len(man.Chunks)-1].Sum
	if victim == man.Chunks[0].Sum {
		t.Fatal("test needs two distinct chunks")
	}
	if err := s.fs.Remove(s.chunkPath(victim)); err != nil {
		t.Fatal(err)
	}

	got, _, err := s.Get(clock, man.ID())
	if err != nil {
		t.Fatalf("healing get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("healed payload is not bit-identical")
	}
	h := s.Heals()
	if h.ChunksHealed < 2 || h.BytesHealed == 0 {
		t.Errorf("heal stats = %+v, want >= 2 chunks healed", h)
	}
	// Healing wrote the good copies back: the primary is whole again.
	rep, err := s.Fsck(clock)
	if err != nil || !rep.OK() {
		t.Fatalf("fsck after healing get: %v %v", err, rep.Errors)
	}
}

func TestGetWithoutReplicasFailsLoud(t *testing.T) {
	s := New(testFS(), Config{})
	clock := vtime.NewClock()
	man, _, err := s.Put(clock, "job", payload(26, 256<<10))
	if err != nil {
		t.Fatal(err)
	}
	corruptFile(t, s.fs, s.chunkPath(man.Chunks[0].Sum))

	_, _, err = s.Get(clock, man.ID())
	if err == nil {
		t.Fatal("get of a corrupt checkpoint with no replicas must fail, not return a wrong payload")
	}
	if !strings.Contains(err.Error(), "no replica could supply a good copy") {
		t.Errorf("error does not explain the failed heal: %v", err)
	}
}

func TestScrubHealsDamagedStore(t *testing.T) {
	s := New(testFS(), Config{})
	replica := New(proc.NewFS("replica", hw.TableISpec().LocalDisk), Config{})
	s.AttachReplica(replica, hw.GigE)
	clock := vtime.NewClock()
	versions := uniqueVersions(2, 256<<10, 64<<10)
	var mans []Manifest
	for _, v := range versions {
		m, _, err := s.Put(clock, "job", v)
		if err != nil {
			t.Fatal(err)
		}
		mans = append(mans, m)
	}

	// Damage every failure class at once: a chunk corrupted at rest, a
	// chunk lost, a manifest frame torn, a manifest file lost entirely.
	corruptFile(t, s.fs, s.chunkPath(mans[0].Chunks[0].Sum))
	if err := s.fs.Remove(s.chunkPath(mans[1].Chunks[len(mans[1].Chunks)-1].Sum)); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, s.fs, s.manifestPath("job", 1))
	if err := s.fs.Remove(s.manifestPath("job", 2)); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub(clock)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scrub left findings: %v", rep.Findings)
	}
	if rep.Healed.ChunksHealed == 0 || rep.Healed.ManifestsHealed < 2 {
		t.Errorf("scrub healed %+v, want chunks and both manifests", rep.Healed)
	}
	for i, m := range mans {
		got, _, err := s.Get(clock, m.ID())
		if err != nil || !bytes.Equal(got, versions[i]) {
			t.Fatalf("generation %s after scrub: %v", m.ID(), err)
		}
	}
	frep, err := s.Fsck(clock)
	if err != nil || !frep.OK() {
		t.Fatalf("fsck after scrub: %v %v", err, frep.Errors)
	}
}

func TestScrubDoesNotResurrectGCdGenerations(t *testing.T) {
	// Replicas may hold generations the primary deliberately retired. A
	// scrub must pull back what the primary *lost*, never what it *dropped*.
	s := New(testFS(), Config{})
	replica := New(proc.NewFS("replica", hw.TableISpec().LocalDisk), Config{})
	s.AttachReplica(replica, hw.GigE)
	clock := vtime.NewClock()
	for _, v := range uniqueVersions(3, 256<<10, 32<<10) {
		if _, _, err := s.Put(clock, "job", v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.GC(1); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub(clock)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scrub findings: %v", rep.Findings)
	}
	if mans, _ := s.Manifests(); len(mans) != 1 || mans[0].Seq != 3 {
		t.Fatalf("scrub resurrected retired generations: %d manifests", len(mans))
	}
}

func TestScrubQuarantinesUnhealable(t *testing.T) {
	s := New(testFS(), Config{})
	clock := vtime.NewClock()
	versions := uniqueVersions(3, 256<<10, 64<<10)
	var mans []Manifest
	for _, v := range versions {
		m, _, err := s.Put(clock, "job", v)
		if err != nil {
			t.Fatal(err)
		}
		mans = append(mans, m)
	}

	// No replicas: a torn newest manifest and a rotted unique chunk of the
	// middle generation are unhealable.
	corruptFile(t, s.fs, s.manifestPath("job", 3))
	unique := uniqueChunkOf(t, mans[1], mans[0], mans[2])
	corruptFile(t, s.fs, s.chunkPath(unique))

	rep, err := s.Scrub(clock)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Quarantined) != 2 {
		t.Fatalf("scrub report = %+v", rep)
	}
	// The surviving generation restores; the quarantined ones are gone
	// loudly, not wrong silently.
	got, _, err := s.Get(clock, "job@1")
	if err != nil || !bytes.Equal(got, versions[0]) {
		t.Fatalf("surviving generation: %v", err)
	}
	if _, _, err := s.Get(clock, "job@2"); err == nil {
		t.Error("quarantined generation still resolvable")
	}
	frep, err := s.Fsck(clock)
	if err != nil || !frep.OK() {
		t.Fatalf("fsck after quarantine: %v %v", err, frep.Errors)
	}
}

// uniqueChunkOf returns a chunk sum m references that none of the others do.
func uniqueChunkOf(t *testing.T, m Manifest, others ...Manifest) string {
	t.Helper()
	shared := map[string]bool{}
	for _, o := range others {
		for _, c := range o.Chunks {
			shared[c.Sum] = true
		}
	}
	for _, c := range m.Chunks {
		if !shared[c.Sum] {
			return c.Sum
		}
	}
	t.Fatal("no unique chunk; enlarge the unique tail")
	return ""
}

func TestPutWritesThroughToReplicas(t *testing.T) {
	s := New(testFS(), Config{})
	r1 := New(proc.NewFS("replica1", hw.TableISpec().LocalDisk), Config{})
	r2 := New(proc.NewFS("replica2", hw.TableISpec().LocalDisk), Config{})
	s.AttachReplica(r1, hw.GigE)
	s.AttachReplica(r2, hw.GigE)
	clock := vtime.NewClock()
	versions := uniqueVersions(2, 256<<10, 32<<10)

	for _, v := range versions {
		if _, _, err := s.Put(clock, "job", v); err != nil {
			t.Fatal(err)
		}
	}
	// The instant Put returns, every replica serves every generation.
	for _, r := range []*Store{r1, r2} {
		for i, v := range versions {
			got, _, err := r.Get(clock, manifestID("job", uint64(i+1)))
			if err != nil || !bytes.Equal(got, v) {
				t.Fatalf("replica %s generation %d: %v", r.fs.Name(), i+1, err)
			}
		}
		rep, err := r.Fsck(clock)
		if err != nil || !rep.OK() {
			t.Fatalf("replica fsck: %v %v", err, rep.Errors)
		}
	}
}

func TestPutFaultPositionSweep(t *testing.T) {
	// Crash-consistency sweep: aim a burst of three consecutive faults
	// (deep enough to defeat the retry budget) at every operation position
	// of a Put in turn. Whatever the outcome, the store must end in a
	// trustworthy state: either the Put succeeded and the checkpoint is
	// bit-identical, or it failed and Recover returns the store to empty.
	data := payload(27, 128<<10)
	for pos := 0; pos < 500; pos++ {
		inj := proc.NewFaultInjector(proc.DiskFaultPlan{
			Seed: uint64(pos), EveryN: 1, SkipFirst: pos, Max: 3,
		})
		s := faultStore(inj)
		clock := vtime.NewClock()

		man, _, err := s.Put(clock, "job", data)
		if inj.Injected() == 0 {
			break // the sweep ran past the last operation of a clean Put
		}
		inj.Suspend()
		if err == nil {
			got, _, gerr := s.Get(clock, man.ID())
			if gerr != nil || !bytes.Equal(got, data) {
				t.Fatalf("pos %d (%v): put succeeded but payload wrong: %v", pos, inj.Events(), gerr)
			}
			rep, ferr := s.Fsck(clock)
			if ferr != nil || !rep.OK() {
				t.Fatalf("pos %d: fsck after successful put: %v %v", pos, ferr, rep.Errors)
			}
		} else {
			if _, rerr := s.Recover(); rerr != nil {
				t.Fatalf("pos %d: recover: %v", pos, rerr)
			}
			if used := s.fs.TotalBytes(); used != 0 {
				t.Fatalf("pos %d (%v): failed put leaked %d bytes past Recover", pos, inj.Events(), used)
			}
		}
	}
}

func TestDurableFaultSoakKillEveryK(t *testing.T) {
	// The long soak: a primary under a continuous fault plan (every 7th
	// operation fails as a torn write, lost write, bit rot or EIO) with two
	// clean replicas, checkpointing an evolving payload. Every committed
	// generation must come back bit-identical, and the final restore walk
	// must report no degradation.
	inj := proc.NewFaultInjector(proc.DiskFaultPlan{Seed: 2026, EveryN: 7})
	s := faultStore(inj)
	r1 := New(proc.NewFS("replica1", hw.TableISpec().LocalDisk), Config{})
	r2 := New(proc.NewFS("replica2", hw.TableISpec().LocalDisk), Config{})
	s.AttachReplica(r1, hw.GigE)
	s.AttachReplica(r2, hw.GigE)
	clock := vtime.NewClock()

	base := payload(28, 512<<10)
	committed := map[string][]byte{} // manifest ID -> expected payload
	for gen := 0; gen < 8; gen++ {
		v := append([]byte(nil), base...)
		copy(v[(gen*64)<<10:], payload(int64(300+gen), 16<<10))
		var lastErr error
		ok := false
		for attempt := 0; attempt < 5 && !ok; attempt++ {
			man, _, err := s.Put(clock, "soak", v)
			if err == nil {
				committed[man.ID()] = append([]byte(nil), v...)
				ok = true
				break
			}
			lastErr = err
			if _, rerr := s.Recover(); rerr != nil {
				t.Fatalf("gen %d: recover between attempts: %v", gen, rerr)
			}
		}
		if !ok {
			t.Fatalf("gen %d: put failed 5 attempts: %v", gen, lastErr)
		}
	}
	if inj.Injected() == 0 {
		t.Fatal("the soak injected no faults")
	}

	// Scrub with faults still flowing: retries and replicas absorb them.
	rep, err := s.Scrub(clock)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scrub findings with 2 replicas attached: %v", rep.Findings)
	}

	// Every committed generation restores bit-identical — reads heal
	// through the ongoing fault plan.
	for id, want := range committed {
		got, _, err := s.Get(clock, id)
		if err != nil {
			t.Fatalf("get %s under faults: %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("generation %s not bit-identical after soak", id)
		}
	}
	_, man, deg, err := s.GetNewestRestorable(clock, "soak", nil)
	if err != nil {
		t.Fatal(err)
	}
	if deg != nil {
		t.Fatalf("restore walk degraded (restored %s): %+v", man.ID(), deg)
	}
}
