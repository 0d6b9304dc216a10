package store

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"checl/internal/hw"
	"checl/internal/proc"
	"checl/internal/vtime"
)

// faultFS is a disk that runs under inj, with a node state to take it down by.
func faultFS(inj *proc.FaultInjector) *proc.FS {
	return proc.NewFS("primary", hw.TableISpec().LocalDisk, proc.WithFault(inj),
		proc.WithNodeState(proc.NewNodeState("primary")))
}

// rotRecord flips one bit in the middle of node's record of the chunk at sum.
func rotRecord(t *testing.T, f *Fleet, node, sum string) {
	t.Helper()
	for i, n := range f.placement(sum) {
		if n.name != node {
			continue
		}
		if loc, ok := f.lookup(n, sum, i); ok && n.fs.FlipBit(loc.pack, uint64(loc.off+loc.n/2)*8) {
			return
		}
	}
	t.Fatalf("%s holds no record of chunk %s", node, sum[:12])
}

// truncatePacks cuts every pack on fs to half its length: a torn tail, the
// records behind it lost.
func truncatePacks(t *testing.T, fs *proc.FS) {
	t.Helper()
	for _, p := range fs.List() {
		if !strings.Contains(p, "/packs/") {
			continue
		}
		data, err := fs.ReadFile(vtime.NewClock(), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(vtime.NewClock(), p, data[:len(data)/2]); err != nil {
			t.Fatal(err)
		}
	}
}

// onlyQuarantine fails if fs holds anything but quarantined frames.
func onlyQuarantine(t *testing.T, fs *proc.FS, when string) {
	t.Helper()
	for _, p := range fs.List() {
		if !strings.Contains(p, "/quarantine/") {
			t.Fatalf("%s: %s still holds %s (%d bytes in all)", when, fs.Name(), p, fs.TotalBytes())
		}
	}
}

// corruptFile flips one byte of path in place, bypassing any injector.
func corruptFile(t *testing.T, fs *proc.FS, path string) {
	t.Helper()
	clock := vtime.NewClock()
	data, err := fs.ReadFile(clock, path)
	if err != nil {
		t.Fatal(err)
	}
	data = append([]byte(nil), data...) // the filesystem lends its bytes read-only
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
	// A fault on every 3rd disk operation — torn, lost, rot, EIO — must be
	// absorbed by verified writes and retries: Put succeeds and the stored
	// checkpoint is bit-identical.
	inj := proc.NewFaultInjector(proc.DiskFaultPlan{Seed: 1, EveryN: 3})
	s := New(faultFS(inj), Config{})
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
	// Regression: a Put that dies after writing its pack must not leak the
	// pack's capacity forever. GC and Scrub each delete the orphan and return
	// the filesystem to its pre-Put usage.
	for name, reclaim := range map[string]func(*Fleet) error{
		"GC":    func(s *Fleet) error { _, err := s.GC(1); return err },
		"Scrub": func(s *Fleet) error { _, err := s.Scrub(vtime.NewClock()); return err },
	} {
		inj := proc.NewFaultInjector(proc.DiskFaultPlan{
			Seed: 2, EveryN: 1, SkipFirst: 2, Kinds: []proc.DiskFaultKind{proc.DiskFaultEIO},
		})
		fs := faultFS(inj)
		s := New(fs, Config{})
		clock := vtime.NewClock()

		_, _, err := s.Put(clock, "job", payload(21, 256<<10))
		if err == nil {
			t.Fatal("put should have failed under an unlimited EIO storm")
		}
		inj.Suspend()
		leaked := fs.TotalBytes()
		if leaked == 0 {
			t.Fatal("the failed put wrote nothing; the leak scenario did not occur")
		}
		if err := reclaim(s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if after := fs.TotalBytes(); after != 0 {
			t.Errorf("capacity leak: %d bytes still used after %s (was %d)", after, name, leaked)
		}
		rep, err := s.Fsck(clock)
		if err != nil || !rep.OK() {
			t.Fatalf("fsck after %s: %v %v", name, err, rep.Errors)
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
			t.Fatalf("roundtrip after %s: %v", name, err)
		}
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
	// The destination's pack lands; the burst takes the manifest write.
	inj := proc.NewFaultInjector(proc.DiskFaultPlan{
		Seed: 4, EveryN: 1, SkipFirst: 2, Max: 3, Kinds: []proc.DiskFaultKind{proc.DiskFaultEIO},
	})
	dst := New(proc.NewFS("replica", hw.TableISpec().LocalDisk, proc.WithFault(inj)), Config{})
	clock := vtime.NewClock()
	data := payload(24, 512<<10)
	if _, _, err := src.Put(clock, "job", data); err != nil {
		t.Fatal(err)
	}

	if _, _, err := src.Replicate(clock, "job", dst, hw.GigE); err == nil {
		t.Fatal("replicate should have failed under a 3-deep EIO burst")
	}
	// The destination has only an orphan pack: no manifest published.
	if _, ok, _ := dst.Latest("job"); ok {
		t.Fatal("interrupted replication published a manifest")
	}

	// Injector exhausted; the rerun finds the records the first try left,
	// moves nothing, completes, and is idempotent after.
	man, st, err := src.Replicate(clock, "job", dst, hw.GigE)
	if err != nil || st.ChunksCopied != 0 {
		t.Fatalf("replicate rerun: %+v %v", st, err)
	}
	got, _, err := dst.Get(clock, man.ID())
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("replica roundtrip after rerun: %v", err)
	}
	rep, err := dst.Fsck(clock)
	if err != nil || !rep.OK() {
		t.Fatalf("replica fsck: %v %v", err, rep.Errors)
	}
	_, st, err = src.Replicate(clock, "job", dst, hw.GigE)
	if err != nil || st.ChunksCopied != 0 {
		t.Errorf("third replicate not a no-op: %+v %v", st, err)
	}
}

func TestGetHealsFromReplica(t *testing.T) {
	primary := faultFS(nil)
	s := testMirror(t, primary, Config{})
	clock := vtime.NewClock()
	data := payload(25, 512<<10)
	man, _, err := s.Put(clock, "job", data)
	if err != nil {
		t.Fatal(err)
	}

	// Damage the primary: the second half of its pack lost, and a record in
	// the first half — one a read goes to, shard 0 — corrupted at rest.
	rotted := false
	for _, c := range man.Chunks {
		n := s.placement(c.Sum)[0]
		loc, _ := s.lookup(n, c.Sum, 0)
		if size, _ := primary.Size(loc.pack); n.name == "primary" && int64(loc.off+loc.n) <= size/2 {
			rotRecord(t, s, "primary", c.Sum)
			rotted = true
			break
		}
	}
	if !rotted {
		t.Fatal("no record in front of the tear to rot")
	}
	truncatePacks(t, primary)

	got, _, err := s.Get(clock, man.ID())
	if err != nil {
		t.Fatalf("healing get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("healed payload is not bit-identical")
	}
	if h := s.Heals(); h.ShardsHealed < 2 || h.ShardBytesHealed == 0 {
		t.Errorf("heal stats = %+v, want >= 2 records healed", h)
	}
	// The read wrote back what it read; a scrub restores the copies nobody
	// read, and then the primary is whole again: it serves alone.
	if rep, err := s.Scrub(clock); err != nil || !rep.OK() {
		t.Fatalf("scrub after healing get: %v %v", err, rep.Findings)
	}
	s.nodes["replica"].fs.SetNodeState(downState("replica"))
	if got, _, err := s.Get(clock, man.ID()); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("primary alone after healing: %v", err)
	}
	rep, err := s.Fsck(clock)
	if err != nil || !rep.OK() {
		t.Fatalf("fsck after healing get: %v %v", err, rep.Errors)
	}
}

// downState is the node state of a node that is down.
func downState(name string) *proc.NodeState {
	ns := proc.NewNodeState(name)
	ns.SetDown(true)
	return ns
}

func TestGetWithoutReplicasFailsLoud(t *testing.T) {
	s := New(testFS(), Config{})
	clock := vtime.NewClock()
	man, _, err := s.Put(clock, "job", payload(26, 256<<10))
	if err != nil {
		t.Fatal(err)
	}
	rotRecord(t, s, "local", man.Chunks[0].Sum)

	_, _, err = s.Get(clock, man.ID())
	if err == nil {
		t.Fatal("get of a corrupt checkpoint with no second copy must fail, not return a wrong payload")
	}
	if !strings.Contains(err.Error(), "lost: 0 of 1 shards survive") {
		t.Errorf("error does not explain the failed heal: %v", err)
	}
}

func TestScrubHealsDamagedStore(t *testing.T) {
	primary := faultFS(nil)
	s := testMirror(t, primary, Config{})
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

	// Damage every failure class at once: a record corrupted at rest,
	// records lost, a manifest frame torn, a manifest file lost entirely.
	truncatePacks(t, primary)
	rotRecord(t, s, "primary", mans[0].Chunks[0].Sum)
	pn := s.nodes["primary"]
	corruptFile(t, primary, pn.manifestPath("job", 1))
	if err := primary.Remove(pn.manifestPath("job", 2)); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub(clock)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scrub left findings: %v", rep.Findings)
	}
	if h := s.Heals(); rep.ShardsRebuilt == 0 || h.ShardsHealed != rep.ShardsRebuilt || h.ManifestsHealed < 2 {
		t.Errorf("scrub rebuilt %d, ledger %+v, want records and both manifests", rep.ShardsRebuilt, h)
	}
	// The primary serves every generation alone again.
	s.nodes["replica"].fs.SetNodeState(downState("replica"))
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
	// A scrub restores what a node lost, never what GC dropped: retention
	// reaches the mirror too.
	primary := faultFS(nil)
	s := testMirror(t, primary, Config{})
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
	for _, down := range []bool{false, true} {
		primary.Node().SetDown(down)
		if mans, _ := s.Manifests(); len(mans) != 1 || mans[0].Seq != 3 {
			t.Fatalf("primary down %v: scrub resurrected retired generations: %d manifests", down, len(mans))
		}
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

	// No second copy: a torn newest manifest and a rotted unique chunk of
	// the middle generation are unhealable.
	corruptFile(t, s.nodes["local"].fs, s.nodes["local"].manifestPath("job", 3))
	rotRecord(t, s, "local", uniqueChunkOf(t, mans[1], mans[0], mans[2]))

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
	primary := faultFS(nil)
	s := testMirror(t, primary, Config{})
	clock := vtime.NewClock()
	versions := uniqueVersions(2, 256<<10, 32<<10)

	for _, v := range versions {
		if _, _, err := s.Put(clock, "job", v); err != nil {
			t.Fatal(err)
		}
	}
	// The instant Put returns, the mirror alone serves every generation.
	primary.Node().SetDown(true)
	for i, v := range versions {
		got, _, err := s.Get(clock, manifestID("job", uint64(i+1)))
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("mirror alone, generation %d: %v", i+1, err)
		}
	}
	rep, err := s.Fsck(clock)
	if err != nil || !rep.OK() {
		t.Fatalf("mirror fsck: %v %v", err, rep.Errors)
	}
}

// TestMirrorPutDegradedThenScrub pins the fleet rule at 1+1: a Put with the
// mirror down succeeds on the primary alone — it is as durable as that one
// node until a repair pass — and Scrub restores the second copy, after which
// the mirror serves alone.
func TestMirrorPutDegradedThenScrub(t *testing.T) {
	primary := faultFS(nil)
	s := testMirror(t, primary, Config{})
	mirror := proc.NewNodeState("replica")
	s.nodes["replica"].fs.SetNodeState(mirror)
	clock := vtime.NewClock()
	data := payload(29, 256<<10)

	mirror.SetDown(true)
	man, _, err := s.Put(clock, "job", data)
	if err != nil {
		t.Fatalf("put with the mirror down: %v", err)
	}
	mirror.SetDown(false)
	rep, err := s.Scrub(clock)
	if err != nil || !rep.OK() || rep.ShardsRebuilt != len(man.Chunks) || rep.ManifestsHealed+s.Heals().ManifestsHealed == 0 {
		t.Fatalf("scrub: %v, %+v", err, rep)
	}
	primary.Node().SetDown(true)
	if got, _, err := s.Get(clock, "job"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("mirror alone after scrub: %v", err)
	}
}

func TestPutFaultPositionSweep(t *testing.T) {
	// Crash-consistency sweep: aim a burst of three consecutive faults
	// (deep enough to defeat the retry budget) at every operation position
	// of a Put in turn. Whatever the outcome, the store must end in a
	// trustworthy state: either the Put succeeded and the checkpoint is
	// bit-identical, or it failed and Scrub returns the store to empty but
	// for a torn manifest frame kept in quarantine.
	data := payload(27, 128<<10)
	for pos := 0; pos < 500; pos++ {
		inj := proc.NewFaultInjector(proc.DiskFaultPlan{
			Seed: uint64(pos), EveryN: 1, SkipFirst: pos, Max: 3,
		})
		fs := faultFS(inj)
		s := New(fs, Config{})
		clock := vtime.NewClock()

		man, _, err := s.Put(clock, "job", data)
		if inj.Injected() == 0 {
			if pos == 0 {
				t.Fatal("the sweep injected nothing")
			}
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
			if _, serr := s.Scrub(clock); serr != nil {
				t.Fatalf("pos %d: scrub: %v", pos, serr)
			}
			onlyQuarantine(t, fs, fmt.Sprintf("pos %d (%v): failed put, after Scrub", pos, inj.Events()))
			if _, gerr := s.GC(1); gerr != nil {
				t.Fatalf("pos %d: gc after scrub: %v", pos, gerr)
			}
		}
	}
}

func TestDurableFaultSoakKillEveryK(t *testing.T) {
	// The long soak: a primary under a continuous fault plan (every 7th
	// operation fails as a torn write, lost write, bit rot or EIO) with a
	// clean mirror, checkpointing an evolving payload. Every committed
	// generation must come back bit-identical, and the final restore walk
	// must report no degradation.
	inj := proc.NewFaultInjector(proc.DiskFaultPlan{Seed: 2026, EveryN: 7})
	s := testMirror(t, faultFS(inj), Config{})
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
		}
		if !ok {
			t.Fatalf("gen %d: put failed 5 attempts: %v", gen, lastErr)
		}
	}
	if inj.Injected() == 0 {
		t.Fatal("the soak injected no faults")
	}

	// Scrub with faults still flowing: retries and the mirror absorb them.
	rep, err := s.Scrub(clock)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scrub findings with a mirror attached: %v", rep.Findings)
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
