package store

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"checl/internal/hw"
	"checl/internal/proc"
	"checl/internal/vtime"
)

// fleetFiles is a digest of everything on every node: the listing a test
// compares to prove nothing was written.
func fleetFiles(f *Fleet) map[string][][2]string {
	out := map[string][][2]string{}
	for _, name := range f.Nodes() {
		st := nodeFS(f, name)
		out[name] = listing(st)
	}
	return out
}

// packReader reads each pack off a node's disk once, for tests that look at
// many records.
type packReader map[[2]string][]byte

func (pr packReader) read(n *fleetNode, path string) []byte {
	key := [2]string{n.name, path}
	if _, ok := pr[key]; !ok {
		pr[key], _ = n.fs.ReadFile(vtime.NewClock(), path)
	}
	return pr[key]
}

// goodRecords counts the records of one chunk that are on disk and pass
// their digest, reading the nodes' packs directly.
func (pr packReader) goodRecords(f *Fleet, sum string) int {
	good := 0
	for i, n := range f.placement(sum) {
		loc, ok := f.lookup(n, sum, i)
		if !ok {
			continue
		}
		if _, _, ok := recordAt(pr.read(n, loc.pack), loc.off, loc.n, sum, i); ok {
			good++
		}
	}
	return good
}

func goodRecords(t *testing.T, f *Fleet, sum string) int {
	t.Helper()
	return packReader{}.goodRecords(f, sum)
}

// packsOf lists a node's pack files.
func packsOf(f *Fleet, name string) []string {
	return f.packFiles(f.nodes[name])
}

func TestFleetPutWritesOnePackPerNode(t *testing.T) {
	f, _ := testFleet(t, 6, FleetConfig{})
	clock := vtime.NewClock()
	data := payload(70, 256<<10)
	man, st, err := f.Put(clock, "job", data)
	if err != nil {
		t.Fatal(err)
	}
	var physical int64
	for _, name := range f.Nodes() {
		packs := packsOf(f, name)
		if len(packs) != 1 || packs[0] != "ckptstore/packs/job/00000001.0" {
			t.Fatalf("%s holds packs %v, want exactly job/00000001.0", name, packs)
		}
		nst := nodeFS(f, name)
		raw, _ := nst.ReadFile(vtime.NewClock(), packs[0])
		recs, err := scanPack(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range recs {
			if _, _, err := decodeShard(raw[r.off : r.off+r.n]); err != nil {
				t.Fatalf("%s: record at %d: %v", name, r.off, err)
			}
		}
		physical += nst.TotalBytes()
	}
	if st.StoredBytes != physical {
		t.Errorf("PutStats.StoredBytes = %d, the nodes hold %d", st.StoredBytes, physical)
	}
	for _, c := range man.Chunks {
		if got := goodRecords(t, f, c.Sum); got != 6 {
			t.Fatalf("chunk %s has %d good records, want 6", c.Sum[:12], got)
		}
	}
	// A second generation is a second pack, never a rewrite of the first.
	before := fleetFiles(f)
	if _, _, err := f.Put(clock, "job", append(payload(71, 16<<10), data...)); err != nil {
		t.Fatal(err)
	}
	for name, files := range before {
		now := map[string]string{}
		nst := nodeFS(f, name)
		for _, e := range listing(nst) {
			now[e[0]] = e[1]
		}
		for _, e := range files {
			if now[e[0]] != e[1] {
				t.Fatalf("%s: %s changed under a later Put", name, e[0])
			}
		}
	}
}

// TestFleetPutSplitsLargeCheckpointsIntoParts: past packPartSize per node a
// Put writes a further part, and all of it restores.
func TestFleetPutSplitsLargeCheckpointsIntoParts(t *testing.T) {
	// 1+1 coding over two nodes: each node stores all of the payload, so a
	// payload a little over packPartSize is a two-part checkpoint.
	f, states := testFleet(t, 2, FleetConfig{DataShards: 1, ParityShards: 1,
		Store: Config{MinChunk: 16 << 10, AvgChunk: 64 << 10, MaxChunk: 256 << 10}})
	clock := vtime.NewClock()
	data := payload(72, packPartSize+packPartSize/4)
	if _, _, err := f.Put(clock, "big", data); err != nil {
		t.Fatal(err)
	}
	for _, name := range f.Nodes() {
		if packs := packsOf(f, name); len(packs) != 2 {
			t.Fatalf("%s holds %v, want two parts", name, packs)
		}
	}
	states[f.Nodes()[0]].SetDown(true)
	got, _, err := f.Get(clock, "big")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("restore of a two-part checkpoint with a node down: %v", err)
	}
}

// TestFleetPutCrashPositionSweep crashes every node, and every pair of
// nodes, at every injector tick of a Put: the Put commits, and the new
// generation restores bit-identical with the crashed nodes still down.
// Three nodes (one more than m) crashing fail the Put unless they go late;
// then the job restores, once they are back, to a generation that was
// written — the old one, or the new one if its manifest reached a node
// before the commit gave up — and never to anything else. In no case is a
// manifest left published whose chunks have fewer than k verified records.
func TestFleetPutCrashPositionSweep(t *testing.T) {
	gen1 := payload(80, 32<<10)
	gen2 := append(append([]byte(nil), gen1[:20<<10]...), payload(81, 16<<10)...)
	build := func() (*Fleet, map[string]*proc.NodeState) {
		f, states := testFleet(t, 6, FleetConfig{})
		if _, _, err := f.Put(vtime.NewClock(), "job", gen1); err != nil {
			t.Fatal(err)
		}
		return f, states
	}

	// Calibrate: how many injector ticks does the second Put take?
	f, _ := build()
	probe := proc.NewNodeFaultInjector(proc.NodeFaultPlan{})
	f.SetFaultInjector(probe)
	if _, _, err := f.Put(vtime.NewClock(), "job", gen2); err != nil {
		t.Fatal(err)
	}
	ops := probe.Ops()
	if ops < 12 {
		t.Fatalf("a Put ticked the injector %d times, want one per pack and per manifest copy", ops)
	}
	names := f.Nodes()
	k := f.Config().DataShards

	victimSets := append(combinations(len(names), 1), combinations(len(names), 2)...)
	victimSets = append(victimSets, []int{0, 1, 2}, []int{0, 3, 5}, []int{1, 2, 4}, []int{3, 4, 5})
	m := f.Config().ParityShards
	failed, committed := 0, 0
	for _, victims := range victimSets {
		for p := 0; p < ops; p++ {
			f, states := build()
			inj := proc.NewNodeFaultInjector(proc.NodeFaultPlan{
				Seed: uint64(p), EveryN: 1, SkipFirst: p, Max: len(victims),
				Kinds:   []proc.NodeFaultKind{proc.NodeFaultCrash},
				MaxDown: len(victims),
			})
			for _, vi := range victims {
				st := nodeFS(f, names[vi])
				states[names[vi]] = inj.Register(names[vi], st)
			}
			f.SetFaultInjector(inj)
			clock := vtime.NewClock()
			_, _, perr := f.Put(clock, "job", gen2)
			f.SetFaultInjector(nil)

			if perr != nil {
				failed++
			} else {
				committed++
			}
			if len(victims) > m {
				allUp(states)
			} else if perr != nil {
				t.Fatalf("victims=%v pos=%d: put with at most m nodes crashing: %v", victims, p, perr)
			}
			got, _, err := f.Get(clock, "job")
			if err != nil {
				t.Fatalf("victims=%v pos=%d (put err %v): restore: %v", victims, p, perr, err)
			}
			if !bytes.Equal(got, gen2) && (perr == nil || !bytes.Equal(got, gen1)) {
				t.Fatalf("victims=%v pos=%d (put err %v): restored the wrong bytes", victims, p, perr)
			}
			allUp(states)
			mans, issues := f.Manifests()
			if len(issues) > 0 {
				t.Fatalf("victims=%v pos=%d: unreadable manifests %v", victims, p, issues)
			}
			packs := packReader{}
			for _, m := range mans {
				for _, c := range m.Chunks {
					if good := packs.goodRecords(f, c.Sum); good < k {
						t.Fatalf("victims=%v pos=%d: %s references chunk %s with %d verified records",
							victims, p, m.ID(), c.Sum[:12], good)
					}
				}
			}
		}
	}
	if committed == 0 || failed == 0 {
		t.Fatalf("the sweep saw %d commits and %d failures, want both", committed, failed)
	}
	t.Logf("%d positions x %d victim sets: %d Puts committed, %d failed cleanly", ops, len(victimSets), committed, failed)
}

// TestFleetReopenServesWithoutAWrite: a fleet opened over filesystems that
// already hold packs — one of them torn, its lost records re-homed in a
// heal pack — rebuilds its index from the record headers and serves every
// manifest without writing anything.
func TestFleetReopenServesWithoutAWrite(t *testing.T) {
	f, _ := testFleet(t, 6, FleetConfig{})
	clock := vtime.NewClock()
	gens := [][]byte{payload(90, 128<<10), payload(91, 160<<10)}
	for _, g := range gens {
		if _, _, err := f.Put(clock, "job", g); err != nil {
			t.Fatal(err)
		}
	}
	// Tear one pack in half, then let Rebuild re-home what the tear lost.
	victim := f.Nodes()[1]
	vst := nodeFS(f, victim)
	torn := "ckptstore/packs/job/00000001.0"
	whole, err := vst.ReadFile(vtime.NewClock(), torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := vst.WriteFile(vtime.NewClock(), torn, whole[:len(whole)/2]); err != nil {
		t.Fatal(err)
	}
	rst, err := f.Rebuild(clock)
	if err != nil || rst.ShardsRebuilt == 0 {
		t.Fatalf("rebuild after a torn pack: %+v %v", rst, err)
	}
	half, _ := vst.ReadFile(vtime.NewClock(), torn)
	prefix, serr := scanPack(half)
	if !errors.Is(serr, errTornPack) || len(prefix) == 0 {
		t.Fatalf("torn pack scans to %d records, err %v", len(prefix), serr)
	}
	heal := 0
	for _, p := range packsOf(f, victim) {
		if strings.Contains(p, "/@heal/") {
			heal++
		}
	}
	if heal != 1 {
		t.Fatalf("victim holds %d heal packs, want 1", heal)
	}

	var nodes []FleetNode
	for _, name := range f.Nodes() {
		st := nodeFS(f, name)
		nodes = append(nodes, FleetNode{Name: name, FS: st})
	}
	before := fleetFiles(f)
	re, err := NewFleet(nodes, f.Config())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range gens {
		got, _, err := re.Get(clock, manifestID("job", uint64(i+1)))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("reopened fleet: job@%d: %v", i+1, err)
		}
	}
	man, _ := re.Resolve("job")
	for _, c := range man.Chunks {
		if good := goodRecords(t, re, c.Sum); good != 6 {
			t.Fatalf("reopened index finds %d good records of chunk %s, want 6", good, c.Sum[:12])
		}
	}
	if after := fleetFiles(re); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatal("serving from a reopened fleet wrote to a node")
	}
	if re.Heals() != (HealStats{}) {
		t.Fatalf("reopened fleet healed %+v; everything was there", re.Heals())
	}
	// New repair packs on the reopened fleet do not collide with old ones.
	if p := re.repairPack("heal"); vst.Exists(p) {
		t.Fatalf("reopened fleet would reuse %s", p)
	}
}

// TestFleetGCCompactsPacks: records of chunks a kept manifest references
// survive GC wherever they are, the rest are reclaimed, and redundancy is
// what it was.
func TestFleetGCCompactsPacks(t *testing.T) {
	f, states := testFleet(t, 6, FleetConfig{})
	clock := vtime.NewClock()
	versions := uniqueVersions(4, 256<<10, 64<<10)
	for _, v := range versions {
		if _, _, err := f.Put(clock, "job", v); err != nil {
			t.Fatal(err)
		}
	}
	packBytes := func() (n int64) {
		for _, name := range f.Nodes() {
			nst := nodeFS(f, name)
			for _, p := range packsOf(f, name) {
				sz, _ := nst.Size(p)
				n += sz
			}
		}
		return n
	}
	before := packBytes()
	st, err := f.GC(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.ManifestsDropped != 2 || st.ChunksDropped == 0 || st.ChunksKept == 0 || st.BytesReclaimed <= 0 {
		t.Fatalf("gc stats = %+v", st)
	}
	if after := packBytes(); before-after != st.BytesReclaimed {
		t.Fatalf("packs shrank by %d bytes, gc reports %d reclaimed", before-after, st.BytesReclaimed)
	}
	// Generation 1's pack held the shared base: it was compacted, not kept
	// whole and not dropped.
	for _, name := range f.Nodes() {
		for _, p := range packsOf(f, name) {
			if strings.Contains(p, "/job/00000001.") || strings.Contains(p, "/job/00000002.") {
				t.Fatalf("%s still holds %s", name, p)
			}
		}
	}
	names := f.Nodes()
	states[names[0]].SetDown(true)
	states[names[4]].SetDown(true)
	for seq := 3; seq <= 4; seq++ {
		got, _, err := f.Get(clock, manifestID("job", uint64(seq)))
		if err != nil || !bytes.Equal(got, versions[seq-1]) {
			t.Fatalf("generation %d after gc, two nodes down: %v", seq, err)
		}
	}
	allUp(states)
	again, err := f.GC(2)
	if err != nil || again.ChunksDropped != 0 || again.BytesReclaimed != 0 {
		t.Fatalf("second gc was not a no-op: %+v %v", again, err)
	}
}

// TestFleetInterruptedGCIdempotentRerun breaks GC on one node with a burst
// of I/O errors at every filesystem-operation position — among them the
// one that leaves a compacted pack written and its source not yet removed —
// reopens the fleet over what is left and reruns GC. The end state is the
// uninterrupted run's: same bytes stored, kept generations bit-identical
// with two nodes down, nothing left to collect.
func TestFleetInterruptedGCIdempotentRerun(t *testing.T) {
	versions := uniqueVersions(4, 128<<10, 32<<10)
	build := func() (*Fleet, []FleetNode) {
		nodes := make([]FleetNode, 6)
		for i := range nodes {
			name := fmt.Sprintf("fn-%02d", i)
			nodes[i] = FleetNode{Name: name, FS: proc.NewFS(name, hw.TableISpec().LocalDisk)}
		}
		f, err := NewFleet(nodes, FleetConfig{Store: Config{MinChunk: 1 << 10, AvgChunk: 4 << 10, MaxChunk: 16 << 10}})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range versions {
			if _, _, err := f.Put(vtime.NewClock(), "job", v); err != nil {
				t.Fatal(err)
			}
		}
		return f, nodes
	}
	clean, _ := build()
	if _, err := clean.GC(2); err != nil {
		t.Fatal(err)
	}
	want := clean.TotalStoredBytes()

	interrupted := 0
	for pos := 0; ; pos++ {
		f, nodes := build()
		inj := proc.NewFaultInjector(proc.DiskFaultPlan{
			Seed: 3, EveryN: 1, SkipFirst: pos, Max: 3, Kinds: []proc.DiskFaultKind{proc.DiskFaultEIO},
		})
		nodes[2].FS.SetFault(inj)
		_, gcErr := f.GC(2)
		fired := inj.Injected()
		nodes[2].FS.SetFault(nil)
		if fired == 0 {
			break // pos is past GC's last operation on the node
		}
		if gcErr != nil {
			interrupted++
		}

		re, err := NewFleet(nodes, f.Config())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := re.GC(2); err != nil {
			t.Fatalf("pos %d: gc rerun: %v", pos, err)
		}
		if got := re.TotalStoredBytes(); got != want {
			t.Fatalf("pos %d (first gc: %v): %d bytes stored after the rerun, an uninterrupted gc leaves %d", pos, gcErr, got, want)
		}
		if st, err := re.GC(2); err != nil || st.ChunksDropped != 0 || st.BytesReclaimed != 0 {
			t.Fatalf("pos %d: third gc was not a no-op: %+v %v", pos, st, err)
		}
		down := []*proc.NodeState{proc.NewNodeState("fn-01"), proc.NewNodeState("fn-02")}
		nodes[1].FS.SetNodeState(down[0])
		nodes[2].FS.SetNodeState(down[1])
		down[0].SetDown(true)
		down[1].SetDown(true)
		for seq := 3; seq <= 4; seq++ {
			got, _, err := re.Get(vtime.NewClock(), manifestID("job", uint64(seq)))
			if err != nil || !bytes.Equal(got, versions[seq-1]) {
				t.Fatalf("pos %d: generation %d after interrupted gc: %v", pos, seq, err)
			}
		}
	}
	if interrupted == 0 {
		t.Fatal("no position interrupted the gc")
	}
}

// TestNodeFaultShardRotCostsOneRecord: one injected rot flips one bit
// inside a pack. Exactly one record stops verifying — every other record of
// that pack is as good as before — and the chunk heals from its peers.
func TestNodeFaultShardRotCostsOneRecord(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		f, _ := testFleet(t, 6, FleetConfig{})
		clock := vtime.NewClock()
		data := payload(int64(200+seed), 128<<10)
		man, _, err := f.Put(clock, "job", data)
		if err != nil {
			t.Fatal(err)
		}
		inj := proc.NewNodeFaultInjector(proc.NodeFaultPlan{
			Seed: seed, EveryN: 1, Max: 1, Kinds: []proc.NodeFaultKind{proc.NodeFaultShardRot},
		})
		f.AttachFaults(inj)
		inj.Tick()
		f.SetFaultInjector(nil)
		events := inj.Events()
		if len(events) != 1 || !strings.Contains(events[0].Path, "/packs/") {
			t.Fatalf("seed %d: injected %+v, want one rot inside a pack", seed, events)
		}

		total, good := 0, 0
		for _, c := range man.Chunks {
			total += 6
			good += goodRecords(t, f, c.Sum)
		}
		if good != total-1 {
			t.Fatalf("seed %d: one flipped bit in %s left %d of %d records verifying", seed, events[0].Path, good, total)
		}
		if got, _, err := f.Get(clock, "job"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("seed %d: restore over a rotten record: %v", seed, err)
		}
		st, err := f.Rebuild(clock)
		if err != nil {
			t.Fatal(err)
		}
		if healed := f.Heals().ShardsHealed; healed != 1 {
			t.Fatalf("seed %d: %d records healed (rebuild wrote %d), want exactly the rotten one", seed, healed, st.ShardsRebuilt)
		}
		for _, c := range man.Chunks {
			if got := goodRecords(t, f, c.Sum); got != 6 {
				t.Fatalf("seed %d: chunk %s has %d good records after the heal", seed, c.Sum[:12], got)
			}
		}
	}
}

// packSeeds are real packs — a Put's and a heal pack — plus truncations
// and single-byte flips of them.
func packSeeds(t testing.TB) [][]byte {
	var b packBuf
	for i, payload := range [][]byte{[]byte("first shard"), nil, bytes.Repeat([]byte{0x5A}, 200)} {
		sum := strings.Repeat(fmt.Sprintf("%02x", 0x11*(i+1)), 32)
		if err := b.add(shardHeader{sum: sum, idx: i, k: 4, m: 2, origLen: 4 * len(payload)}, payload); err != nil {
			t.Fatal(err)
		}
	}
	seeds := [][]byte{nil, b.data}
	for _, cut := range []int{1, shardHeaderSize - 1, shardHeaderSize + 3, b.recs[1].off, b.recs[2].off + 10, len(b.data) - 1} {
		seeds = append(seeds, b.data[:cut])
	}
	for _, at := range []int{0, 8, 13, shardAddrOff + 1, shardDigestOff, shardHeaderSize + 2, b.recs[1].off + 12, len(b.data) - 1} {
		flipped := append([]byte(nil), b.data...)
		flipped[at] ^= 0x10
		seeds = append(seeds, flipped)
	}
	// What a 1+0 store and a mirror write: whole blobs, k=1, m 0 or 1.
	for m := 0; m <= 1; m++ {
		var d packBuf
		for i, payload := range [][]byte{[]byte("a whole blob"), bytes.Repeat([]byte{0x3C}, 90)} {
			sum := strings.Repeat(fmt.Sprintf("%02x", 0x21*(i+1)), 32)
			if err := d.add(shardHeader{sum: sum, idx: m, k: 1, m: m, origLen: len(payload)}, payload); err != nil {
				t.Fatal(err)
			}
		}
		seeds = append(seeds, d.data, d.data[:len(d.data)-5])
	}
	return seeds
}

func TestScanPackTornTailYieldsPrefix(t *testing.T) {
	if (&packBuf{}).add(shardHeader{sum: "not an address"}, nil) == nil {
		t.Fatal("a record was framed for a chunk address that is no SHA-256")
	}
	seeds := packSeeds(t)
	whole := seeds[1]
	recs, err := scanPack(whole)
	if err != nil || len(recs) != 3 {
		t.Fatalf("whole pack: %d records, %v", len(recs), err)
	}
	for cut := 0; cut < len(whole); cut++ {
		got, err := scanPack(whole[:cut])
		wantN := 0
		for _, r := range recs {
			if r.off+r.n <= cut {
				wantN++
			}
		}
		atBoundary := cut == 0 || (wantN > 0 && recs[wantN-1].off+recs[wantN-1].n == cut)
		if len(got) != wantN || (err == nil) != atBoundary {
			t.Fatalf("cut at %d: %d records err %v, want %d records, clean=%v", cut, len(got), err, wantN, atBoundary)
		}
		if err != nil && !errors.Is(err, errTornPack) {
			t.Fatalf("cut at %d: untyped error %v", cut, err)
		}
	}
}
