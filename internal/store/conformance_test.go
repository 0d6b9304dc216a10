package store

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"checl/internal/hw"
	"checl/internal/proc"
	"checl/internal/vtime"
)

// The store's contract, checked once over every geometry. A row is one
// behaviour; a column is one way of opening a store: on one disk (1+0), on
// a disk with a mirror (1+1; the column names are older than the
// geometries), and a 4+2 fleet healthy and with two nodes down. What
// depends on where the records lie (loss patterns, pack layout, crash
// sweeps) has its own tests in fault_test.go, fleet_test.go and
// pack_test.go.

// confStore is one opened store.
type confStore struct {
	*Fleet
	// overhead bounds physical bytes per incompressible payload byte.
	overhead float64
	// open builds another empty store of the same kind.
	open func(t *testing.T, cfg Config) confStore
}

var confBackends = []struct {
	name string
	open func(t *testing.T, cfg Config) confStore
}{
	{"disk", func(t *testing.T, cfg Config) confStore {
		return confStore{Fleet: New(testFS(), cfg), overhead: 1.1}
	}},
	{"disk+replica", func(t *testing.T, cfg Config) confStore {
		return confStore{Fleet: testMirror(t, testFS(), cfg), overhead: 2.2}
	}},
	{"fleet-4+2", func(t *testing.T, cfg Config) confStore { return openConfFleet(t, cfg, 0) }},
	{"fleet-4+2-two-down", func(t *testing.T, cfg Config) confStore { return openConfFleet(t, cfg, 2) }},
}

// testMirror opens a 1+1 store: fs, and a mirror on a clean disk of its own.
func testMirror(t *testing.T, fs *proc.FS, cfg Config) *Fleet {
	t.Helper()
	f, err := NewMirror(fs, proc.NewFS("replica", hw.TableISpec().LocalDisk), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func openConfFleet(t *testing.T, cfg Config, down int) confStore {
	// testFleet's fine chunking, spelled out so the rest of cfg survives.
	cfg.MinChunk, cfg.AvgChunk, cfg.MaxChunk = 1<<10, 4<<10, 16<<10
	f, states := testFleet(t, 6, FleetConfig{Store: cfg})
	for _, name := range f.Nodes()[:down] {
		states[name].SetDown(true)
	}
	return confStore{Fleet: f, overhead: 1.9}
}

// disks lists the filesystems of the nodes that are up, in name order:
// where a row goes to damage files directly.
func (cs confStore) disks() []*proc.FS {
	var out []*proc.FS
	for _, name := range cs.names {
		if n := cs.nodes[name]; n.alive() {
			out = append(out, n.fs)
		}
	}
	return out
}

// damage applies fn to every reachable file whose path contains part.
func (cs confStore) damage(t *testing.T, part string, fn func(fs *proc.FS, path string)) {
	t.Helper()
	hit := 0
	for _, fs := range cs.disks() {
		for _, p := range fs.List() {
			if strings.Contains(p, part) {
				fn(fs, p)
				hit++
			}
		}
	}
	if hit == 0 {
		t.Fatalf("no file matches %q", part)
	}
}

// tearManifest corrupts every copy of job@seq.
func (cs confStore) tearManifest(t *testing.T, job string, seq uint64) {
	t.Helper()
	cs.damage(t, fmt.Sprintf("/manifests/%s/%08d", job, seq), func(fs *proc.FS, p string) { corruptFile(t, fs, p) })
}

// loseChunk destroys every reachable record of one chunk.
func (cs confStore) loseChunk(t *testing.T, sum string) {
	t.Helper()
	hit := 0
	for i, n := range cs.placement(sum) {
		if loc, ok := cs.lookup(n, sum, i); ok && n.alive() {
			n.fs.FlipBit(loc.pack, uint64(loc.off+loc.n-1)*8)
			hit++
		}
	}
	if hit == 0 {
		t.Fatalf("no record of chunk %s", sum[:12])
	}
}

func mustPut(t *testing.T, cs confStore, clock *vtime.Clock, job string, data []byte, segs []Segment) (Manifest, PutStats) {
	t.Helper()
	man, st, err := cs.PutSegmented(clock, job, data, segs)
	if err != nil {
		t.Fatalf("put %s: %v", job, err)
	}
	return man, st
}

// tile lays parts out back to back as one payload and its segment map.
func tile(clean map[string]bool, names []string, parts map[string][]byte) ([]byte, []Segment) {
	var data []byte
	var segs []Segment
	for _, n := range names {
		segs = append(segs, Segment{Name: n, Off: int64(len(data)), Len: int64(len(parts[n])), Clean: clean[n]})
		data = append(data, parts[n]...)
	}
	return data, segs
}

// asLists turns a tiled payload into the byte-list form of the same
// checkpoint: no payload, each segment carrying its own bytes as a short
// prefix and the rest — the way a process image's regions arrive.
func asLists(data []byte, segs []Segment) ([]byte, []Segment) {
	out := append([]Segment(nil), segs...)
	for i, sg := range out {
		b := data[sg.Off : sg.Off+sg.Len]
		cut := min(7, len(b))
		out[i].Data = [][]byte{b[:cut], b[cut:]}
	}
	return nil, out
}

// sameFiles fails unless the two stores hold the same files with the same
// bytes, node by node.
func sameFiles(t *testing.T, a, b confStore) {
	t.Helper()
	da, db := a.disks(), b.disks()
	if len(da) != len(db) {
		t.Fatalf("%d nodes against %d", len(da), len(db))
	}
	for i := range da {
		fa, fb := da[i], db[i]
		if la, lb := fa.List(), fb.List(); !reflect.DeepEqual(la, lb) {
			t.Fatalf("store %d: files differ:\n %v\n %v", i, la, lb)
		}
		for _, p := range fa.List() {
			da, _ := fa.ReadFile(vtime.NewClock(), p)
			db, _ := fb.ReadFile(vtime.NewClock(), p)
			if !bytes.Equal(da, db) {
				t.Errorf("store %d: %s differs", i, p)
			}
		}
	}
}

var confRows = []struct {
	name string
	run  func(t *testing.T, cs confStore)
}{
	{"put-get round trip", func(t *testing.T, cs confStore) {
		clock := vtime.NewClock()
		data := payload(4, 300<<10)
		man, st := mustPut(t, cs, clock, "jobA", data, nil)
		if man.Seq != 1 || man.Parent != "" || man.ID() != "jobA@1" {
			t.Errorf("manifest = %+v", man)
		}
		if st.NewBytes != st.TotalBytes || st.NewChunks != st.TotalChunks || st.StoredBytes == 0 {
			t.Errorf("first put should be all-new: %+v", st)
		}
		if st.Time <= 0 {
			t.Error("put charged no virtual time")
		}
		for _, ref := range []string{"jobA", "jobA@1"} {
			got, gman, err := cs.Get(clock, ref)
			if err != nil {
				t.Fatalf("get %s: %v", ref, err)
			}
			if gman.ID() != man.ID() || !bytes.Equal(got, data) {
				t.Fatalf("get %s did not return the stored payload", ref)
			}
		}
		if _, _, err := cs.Get(clock, "nosuch"); err == nil {
			t.Error("get of unknown job must fail")
		}
		if _, _, err := cs.Get(clock, "jobA@x"); err == nil {
			t.Error("get of a malformed ref must fail")
		}
		if total := cs.TotalStoredBytes(); total > int64(float64(len(data))*cs.overhead) {
			t.Errorf("stored %d bytes for a %d-byte payload, over %.1fx", total, len(data), cs.overhead)
		}
	}},

	{"bad job names", func(t *testing.T, cs confStore) {
		for _, job := range []string{"", "a/b", "a@1"} {
			if _, _, err := cs.Put(vtime.NewClock(), job, []byte("x")); err == nil {
				t.Errorf("job %q accepted", job)
			}
		}
		if jobs := cs.Jobs(); len(jobs) != 0 {
			t.Errorf("rejected puts left jobs %v", jobs)
		}
	}},

	{"dedup across checkpoints", func(t *testing.T, cs confStore) {
		clock := vtime.NewClock()
		base := payload(5, 1<<20)
		_, st1 := mustPut(t, cs, clock, "job", base, nil)
		man2, st2 := mustPut(t, cs, clock, "job", base, nil)
		if man2.Seq != 2 || man2.Parent != "job@1" {
			t.Errorf("lineage wrong: %+v", man2)
		}
		if st2.NewBytes != 0 || st2.NewChunks != 0 || st2.DedupRatio() != 1 {
			t.Errorf("identical payload should fully dedup: %+v", st2)
		}
		// A localised edit re-uploads only the chunks around it.
		edited := append([]byte(nil), base...)
		copy(edited[512<<10:], payload(6, 4<<10))
		_, st3 := mustPut(t, cs, clock, "job", edited, nil)
		if st3.NewBytes == 0 || st3.NewBytes > st1.NewBytes/4 {
			t.Errorf("4 KiB edit re-uploaded %d of %d bytes", st3.NewBytes, st1.NewBytes)
		}
	}},

	{"dedup across jobs", func(t *testing.T, cs confStore) {
		clock := vtime.NewClock()
		base := payload(30, 192<<10)
		const jobs = 40
		mine := func(j int) []byte { return append(append([]byte(nil), base...), payload(int64(1000+j), 4<<10)...) }
		var logical int64
		for j := 0; j < jobs; j++ {
			logical += int64(len(mine(j)))
			mustPut(t, cs, clock, fmt.Sprintf("job-%03d", j), mine(j), nil)
		}
		_, st := mustPut(t, cs, clock, "twin", mine(7), nil)
		if st.NewBytes != 0 {
			t.Errorf("identical payload under another job should fully dedup: %+v", st)
		}
		if got := cs.Jobs(); len(got) != jobs+1 || got[0] != "job-000" || got[jobs] != "twin" {
			t.Errorf("jobs = %v", got)
		}
		// One shared base (+ parity, manifests, unique tails): anything
		// under 3x means the base was stored repeatedly.
		if ratio := float64(logical) / float64(cs.TotalStoredBytes()); ratio < 3 {
			t.Errorf("dedup ratio %.1fx — base image not shared", ratio)
		}
		for _, j := range []int{0, 19, 39} {
			got, _, err := cs.Get(clock, fmt.Sprintf("job-%03d", j))
			if err != nil || !bytes.Equal(got, mine(j)) {
				t.Fatalf("job %d after dedup: %v", j, err)
			}
		}
	}},

	{"GetSegment", func(t *testing.T, cs confStore) {
		clock := vtime.NewClock()
		// The first segment alone fills a pack part, so the other two lie in
		// a pack of their own on every node.
		names := []string{"rank/00000", "rank/00001", "rank/00002"}
		parts := map[string][]byte{names[0]: payload(10, packPartSize+300<<10), names[1]: payload(11, 5<<10), names[2]: payload(12, 90<<10)}
		full, segs := tile(nil, names, parts)
		man, _ := mustPut(t, cs, clock, "segjob", full, segs)
		for _, name := range names {
			got, gman, err := cs.GetSegment(clock, "segjob", name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if gman.ID() != man.ID() || !bytes.Equal(got, parts[name]) {
				t.Errorf("%s: wrong manifest or payload (%d bytes, want %d)", name, len(got), len(parts[name]))
			}
		}
		// Reading one segment must charge less than reading the whole payload:
		// it reads the packs its records are in and no other.
		before := clock.Now()
		if _, _, err := cs.GetSegment(clock, "segjob", names[1]); err != nil {
			t.Fatal(err)
		}
		segCost := clock.Now().Sub(before)
		before = clock.Now()
		if _, _, err := cs.Get(clock, "segjob"); err != nil {
			t.Fatal(err)
		}
		if fullCost := clock.Now().Sub(before); !(segCost < fullCost) {
			t.Errorf("segment read (%v) should be cheaper than full read (%v)", segCost, fullCost)
		}
		if _, _, err := cs.GetSegment(clock, "segjob", "rank/99999"); err == nil {
			t.Error("unknown segment name should fail")
		}
		if _, _, err := cs.GetSegment(clock, "nosuchjob", names[0]); err == nil {
			t.Error("unknown job should fail")
		}
		flat, _ := mustPut(t, cs, clock, "flatjob", payload(13, 64<<10), nil)
		if _, _, err := cs.GetSegment(clock, flat.ID(), names[0]); err == nil {
			t.Error("segment read of an unsegmented checkpoint should fail")
		}
	}},

	{"Get returns what Put stored, and fails the way it used to", func(t *testing.T, cs confStore) {
		clock := vtime.NewClock()
		// Both codecs, and a segment map so chunk boundaries are not all by content.
		parts := map[string][]byte{"a": payload(80, 70<<10), "b": compressible(5, 50<<10), "c": payload(81, 9<<10)}
		data, segs := tile(nil, []string{"a", "b", "c"}, parts)
		man, _ := mustPut(t, cs, clock, "job", data, segs)
		if got, _, err := cs.Get(clock, "job"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("undamaged get: %v", err)
		}
		healed := func() int { return cs.Heals().ShardsHealed }
		// One flipped bit in every chunk in turn — in one of its records, a
		// different one and a different bit from chunk to chunk. Last chunk
		// first: what one round loses for good lies behind the chunk the next
		// round damages.
		seen := map[string]bool{}
		for i := len(man.Chunks) - 1; i >= 0; i-- {
			ref := man.Chunks[i]
			if seen[ref.Sum] {
				continue
			}
			seen[ref.Sum] = true
			before := healed()
			want := "" // the error Get must fail with, if it must
			wantHealed := 0
			// The first record at or after shard i mod (k+m) on a node that is up.
			nodes := cs.placement(ref.Sum)
			alive, at := 0, -1
			for idx, n := range nodes {
				if n.alive() {
					alive++
					if at < 0 && idx >= i%len(nodes) {
						at = idx
					}
				}
			}
			if at < 0 {
				at = len(nodes) - 1
			}
			loc, ok := cs.lookup(nodes[at], ref.Sum, at)
			if !ok || !nodes[at].fs.FlipBit(loc.pack, uint64(loc.off*8+i*131%(loc.n*8))) {
				t.Fatalf("chunk %d: no record %d to damage", i, at)
			}
			switch k := cs.cfg.DataShards; {
			case alive == k:
				want = fmt.Sprintf("store: fleet: chunk %s lost: %d of %d shards survive, need %d", ref.Sum[:12], k-1, len(nodes), k)
			case at < k:
				wantHealed = 1 // a parity record nobody reads is nobody's to find
			}
			got, _, err := cs.Get(clock, "job")
			if want != "" {
				if err == nil || err.Error() != want {
					t.Fatalf("chunk %d: err = %v\n want %s", i, err, want)
				}
				continue
			}
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("chunk %d: damaged get: %v", i, err)
			}
			if n := healed() - before; n != wantHealed {
				t.Fatalf("chunk %d: %d repairs, want %d", i, n, wantHealed)
			}
		}
	}},

	{"clean-segment reuse and fallback", func(t *testing.T, cs confStore) {
		// Once with contiguous payloads, once — on a fresh store — with
		// the same checkpoints handed in as byte lists.
		forms := map[string]func([]byte, []Segment) ([]byte, []Segment){
			"contiguous": func(data []byte, segs []Segment) ([]byte, []Segment) { return data, segs },
			"byte lists": asLists,
		}
		for form, as := range forms {
			cs := cs.open(t, Config{})
			clock := vtime.NewClock()
			put := func(data []byte, segs []Segment) (Manifest, PutStats) {
				t.Helper()
				payload, segs := as(data, segs)
				return mustPut(t, cs, clock, "job", payload, segs)
			}
			parts := map[string][]byte{"a": payload(20, 96<<10), "b": payload(21, 24<<10)}
			data, segs := tile(nil, []string{"a", "b"}, parts)
			man1, _ := put(data, segs)

			// b changes, a is clean and reuses the parent's refs; c claims to be
			// clean but the parent has no such segment, so it is chunked.
			parts["b"], parts["c"] = payload(22, 24<<10), payload(23, 16<<10)
			data, segs = tile(map[string]bool{"a": true, "c": true}, []string{"a", "b", "c"}, parts)
			man2, st := put(data, segs)
			_, aRefs, _ := man1.segment("a")
			if st.ReusedBytes != int64(len(parts["a"])) || st.ReusedChunks != len(aRefs) {
				t.Errorf("%s: reuse stats %+v, want segment a only (%d chunks)", form, st, len(aRefs))
			}
			if st.NewBytes != int64(len(parts["b"])+len(parts["c"])) {
				t.Errorf("%s: new bytes %d, want exactly segments b and c", form, st.NewBytes)
			}
			for i, wantClean := range []bool{true, false, false} {
				if man2.Segments[i].Clean != wantClean {
					t.Errorf("%s: segment %q clean = %v", form, man2.Segments[i].Name, man2.Segments[i].Clean)
				}
			}
			if got, _, err := cs.Get(clock, "job"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: generation with reused refs does not restore: %v", form, err)
			}

			// A clean claim whose size disagrees with the parent is chunked too.
			parts["b"] = payload(24, 8<<10)
			data, segs = tile(map[string]bool{"a": true, "b": true, "c": true}, []string{"a", "b", "c"}, parts)
			man3, st := put(data, segs)
			if man3.Segments[1].Clean || st.NewBytes != int64(len(parts["b"])) {
				t.Errorf("%s: resized clean segment was not re-chunked: %+v %+v", form, man3.Segments[1], st)
			}

			// A wrongly clean segment (bytes changed, flag set) is a claim the
			// store trusts: it reuses the parent's refs, and Get returns the
			// bytes those refs name. Checking the claim is the caller's format's.
			parent := parts["a"]
			parts["a"] = payload(25, 96<<10)
			data, segs = tile(map[string]bool{"a": true}, []string{"a", "b", "c"}, parts)
			man4, st := put(data, segs)
			if !man4.Segments[0].Clean || st.ReusedBytes != int64(len(parent)) {
				t.Errorf("%s: clean claim not taken: %+v %+v", form, man4.Segments[0], st)
			}
			want := append(append(append([]byte(nil), parent...), parts["b"]...), parts["c"]...)
			if got, _, err := cs.Get(clock, "job"); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: Get of a trusted clean claim does not return the bytes its refs name: %v", form, err)
			}
		}
	}},

	{"byte lists store what a contiguous payload stores", func(t *testing.T, cs confStore) {
		twin := cs.open(t, Config{})
		c1, c2 := vtime.NewClock(), vtime.NewClock()
		both := func(job string, data []byte, segs []Segment, lists []Segment) {
			t.Helper()
			m1, s1 := mustPut(t, cs, c1, job, data, segs)
			m2, s2 := mustPut(t, twin, c2, job, nil, lists)
			if !reflect.DeepEqual(m1, m2) {
				t.Errorf("%s: manifests differ (%d / %d chunks, segments %v / %v, created %v / %v)", m1.ID(),
					len(m1.Chunks), len(m2.Chunks), m1.Segments, m2.Segments, m1.CreatedAt, m2.CreatedAt)
			}
			if s1 != s2 {
				t.Errorf("%s: put stats differ:\n %+v\n %+v", m1.ID(), s1, s2)
			}
			if got, _, err := twin.Get(vtime.NewClock(), m2.ID()); err != nil || !bytes.Equal(got, data) {
				t.Errorf("%s: the byte-list checkpoint does not restore: %v", m2.ID(), err)
			}
		}
		// An image-shaped checkpoint: a small head, then regions, one of them
		// so regular that it only ever cuts at the maximum chunk size.
		names := []string{"_head", "region/a", "region/b", "region/c"}
		parts := map[string][]byte{"_head": payload(70, 300), "region/a": payload(71, 200<<10),
			"region/b": payload(72, 70<<10), "region/c": bytes.Repeat([]byte("0123456789abcdef"), 6<<10)}
		data, segs := tile(nil, names, parts)
		_, lists := asLists(data, segs)
		both("job", data, segs, lists)
		parts["_head"], parts["region/b"] = payload(73, 300), payload(74, 70<<10)
		data, segs = tile(map[string]bool{"region/a": true, "region/c": true}, names, parts)
		_, lists = asLists(data, segs)
		both("job", data, segs, lists)
		// The unsegmented Put, and the same bytes as one anonymous segment.
		both("flat", data, nil, []Segment{{Len: int64(len(data)), Data: [][]byte{data[:300], data[300:5000], data[5000:]}}})
		sameFiles(t, cs, twin)

		// A byte list shorter or longer than its segment says is refused.
		lists[1].Data = lists[1].Data[:1]
		if _, _, err := twin.PutSegmented(c2, "job", nil, lists); err == nil || !strings.Contains(err.Error(), "carries") {
			t.Errorf("short byte list: err = %v", err)
		}
	}},

	{"Generations ceiling", func(t *testing.T, cs confStore) {
		clock := vtime.NewClock()
		for _, v := range uniqueVersions(3, 64<<10, 16<<10) {
			mustPut(t, cs, clock, "job", v, nil)
		}
		mustPut(t, cs, clock, "other", payload(9, 16<<10), nil)
		var seqs []uint64
		mans, issues := cs.Manifests()
		for _, m := range mans {
			if m.Job == "job" {
				seqs = append(seqs, m.Seq)
			}
		}
		if len(issues) != 0 || !reflect.DeepEqual(seqs, []uint64{1, 2, 3}) {
			t.Fatalf("job's generations %v, issues %v", seqs, issues)
		}
		// A validate hook that refuses everything walks the whole chain below
		// the ceiling: what it skipped is that chain, newest first.
		refuse := func([]byte, Manifest) error { return errors.New("refused") }
		for ref, want := range map[string][]uint64{"job": {3, 2, 1}, "job@2": {2, 1}, "job@9": {3, 2, 1}} {
			if _, m, deg, err := cs.GetNewestRestorable(clock, ref, nil); err != nil || deg != nil || m.Seq != want[0] {
				t.Fatalf("%s: restored seq %d, degraded %v, err %v", ref, m.Seq, deg, err)
			}
			_, _, deg, err := cs.GetNewestRestorable(clock, ref, refuse)
			if deg == nil || err == nil || deg.Restored != "" || len(deg.Skipped) != len(want) {
				t.Fatalf("%s: refusing every generation: %+v, err %v", ref, deg, err)
			}
			for i, sk := range deg.Skipped {
				if sk.Seq != want[i] {
					t.Errorf("%s: generation %d is seq %d, want %d", ref, i, sk.Seq, want[i])
				}
			}
		}
		if _, _, _, err := cs.GetNewestRestorable(clock, "nosuch", nil); err == nil {
			t.Error("unknown job must fail")
		}
		if _, _, _, err := cs.GetNewestRestorable(clock, "job@two", nil); err == nil {
			t.Error("malformed ref must fail")
		}
	}},

	{"GetNewestRestorable walks back", func(t *testing.T, cs confStore) {
		clock := vtime.NewClock()
		versions := uniqueVersions(4, 256<<10, 64<<10)
		var mans []Manifest
		for _, v := range versions {
			m, _ := mustPut(t, cs, clock, "job", v, nil)
			mans = append(mans, m)
		}
		// The newest manifest is torn everywhere and the one before it has
		// lost a chunk beyond what the store can heal.
		cs.tearManifest(t, "job", 4)
		cs.loseChunk(t, uniqueChunkOf(t, mans[2], mans[0], mans[1], mans[3]))

		got, man, deg, err := cs.GetNewestRestorable(clock, "job", nil)
		if err != nil {
			t.Fatal(err)
		}
		if man.ID() != "job@2" || !bytes.Equal(got, versions[1]) {
			t.Fatalf("restored %s, want job@2 bit-identical", man.ID())
		}
		if deg == nil || deg.Restored != "job@2" || len(deg.Skipped) != 2 ||
			deg.Skipped[0].ID != "job@4" || deg.Skipped[1].ID != "job@3" {
			t.Fatalf("degradation report = %+v", deg)
		}
		if !strings.Contains(deg.Skipped[0].Reason, errCorruptManifest.Error()) {
			t.Errorf("torn manifest skipped for %q", deg.Skipped[0].Reason)
		}

		// A validate hook that rejects job@2 pushes the walk one further.
		_, man, deg, err = cs.GetNewestRestorable(clock, "job", func(_ []byte, m Manifest) error {
			if m.Seq == 2 {
				return errors.New("payload fails application validation")
			}
			return nil
		})
		if err != nil || man.ID() != "job@1" || deg == nil || len(deg.Skipped) != 3 {
			t.Fatalf("restored %s, deg = %+v, err %v", man.ID(), deg, err)
		}

		// Nothing restorable: the typed report IS the error.
		_, _, deg, err = cs.GetNewestRestorable(clock, "job", func([]byte, Manifest) error { return errors.New("no") })
		var dr *DegradedRestore
		if !errors.As(err, &dr) || dr.Restored != "" || len(dr.Skipped) != 4 || deg != dr {
			t.Fatalf("err = %v (%T), want the *DegradedRestore with 4 skips", err, err)
		}
		// An intact newest generation restores with no report at all.
		if _, man, deg, err = cs.GetNewestRestorable(clock, "job@2", nil); err != nil || deg != nil || man.Seq != 2 {
			t.Fatalf("clean restore: %s %+v %v", man.ID(), deg, err)
		}
	}},

	{"GC retention", func(t *testing.T, cs confStore) {
		clock := vtime.NewClock()
		versions := uniqueVersions(4, 512<<10, 128<<10)
		for _, v := range versions {
			mustPut(t, cs, clock, "job", v, nil)
		}
		mustPut(t, cs, clock, "other", versions[0], nil)
		before := cs.TotalStoredBytes()

		if _, err := cs.GC(0); err == nil {
			t.Error("retention 0 accepted")
		}
		st, err := cs.GC(2)
		if err != nil {
			t.Fatal(err)
		}
		if st.ManifestsDropped != 2 || st.ManifestsKept != 3 {
			t.Fatalf("gc stats = %+v", st)
		}
		if st.ChunksDropped == 0 || st.ChunksKept == 0 || st.BytesReclaimed <= 0 {
			t.Fatalf("gc reclaimed nothing: %+v", st)
		}
		if after := cs.TotalStoredBytes(); after >= before {
			t.Errorf("stored bytes %d -> %d after GC", before, after)
		}
		// The kept checkpoints reconstruct bit-for-bit — job@1's unique
		// tail went, the base it shares with other@1 stayed.
		for ref, want := range map[string][]byte{"job@3": versions[2], "job@4": versions[3], "other": versions[0]} {
			if got, _, err := cs.Get(clock, ref); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("kept checkpoint %s corrupted by GC: %v", ref, err)
			}
		}
		if _, _, err := cs.Get(clock, "job@1"); err == nil {
			t.Error("dropped checkpoint still readable")
		}
		if mans, issues := cs.Manifests(); len(mans) != 3 || len(issues) != 0 {
			t.Errorf("%d manifests, %d issues after GC", len(mans), len(issues))
		}
	}},

	{"GC refuses while a manifest is unreadable", func(t *testing.T, cs confStore) {
		clock := vtime.NewClock()
		for _, v := range uniqueVersions(3, 128<<10, 32<<10) {
			mustPut(t, cs, clock, "job", v, nil)
		}
		cs.tearManifest(t, "job", 1)
		before := cs.TotalStoredBytes()
		_, err := cs.GC(1)
		if err == nil {
			t.Fatal("GC swept with an unreadable manifest in the store")
		}
		if want := "run Scrub first"; !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want advice %q", err, want)
		}
		if after := cs.TotalStoredBytes(); after != before {
			t.Errorf("refused GC still changed occupancy %d -> %d", before, after)
		}
		// The repair it names moves the torn frame out of the way on every
		// node, kept for a post-mortem, and GC proceeds.
		rep, err := cs.Scrub(clock)
		if err != nil || len(rep.Quarantined) != 1 || rep.Quarantined[0] != "job@1" {
			t.Fatalf("scrub: %v, quarantined %v", err, rep.Quarantined)
		}
		if _, issues := cs.Manifests(); len(issues) != 0 {
			t.Errorf("issues after scrub: %v", issues)
		}
		st, err := cs.GC(1)
		if err != nil || st.ManifestsKept != 1 || st.ManifestsDropped != 1 || st.BytesReclaimed <= 0 {
			t.Fatalf("gc after scrub: %+v, %v", st, err)
		}
		if after := cs.TotalStoredBytes(); after >= before {
			t.Errorf("the quarantined and the retired generation still hold their chunks: %d -> %d bytes", before, after)
		}
		for _, fs := range cs.disks() {
			if !fs.Exists(cs.cfg.Store.Prefix + "/quarantine/job-00000001") {
				t.Errorf("%s: torn frame not preserved under quarantine/", fs.Name())
			}
		}
		if got, _, err := cs.Get(clock, "job"); err != nil || got == nil {
			t.Errorf("newest generation after scrub and GC: %v", err)
		}
	}},

	{"Latest skips torn frames but surfaces I/O errors", func(t *testing.T, cs confStore) {
		clock := vtime.NewClock()
		for _, v := range uniqueVersions(3, 64<<10, 16<<10) {
			mustPut(t, cs, clock, "job", v, nil)
		}
		cs.tearManifest(t, "job", 3)
		man, ok, err := cs.Latest("job")
		if err != nil || !ok || man.Seq != 2 {
			t.Fatalf("latest past a torn frame: %s %v %v", man.ID(), ok, err)
		}
		// The next checkpoint takes a fresh number and links to the newest
		// generation that still decodes; the torn frame stays for repair.
		next, _ := mustPut(t, cs, clock, "job", payload(9, 32<<10), nil)
		if next.Seq != 4 || next.Parent != "job@2" {
			t.Errorf("put after a torn frame: seq %d parent %q", next.Seq, next.Parent)
		}
		// A disk that cannot be read is not a torn frame: an older
		// generation must not silently stand in.
		eio := proc.NewFaultInjector(proc.DiskFaultPlan{EveryN: 1, Kinds: []proc.DiskFaultKind{proc.DiskFaultEIO}})
		for _, fs := range cs.disks() {
			fs.SetFault(eio)
		}
		_, _, err = cs.Latest("job")
		var ioErr *proc.ErrIO
		if !errors.As(err, &ioErr) {
			t.Fatalf("latest on an unreadable disk: err = %v, want the *proc.ErrIO", err)
		}
		if _, err := cs.Resolve("job"); !errors.As(err, &ioErr) {
			t.Errorf("resolve on an unreadable disk: err = %v", err)
		}
	}},

	{"stage times fit in the put time", func(t *testing.T, cs confStore) {
		data := payload(50, 512<<10)
		clock := vtime.NewClock()
		_, st := mustPut(t, cs, clock, "job", data, nil)
		if st.CompressTime <= 0 || st.WriteTime <= 0 {
			t.Errorf("a put of new data charged compression %v, writes %v", st.CompressTime, st.WriteTime)
		}
		if st.CompressTime+st.WriteTime > st.Time {
			t.Errorf("stages %v+%v exceed the put's %v", st.CompressTime, st.WriteTime, st.Time)
		}
		if st.Time != clock.Now().Sub(0) {
			t.Errorf("stats say %v, clock moved %v", st.Time, clock.Now().Sub(0))
		}
	}},
}

// TestBackendConformance runs every row on every geometry.
func TestBackendConformance(t *testing.T) {
	for _, b := range confBackends {
		for _, row := range confRows {
			t.Run(b.name+"/"+row.name, func(t *testing.T) {
				cs := b.open(t, Config{})
				cs.open = b.open
				row.run(t, cs)
			})
		}
	}
}

// TestEngineErrorsNameNoPlacement: an error the catalog and the pipeline
// raise reads the same at every geometry and names no geometry — no
// "fleet:" infix.
func TestEngineErrorsNameNoPlacement(t *testing.T) {
	texts := map[string][]string{}
	for _, b := range confBackends {
		cs := b.open(t, Config{})
		clock := vtime.NewClock()
		parts := map[string][]byte{"a": payload(60, 32<<10), "b": payload(61, 32<<10)}
		data, segs := tile(nil, []string{"a", "b"}, parts)
		man, _ := mustPut(t, cs, clock, "job", data, segs)
		mustPut(t, cs, clock, "flat", data, nil)

		collect := func(err error) {
			if err == nil {
				t.Fatalf("%s: expected an error", b.name)
			}
			texts[b.name] = append(texts[b.name], err.Error())
		}
		_, _, err := cs.Put(clock, "a/b", data)
		collect(err)
		_, _, err = cs.PutSegmented(clock, "job", data, segs[:1])
		collect(err)
		_, _, err = cs.Get(clock, "nosuch")
		collect(err)
		_, err = cs.Resolve("job@x")
		collect(err)
		_, _, err = cs.GetSegment(clock, "job", "zz")
		collect(err)
		_, _, err = cs.GetSegment(clock, "flat", "a")
		collect(err)
		_, _, _, err = cs.GetNewestRestorable(clock, "nosuch", nil)
		collect(err)
		_, err = cs.GC(0)
		collect(err)
		cs.loseChunk(t, man.Chunks[0].Sum)
		_, _, _, err = cs.GetNewestRestorable(clock, "job", nil)
		collect(err)
	}
	want := texts[confBackends[0].name]
	for name, got := range texts {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s words error %d differently:\n  %s\n  %s", name, i, got[i], want[i])
			}
			if strings.Contains(got[i], "fleet") {
				t.Errorf("%s: catalog error names the fleet: %s", name, got[i])
			}
		}
	}
}
