package store

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"strings"
	"testing"

	"checl/internal/hw"
	"checl/internal/proc"
	"checl/internal/vtime"
)

// inPieces hands a segment's bytes over the way a process image's regions
// arrive, but cut finer: into slices of n bytes, so that chunks of both the
// Put's cut and the parent's span slice boundaries.
func inPieces(b []byte, n int) [][]byte {
	var out [][]byte
	for len(b) > n {
		out = append(out, b[:n])
		b = b[n:]
	}
	return append(out, b)
}

// TestScribbledCleanSegmentStoredDirty: a segment claimed clean whose bytes
// differ from the parent's in one byte — in the middle of a large segment,
// then the last byte of a small one — is caught by the Put: it is chunked
// as a dirty segment and counted in RefutedClean, the honest claims beside
// it are reused, and the generation reads back as the bytes the Put was
// handed. So is one bit flipped in every chunk of a large segment: the
// check of each piece differs from its ref's. The claims of the job's
// first generation, with no parent to check them against, are counted in
// UncheckedClean. On one disk (1+0) and on a 4+2 fleet.
func TestScribbledCleanSegmentStoredDirty(t *testing.T) {
	fine := Config{MinChunk: 1 << 10, AvgChunk: 4 << 10, MaxChunk: 16 << 10}
	stores := map[string]func() *Fleet{
		"1+0": func() *Fleet { return New(testFS(), fine) },
		"4+2": func() *Fleet { f, _ := testFleet(t, 6, FleetConfig{Store: fine}); return f },
	}
	for name, open := range stores {
		st, clock := open(), vtime.NewClock()
		names := []string{"a", "b", "c"}
		parts := map[string][]byte{"a": payload(30, 256<<10), "b": payload(31, 32<<10), "c": payload(32, 4<<10)}
		put := func(clean map[string]bool) (Manifest, PutStats) {
			t.Helper()
			var segs []Segment
			var off int64
			for _, n := range names {
				segs = append(segs, Segment{Name: n, Off: off, Len: int64(len(parts[n])), Clean: clean[n], Data: inPieces(parts[n], 1000)})
				off += int64(len(parts[n]))
			}
			man, stats, err := st.PutSegmented(clock, "job", nil, segs)
			if err != nil {
				t.Fatalf("%s: put: %v", name, err)
			}
			got, _, err := st.Get(vtime.NewClock(), man.ID())
			if want := append(append(append([]byte(nil), parts["a"]...), parts["b"]...), parts["c"]...); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: %s does not read back as the bytes its Put was handed: %v", name, man.ID(), err)
			}
			return man, stats
		}
		// The job's first generation has no parent to check a claim against.
		all := map[string]bool{"a": true, "b": true, "c": true}
		if _, stats := put(all); stats.UncheckedClean != 3 || stats.RefutedClean != 0 || stats.ReusedBytes != 0 {
			t.Errorf("%s: first generation: %d claims unchecked, %d refuted, %d bytes reused", name, stats.UncheckedClean, stats.RefutedClean, stats.ReusedBytes)
		}

		parts["a"] = append([]byte(nil), parts["a"]...)
		parts["a"][len(parts["a"])/2] ^= 1
		man, stats := put(all)
		if stats.RefutedClean != 1 || man.Segments[0].Clean || !man.Segments[1].Clean || !man.Segments[2].Clean {
			t.Errorf("%s: scribbled a: %d claims refuted, segments %+v", name, stats.RefutedClean, man.Segments)
		}
		if want := int64(len(parts["b"]) + len(parts["c"])); stats.ReusedBytes != want || stats.NewChunks == 0 {
			t.Errorf("%s: scribbled a: reused %d bytes, want b and c's %d; %d new chunks", name, stats.ReusedBytes, want, stats.NewChunks)
		}

		parts["c"] = append([]byte(nil), parts["c"]...)
		parts["c"][len(parts["c"])-1] ^= 0x80
		man, stats = put(all)
		if stats.RefutedClean != 1 || !man.Segments[0].Clean || man.Segments[2].Clean {
			t.Errorf("%s: scribbled c: %d claims refuted, segments %+v", name, stats.RefutedClean, man.Segments)
		}

		man, stats = put(all)
		if stats.RefutedClean != 0 || stats.UncheckedClean != 0 || stats.ReusedBytes != stats.TotalBytes || stats.NewChunks != 0 {
			t.Errorf("%s: honest claims: %+v", name, stats)
		}

		// One bit of every chunk of a, a different bit from chunk to chunk.
		_, refs, _ := man.segment("a")
		parts["a"] = append([]byte(nil), parts["a"]...)
		off := int64(0)
		for i, ref := range refs {
			parts["a"][off+ref.Size/2] ^= 1 << (i % 8)
			off += ref.Size
		}
		man, stats = put(all)
		if stats.RefutedClean != 1 || man.Segments[0].Clean || !man.Segments[1].Clean || !man.Segments[2].Clean {
			t.Errorf("%s: a bit flipped in each of a's %d chunks: %d claims refuted, segments %+v", name, len(refs), stats.RefutedClean, man.Segments)
		}
	}
}

// TestRefCheckMatchesContent: every chunk ref's Check is the chunkCheck of
// the bytes Get returns for it, with one processor, two and eight. The
// Puts cover a chunk deduplicated within a Put (b repeats a) and against
// the store (the second generation's a, claimed dirty but unchanged), a
// clean segment's refs inherited from the parent (c), and chunks that span
// two of a segment's Data slices (every slice is 1000 bytes long, every
// chunk at least 1 KiB).
func TestRefCheckMatchesContent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	fine := Config{MinChunk: 1 << 10, AvgChunk: 4 << 10, MaxChunk: 16 << 10}
	names := []string{"a", "b", "c"}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		st, _ := testFleet(t, 6, FleetConfig{Store: fine})
		clock := vtime.NewClock()
		a := payload(40, 96<<10)
		parts := map[string][]byte{"a": a, "b": a, "c": payload(41, 40<<10)}
		var reused, repeats int
		for gen, clean := range []map[string]bool{nil, {"c": true}} {
			data, segs := tile(clean, names, parts)
			for i := range segs {
				segs[i].Data = inPieces(data[segs[i].Off:segs[i].Off+segs[i].Len], 1000)
			}
			man, stats, err := st.PutSegmented(clock, "job", nil, segs)
			if err != nil {
				t.Fatalf("procs %d: gen %d: %v", procs, gen+1, err)
			}
			got, _, err := st.Get(vtime.NewClock(), man.ID())
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("procs %d: %s does not read back: %v", procs, man.ID(), err)
			}
			seen := map[string]bool{}
			off := int64(0)
			for i, ref := range man.Chunks {
				if want := chunkCheck(got[off : off+ref.Size]); ref.Check != want {
					t.Errorf("procs %d: %s chunk %d: check %016x, its bytes' %016x", procs, man.ID(), i, ref.Check, want)
				}
				if seen[ref.Sum] {
					repeats++
				}
				seen[ref.Sum] = true
				off += ref.Size
			}
			reused += stats.ReusedChunks
			if gen == 1 && (stats.NewChunks != 0 || !man.Segments[2].Clean) {
				t.Errorf("procs %d: second generation: %d new chunks, segments %+v", procs, stats.NewChunks, man.Segments)
			}
		}
		if reused == 0 || repeats == 0 {
			t.Errorf("procs %d: %d refs inherited, %d repeated: the Puts cover neither kind", procs, reused, repeats)
		}
	}
}

// lentFiles checks that no byte of a file the filesystems lent is ever
// written: it keeps a view of every file it has seen with the file's
// digest, and after every call re-hashes them all. A stored file is
// replaced, never changed in place, so a view that hashes differently was
// written into by whoever read it.
type lentFiles struct {
	fss   []*proc.FS
	views map[*byte]lentView
}

type lentView struct {
	path string
	data []byte
	sum  [sha256.Size]byte
}

// check re-hashes every view, then takes one of every file there is now.
func (l *lentFiles) check(t *testing.T, after string) {
	t.Helper()
	for _, v := range l.views {
		if sha256.Sum256(v.data) != v.sum {
			t.Fatalf("after %s: %s was written into where it lay", after, v.path)
		}
	}
	for _, fs := range l.fss {
		for _, p := range fs.List() {
			data, err := fs.ReadFile(vtime.NewClock(), p)
			if err != nil {
				t.Fatalf("after %s: %v", after, err)
			}
			if len(data) > 0 && l.views[&data[0]].data == nil {
				l.views[&data[0]] = lentView{p, data, sha256.Sum256(data)}
			}
		}
	}
}

// TestStoreNeverWritesWhatItReads: proc.FS.ReadFile lends a file's own
// bytes, so no store operation may write into what it read. Every
// operation a checkpoint's life goes through — Put with clean and dirty
// segments, Get, GetSegment, the restore walk, Fsck, Scrub over a rotten
// record, Replicate, GC — runs on 1+0, 1+1 and 4+2, and every file's
// bytes are checked after each.
func TestStoreNeverWritesWhatItReads(t *testing.T) {
	fine := Config{MinChunk: 1 << 10, AvgChunk: 4 << 10, MaxChunk: 16 << 10}
	type geometry struct {
		st  *Fleet
		fss []*proc.FS
	}
	geometries := map[string]func() geometry{
		"1+0": func() geometry { fs := testFS(); return geometry{New(fs, fine), []*proc.FS{fs}} },
		"1+1": func() geometry {
			fs, mirror := testFS(), proc.NewFS("replica", hw.TableISpec().LocalDisk)
			st, err := NewMirror(fs, mirror, fine)
			if err != nil {
				t.Fatal(err)
			}
			return geometry{st, []*proc.FS{fs, mirror}}
		},
		"4+2": func() geometry {
			f, _ := testFleet(t, 6, FleetConfig{Store: fine})
			var fss []*proc.FS
			for _, n := range f.Nodes() {
				fss = append(fss, nodeFS(f, n))
			}
			return geometry{f, fss}
		},
	}
	for name, open := range geometries {
		g := open()
		lent := &lentFiles{fss: g.fss, views: map[*byte]lentView{}}
		clock := vtime.NewClock()
		step := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %s: %v", name, what, err)
			}
			lent.check(t, name+": "+what)
		}
		parts := map[string][]byte{"a": payload(40, 96<<10), "b": payload(41, 24<<10)}
		for gen := 0; gen < 3; gen++ {
			parts["b"] = payload(int64(42+gen), 24<<10)
			data, segs := tile(map[string]bool{"a": gen > 0}, []string{"a", "b"}, parts)
			_, _, err := g.st.PutSegmented(clock, "job", data, segs)
			step("put", err)
		}
		_, _, err := g.st.Get(clock, "job")
		step("get", err)
		_, _, err = g.st.GetSegment(clock, "job@2", "a")
		step("get segment", err)
		_, _, _, err = g.st.GetNewestRestorable(clock, "job", nil)
		step("restore walk", err)
		_, err = g.st.Fsck(clock)
		step("fsck", err)
		// Where there is redundancy, damage a pack the way the disks do — by
		// replacing it — and let Scrub repair it from what it reads.
		for _, fs := range g.fss[:min(1, len(g.fss)-1)] {
			for _, p := range fs.List() {
				if data, _ := fs.ReadFile(vtime.NewClock(), p); len(data) > 64 && strings.Contains(p, "/packs/") {
					fs.FlipBit(p, uint64(len(data)*4))
					break
				}
			}
		}
		_, err = g.st.Scrub(clock)
		step("scrub", err)
		dst := New(testFS(), fine)
		_, _, err = g.st.Replicate(clock, "job", dst, hw.GigE)
		step("replicate", err)
		_, err = g.st.GC(1)
		step("gc", err)
		_, _, err = g.st.Get(clock, "job")
		step("get after gc", err)
	}
}
