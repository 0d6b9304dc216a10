package store

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"checl/internal/proc"
	"checl/internal/vtime"
)

// decompressOracle and verifyBlobOracle are the read path as it was first
// written: the blob in one piece, inflated into a buffer of its own with a
// byte of headroom, hashed, compared in hex. verifyParts must return the
// same bytes or fail the same way.
func decompressOracle(clock *vtime.Clock, blob []byte, size int64) ([]byte, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("store: empty chunk blob")
	}
	if size < 0 || size > math.MaxInt32 {
		return nil, fmt.Errorf("store: chunk size %d out of range", size)
	}
	switch blob[0] {
	case codecRaw:
		if int64(len(blob)-1) > size {
			return nil, fmt.Errorf("store: chunk holds %d bytes, manifest says %d", len(blob)-1, size)
		}
		return blob[1:], nil
	case codecFlate:
		r := flate.NewReader(bytes.NewReader(blob[1:]))
		data := make([]byte, size+1)
		n := 0
		for n < len(data) {
			got, err := r.Read(data[n:])
			n += got
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("store: decompress: %w", err)
			}
		}
		if n == len(data) {
			return nil, fmt.Errorf("store: chunk inflates past the %d bytes the manifest says", size)
		}
		if err := r.Close(); err != nil {
			return nil, fmt.Errorf("store: decompress: %w", err)
		}
		clock.Advance(decompressBps.Transfer(int64(n)))
		return data[:n], nil
	default:
		return nil, fmt.Errorf("store: unknown chunk codec 0x%02x", blob[0])
	}
}

func verifyBlobOracle(clock *vtime.Clock, blob []byte, ref ChunkRef) ([]byte, error) {
	chunk, err := decompressOracle(clock, blob, ref.Size)
	if err != nil {
		return nil, fmt.Errorf("store: chunk %s: %w", ref.Sum[:12], err)
	}
	sum := sha256.Sum256(chunk)
	if got := hex.EncodeToString(sum[:]); got != ref.Sum {
		return nil, fmt.Errorf("store: chunk %s corrupt (content hashes to %s)", ref.Sum[:12], got[:12])
	}
	return chunk, nil
}

// checkVerifyParts reads blob, cut into parts, as the chunk ref describes,
// both ways. The destination sits inside a longer buffer whose other bytes
// must come through untouched.
func checkVerifyParts(t *testing.T, blob []byte, parts [][]byte, ref ChunkRef) {
	t.Helper()
	const guard = 0xA5
	buf := bytes.Repeat([]byte{guard}, int(ref.Size)+16)
	l := &landing{ref: ref, dst: buf[8 : 8+ref.Size : 8+ref.Size]}
	l.addr, _ = decodeDigest(ref.Sum)
	c1 := vtime.NewClock()
	want, werr := verifyBlobOracle(c1, bytes.Join(parts, nil), ref)
	gerr := verifyParts(parts, l)
	if !bytes.Equal(bytes.Join(parts, nil), blob) {
		t.Fatal("the read changed the blob")
	}
	for i, b := range buf {
		if (i < 8 || i >= 8+int(ref.Size)) && b != guard {
			t.Fatalf("byte %d outside the %d-byte destination was written", i-8, ref.Size)
		}
	}
	switch {
	case werr != nil:
		if gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("oracle fails with %q, verifyParts with %v", werr, gerr)
		}
	case int64(len(want)) != ref.Size:
		// The oracle hands back whatever hashes right; a payload has room for
		// exactly the manifest's size.
		if gerr == nil || !strings.Contains(gerr.Error(), "manifest says") {
			t.Fatalf("a %d-byte chunk landed in %d bytes: %v", len(want), ref.Size, gerr)
		}
	case gerr != nil || !bytes.Equal(l.dst, want):
		t.Fatalf("oracle reads %d bytes, verifyParts: %v", len(want), gerr)
	}
	if gerr == nil && (c1.Now().Sub(0) != l.cpu || l.link != 0 || l.after != 0) {
		t.Fatalf("oracle charged %v, verifyParts counted %+v", c1.Now().Sub(0), l.lanes)
	}
}

// partsSeed is a blob, the size it is claimed to inflate to and the content
// its address is taken from.
type partsSeed struct {
	blob    []byte
	size    int
	content []byte
}

// partsSeeds are raw and flate blobs read right, short, over-long,
// truncated and bit-flipped, an unknown codec and no blob at all.
func partsSeeds(t testing.TB) (seeds []partsSeed) {
	add := func(blob []byte, size int, content []byte) {
		seeds = append(seeds, partsSeed{blob, size, content})
	}
	for _, chunk := range [][]byte{compressible(2, 9000), payload(8, 5000), {}, {7}} {
		blob, err := deflaters(nil).compress(nil, chunk)
		if err != nil {
			t.Fatal(err)
		}
		raw := append([]byte{codecRaw}, chunk...)
		for _, b := range [][]byte{blob, raw} {
			add(b, len(chunk), chunk)
			add(b, len(chunk)+3, chunk) // the manifest says more than there is
			if len(chunk) > 0 {
				add(b, len(chunk)-1, chunk) // inflates past / holds more
				add(b, len(chunk)-1, chunk[:len(chunk)-1])
				add(b[:len(b)/2], len(chunk), chunk) // truncated
				flipped := append([]byte(nil), b...)
				flipped[len(b)/2] ^= 0x10
				add(flipped, len(chunk), chunk)
			}
		}
	}
	add([]byte{0x7f, 1, 2, 3}, 3, []byte{1, 2, 3})
	add(nil, 0, nil)
	return seeds
}

// TestVerifyPartsMatchesOracle runs the seeds whole, halved and cut the way
// a 4+2 fleet cuts a blob into data shards.
func TestVerifyPartsMatchesOracle(t *testing.T) {
	for _, s := range partsSeeds(t) {
		sum := sha256.Sum256(s.content)
		ref := ChunkRef{Sum: hex.EncodeToString(sum[:]), Size: int64(s.size)}
		shard := (len(s.blob) + 3) / 4
		for _, lens := range [][]byte{nil, {byte(len(s.blob) / 2)}, {0, 1, 0}, {byte(shard), byte(shard), byte(shard)}} {
			checkVerifyParts(t, s.blob, partition(s.blob, lens), ref)
		}
	}
}

// FuzzVerifyParts: an arbitrary blob, split at arbitrary points, claimed to
// be of an arbitrary size, reads through the slice-list inflater exactly as
// it does in one piece through the oracle — same bytes, same error, same
// virtual time — and never writes outside the destination.
func FuzzVerifyParts(f *testing.F) {
	for _, s := range partsSeeds(f) {
		sum := sha256.Sum256(s.content)
		f.Add(s.blob, []byte{byte(len(s.blob) / 3), 0, byte(len(s.blob) / 3)}, uint16(s.size), sum[:])
	}
	f.Fuzz(func(t *testing.T, blob, lens []byte, size uint16, addr []byte) {
		// Most mutations break the address; half the runs take it from what
		// the blob really holds, so the accepting paths are reached too.
		sum := sha256.Sum256(addr)
		if len(addr) > 0 && addr[0]&1 == 0 {
			if chunk, err := decompressOracle(vtime.NewClock(), blob, int64(size)); err == nil {
				sum = sha256.Sum256(chunk)
			}
		}
		ref := ChunkRef{Sum: hex.EncodeToString(sum[:]), Size: int64(size)}
		checkVerifyParts(t, blob, partition(blob, lens), ref)
	})
}

// rotEveryThirdChunk flips a bit in the first record an alive node holds of
// every third chunk of man, which sends the chunk through the second try.
func rotEveryThirdChunk(cs confStore, man Manifest) {
	for i := 0; i < len(man.Chunks); i += 3 {
		sum := man.Chunks[i].Sum
		for idx, n := range cs.placement(sum) {
			if loc, ok := cs.lookup(n, sum, idx); ok && n.alive() {
				n.fs.FlipBit(loc.pack, uint64(loc.off+loc.n-1)*8)
				break
			}
		}
	}
}

// TestReadIndependentOfProcs: what a Get returns, charges, repairs and
// leaves on the disks is the same with one processor — everything inline —
// as with workers, also when the chunks lie in two generations' packs,
// which arrive at different instants, and every third has a flipped bit in
// its first record and goes through the second try.
func TestReadIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type outcome struct {
		Err   string
		Sum   [sha256.Size]byte
		Clock vtime.Time
		Heals HealStats
		Files [][][2]string
	}
	for _, b := range confBackends {
		var first outcome
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			cs := b.open(t, Config{})
			clock := vtime.NewClock()
			mustPut(t, cs, clock, "job", append(payload(90, 200<<10), compressible(3, 100<<10)...), nil)
			man, _ := mustPut(t, cs, clock, "job", append(payload(90, 200<<10), compressible(4, 100<<10)...), nil)
			rotEveryThirdChunk(cs, man)
			var out outcome
			got, _, err := cs.Get(clock, "job")
			if err != nil {
				out.Err = err.Error()
			}
			out.Sum, out.Clock = sha256.Sum256(got), clock.Now()
			out.Heals = cs.Heals()
			for _, fs := range cs.disks() {
				out.Files = append(out.Files, listing(fs))
			}
			if procs == 1 {
				first = out
				if healable := b.name == "disk+replica" || b.name == "fleet-4+2"; (err == nil) != healable {
					t.Fatalf("%s: damaged get: %v", b.name, err)
				}
			} else if !reflect.DeepEqual(out, first) {
				t.Errorf("%s: GOMAXPROCS %d: err %q clock %v heals %+v\n GOMAXPROCS 1: err %q clock %v heals %+v",
					b.name, procs, out.Err, out.Clock, out.Heals, first.Err, first.Clock, first.Heals)
			}
		}
	}
}

// TestPutIndependentOfProcs: what a Put leaves on the disks and reports is
// the same with one processor — the digest inline — as with the digest
// beside the staging: a fresh Put, an incremental one with a clean segment,
// and one whose segments carry their bytes as slice lists.
func TestPutIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type outcome struct {
		Stats []PutStats
		Clock vtime.Time
		Files [][][2]string
	}
	names := []string{"_head", "a", "b"}
	for _, b := range confBackends {
		var first outcome
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			cs := b.open(t, Config{})
			clock := vtime.NewClock()
			parts := map[string][]byte{"a": compressible(5, 48<<10), "b": payload(51, 40<<10)}
			var out outcome
			for gen, clean := range []map[string]bool{nil, {"a": true}, {"b": true}} {
				parts["_head"] = payload(int64(52+gen), 300)
				if gen == 1 {
					parts["b"] = payload(55, 40<<10)
				}
				if gen == 2 {
					parts["a"] = compressible(6, 48<<10)
				}
				data, segs := tile(clean, names, parts)
				if gen == 2 {
					data, segs = asLists(data, segs)
				}
				_, st := mustPut(t, cs, clock, "job", data, segs)
				out.Stats = append(out.Stats, st)
			}
			out.Clock = clock.Now()
			for _, fs := range cs.disks() {
				out.Files = append(out.Files, listing(fs))
			}
			if procs == 1 {
				first = out
			} else if !reflect.DeepEqual(out, first) {
				t.Errorf("%s: GOMAXPROCS %d: clock %v stats %+v\n GOMAXPROCS 1: clock %v stats %+v",
					b.name, procs, out.Clock, out.Stats, first.Clock, first.Stats)
			}
		}
	}
}

// TestSegmentsReadyInOrder: a restore read knows when each segment of the
// payload was there. The instants GetNewestRestorable leaves on the
// manifest start no sooner than the read, never go back along the segment
// order, end where the read's clock ends — also behind a newer generation
// the walk had to pass over, whose attempt they lie after — and are the
// same with one processor as with eight, with the restored generation's
// chunks in two generations' packs and every third of them sent through
// the second try. A segment without a chunk is there when the one before it
// is.
func TestSegmentsReadyInOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	names := []string{"_head", "a", "empty", "b", "c"}
	for _, b := range confBackends {
		var first []vtime.Time
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			cs := b.open(t, Config{})
			clock := vtime.NewClock()
			clock.Advance(3 * vtime.Millisecond)
			parts := map[string][]byte{"_head": payload(70, 300), "a": payload(71, 60<<10),
				"b": compressible(5, 40<<10), "c": payload(72, 30<<10)}
			data0, segs0 := tile(nil, names, parts)
			mustPut(t, cs, clock, "job", data0, segs0)
			parts["_head"], parts["c"] = payload(74, 300), payload(75, 30<<10)
			data, segs := tile(map[string]bool{"a": true, "b": true}, names, parts)
			man, _ := mustPut(t, cs, clock, "job", data, segs)
			if healable := b.name == "disk+replica" || b.name == "fleet-4+2"; healable {
				rotEveryThirdChunk(cs, man)
			}
			parts["c"] = payload(73, 30<<10)
			data2, segs2 := tile(map[string]bool{"_head": true, "a": true, "b": true}, names, parts)
			mustPut(t, cs, clock, "job", data2, segs2)

			began := clock.Now()
			var seen []vtime.Time
			got, rman, deg, err := cs.GetNewestRestorable(clock, "job", func(_ []byte, m Manifest) error {
				if m.Seq == 3 {
					return fmt.Errorf("not this one")
				}
				seen = m.ReadyAt()
				return nil
			})
			if err != nil || deg == nil || rman.Seq != 2 || !bytes.Equal(got, data) {
				t.Fatalf("%s: restore of job@2 behind job@3: %v %v", b.name, err, deg)
			}
			ready := rman.ReadyAt()
			if !reflect.DeepEqual(ready, seen) || len(ready) != len(names) {
				t.Fatalf("%s: returned manifest is ready at %v, validate saw %v", b.name, ready, seen)
			}
			for i, at := range ready {
				if at <= began || (i > 0 && at < ready[i-1]) {
					t.Errorf("%s: segment %d ready at %v, read began at %v, segments at %v", b.name, i, at, began, ready)
				}
			}
			if ready[2] != ready[1] {
				t.Errorf("%s: the empty segment was ready at %v, the one before it at %v", b.name, ready[2], ready[1])
			}
			if last := ready[len(ready)-1]; last != clock.Now() {
				t.Errorf("%s: last segment ready at %v, the read ended at %v", b.name, last, clock.Now())
			}
			if ready[0] == ready[len(ready)-1] {
				t.Errorf("%s: every segment ready at once (%v): nothing to overlap with", b.name, ready[0])
			}
			if procs == 1 {
				first = ready
			} else if !reflect.DeepEqual(ready, first) {
				t.Errorf("%s: GOMAXPROCS %d: ready at %v\n GOMAXPROCS 1: %v", b.name, procs, ready, first)
			}

			if m, err := cs.Resolve("job@1"); err != nil || m.ReadyAt() != nil {
				t.Errorf("%s: a resolved manifest is ready at %v (%v)", b.name, m.ReadyAt(), err)
			}
			mustPut(t, cs, clock, "flat", data, nil)
			if _, m, _, err := cs.GetNewestRestorable(clock, "flat", nil); err != nil || m.ReadyAt() != nil {
				t.Errorf("%s: an unsegmented read is ready piecewise at %v (%v)", b.name, m.ReadyAt(), err)
			}
		}
	}
}

// traceRead opens a session over man's chunks and walks it the way
// readChunks does, first try only, without charging anything: what every
// chunk waits for and takes, and — measured from the clock's instant — how
// long the busiest node's disk needs for its packs.
func traceRead(t *testing.T, cs confStore, clock *vtime.Clock, man Manifest) (lands []landing, disk vtime.Duration) {
	t.Helper()
	rd := cs.newRead(clock, man.Chunks, false)
	defer rd.close()
	for _, ref := range man.Chunks {
		l, err := cs.newLanding(ref)
		if err != nil {
			t.Fatal(err)
		}
		land, err := rd.fetch(l)
		if err == nil && land != nil {
			err = land()
		}
		if err != nil {
			t.Fatalf("chunk %.12s: %v", ref.Sum, err)
		}
		lands = append(lands, *l)
	}
	for _, p := range rd.packs {
		disk = max(disk, p.arrived.Sub(clock.Now()))
	}
	return lands, disk
}

// TestReadTimelineBounds: running the disks, the link and the CPU beside
// each other hides time and never invents it. A read of an image whose
// chunks lie in three generations' packs ends no sooner than its first pack
// plus everything the link carried, than the busiest disk, than everything
// the CPU inflated — and sooner than the three one after the other. With
// one chunk in one pack per node there is nothing to overlap; and a read
// that fails part-way has spent what it did up to there.
func TestReadTimelineBounds(t *testing.T) {
	names := []string{"_head", "a", "b", "c"}
	for _, b := range confBackends {
		cs := b.open(t, Config{})
		clock := vtime.NewClock()
		clock.Advance(7 * vtime.Millisecond)
		parts := map[string][]byte{"_head": payload(60, 300), "a": compressible(3, 80<<10),
			"b": payload(61, 50<<10), "c": compressible(9, 40<<10)}
		var man Manifest
		for gen, clean := range []map[string]bool{nil, {"a": true}, {"a": true, "c": true}} {
			parts["_head"] = payload(int64(62+gen), 300)
			if gen == 1 {
				parts["c"] = compressible(11, 40<<10)
			}
			if gen == 2 {
				parts["b"] = payload(65, 50<<10)
			}
			data, segs := tile(clean, names, parts)
			man, _ = mustPut(t, cs, clock, "job", data, segs)
		}

		began := clock.Now()
		lands, disk := traceRead(t, cs, clock, man)
		var link, cpu vtime.Duration
		for _, l := range lands {
			link, cpu = link+l.link, cpu+l.cpu
		}
		if clock.Now() != began {
			t.Fatalf("%s: opening a session moved the reader's clock by %v", b.name, clock.Now().Sub(began))
		}
		_, ready, err := cs.readChunks(clock, man.ID(), man.Chunks, man.Segments, man.Size, false)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		end, took := clock.Now(), clock.Now().Sub(began)
		if ready[len(ready)-1] != end {
			t.Errorf("%s: last segment ready at %v, the read ended at %v", b.name, ready[len(ready)-1], end)
		}
		if floor := lands[0].after.Add(link); end < floor || lands[0].after <= began {
			t.Errorf("%s: read ended at %v, its first pack arrived at %v (began %v) and the link carried %v", b.name, end, lands[0].after, began, link)
		}
		if took < disk || took < cpu || cpu == 0 {
			t.Errorf("%s: read took %v, the busiest disk %v, the CPU %v", b.name, took, disk, cpu)
		}
		if serial := disk + link + cpu; took >= serial {
			t.Errorf("%s: read took %v, one thing after the other is %v (disk %v, link %v, cpu %v)", b.name, took, serial, disk, link, cpu)
		}
		if ready[0] >= began.Add(disk) {
			t.Errorf("%s: _head ready at %v, not before the last pack arrived at %v", b.name, ready[0], began.Add(disk))
		}

		// Nothing to overlap: the three follow each other.
		one := b.open(t, Config{})
		oneMan, _ := mustPut(t, one, clock, "one", compressible(6, 700), nil)
		began = clock.Now()
		lands, disk = traceRead(t, one, clock, oneMan)
		if _, _, err := one.readChunks(clock, oneMan.ID(), oneMan.Chunks, nil, oneMan.Size, false); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if l := lands[0]; len(lands) != 1 || l.cpu == 0 || l.after != began.Add(disk) || clock.Now().Sub(began) != disk+l.link+l.cpu {
			t.Errorf("%s: a one-chunk read took %v, its packs %v, its chunks %+v", b.name, clock.Now().Sub(began), disk, lands)
		}

		// A chunk in the middle that nothing can bring back: the chunks
		// before it were read, and paid for.
		lands, _ = traceRead(t, cs, clock, man)
		mid := len(man.Chunks) / 2
		cs.loseChunk(t, man.Chunks[mid].Sum)
		began, link, cpu = clock.Now(), 0, 0
		for _, l := range lands[:mid] {
			link, cpu = link+l.link, cpu+l.cpu
		}
		if _, _, err := cs.readChunks(clock, man.ID(), man.Chunks, man.Segments, man.Size, false); err == nil {
			t.Fatalf("%s: read a lost chunk", b.name)
		}
		if end := clock.Now(); end < lands[0].after.Add(link) || end.Sub(began) < cpu {
			t.Errorf("%s: a read that failed at chunk %d ended at %v: began %v, first pack %v, link %v and cpu %v before it",
				b.name, mid, end, began, lands[0].after, link, cpu)
		}
	}
}

// checkWriteTimeline runs one Put and holds it to the bounds of the write's
// lanes. The Put ends no sooner than every record byte through the link
// plus the manifest publish, exactly at its last verified pack plus the
// publish, and no later than serial, the write one thing after the other:
// the CPU lane, each round's link and slowest disk, the publish. Each pack
// took its disk as long as the model says, started no sooner than its
// node's last record of the round was there and its node's previous pack
// was done, and a remote node's last record came off the link.
func checkWriteTimeline(t *testing.T, what string, cs confStore, clock *vtime.Clock, data []byte, segs []Segment) (st PutStats, serial vtime.Duration) {
	t.Helper()
	began := clock.Now()
	man, st := mustPut(t, cs, clock, "job", data, segs)
	frame, err := encodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	var copies int64
	var frameDisk vtime.Duration
	for _, name := range cs.names {
		if n := cs.nodes[name]; n.alive() {
			copies += n.linkBytes(len(frame))
			frameDisk = max(frameDisk, n.fs.Model().WriteTime(int64(len(frame))))
		}
	}
	publish := fleetLink.Transfer(copies) + frameDisk

	type round struct {
		linked int64
		disk   vtime.Duration
	}
	rounds := map[string]round{}
	free := map[string]vtime.Time{}
	var linked int64
	lastCrossed := began
	lanes := cs.lanes
	for _, p := range lanes.packs {
		n := cs.nodes[p.node]
		size, err := n.fs.Size(p.path)
		if err != nil {
			t.Fatal(err)
		}
		m := n.fs.Model()
		disk := m.WriteTime(size) + m.ReadTime(size)
		r := rounds[p.path]
		r.linked += n.linkBytes(int(size))
		r.disk = max(r.disk, disk)
		rounds[p.path] = r
		linked += n.linkBytes(int(size))
		if start := p.written.Add(-disk); start < p.arrived || start < free[p.node] || p.arrived < began {
			t.Errorf("%s: %s on %s written %v..%v, its last record there at %v, the node's disk free at %v, the Put began %v",
				what, p.path, p.node, start, p.written, p.arrived, free[p.node], began)
		}
		free[p.node] = p.written
		if n.remote {
			if p.arrived > lanes.link {
				t.Errorf("%s: %s on %s: last record there at %v, after the link was done at %v", what, p.path, p.node, p.arrived, lanes.link)
			}
			lastCrossed = vtime.Max(lastCrossed, p.arrived)
		}
	}
	cpu := st.Time - st.WriteTime
	if linked > 0 && (lastCrossed != lanes.link || lanes.link < began.Add(cpu)) {
		t.Errorf("%s: the link was done at %v, the last record a node received crossed at %v, the CPU was done at %v",
			what, lanes.link, lastCrossed, began.Add(cpu))
	}
	serial = cpu + publish
	for _, r := range rounds {
		serial += fleetLink.Transfer(r.linked) + r.disk
	}
	if cpu < st.CompressTime || st.CompressTime <= 0 {
		t.Errorf("%s: CPU lane %v, compression %v", what, cpu, st.CompressTime)
	}
	if floor := fleetLink.Transfer(linked) + publish; st.Time < floor {
		t.Errorf("%s: Put took %v, the link's floor %v plus the publish %v", what, st.Time, fleetLink.Transfer(linked), publish)
	}
	if st.Time > serial {
		t.Errorf("%s: Put took %v, one thing after the other is %v", what, st.Time, serial)
	}
	if end := lanes.end().Add(publish); end != clock.Now() {
		t.Errorf("%s: Put ended at %v, its last pack plus the publish is %v", what, clock.Now(), end)
	}
	return st, serial
}

// TestWriteTimelineBounds: running the writer's CPU, its link and the
// nodes' disks beside each other hides time and never invents it
// (checkWriteTimeline), on a 4+2 fleet over a fresh and two incremental
// Puts, and over a two-part checkpoint on a mirror, whose local disk has
// its records as soon as the CPU is done with them. The fresh Puts end
// sooner than the serial write. A Put whose nodes crash part-way through a
// round — two of them, which it commits around, or three, which fail it in
// the pack round or at the publish — charges no more than the clean run, no
// less than its CPU lane and no less than its lanes reached.
func TestWriteTimelineBounds(t *testing.T) {
	names := []string{"_head", "a", "b", "c"}
	cs := openConfFleet(t, Config{}, 0)
	clock := vtime.NewClock()
	clock.Advance(5 * vtime.Millisecond)
	parts := map[string][]byte{"a": compressible(3, 80<<10), "b": payload(61, 50<<10), "c": compressible(9, 40<<10)}
	for gen, clean := range []map[string]bool{nil, {"a": true}, {"a": true, "c": true}} {
		parts["_head"] = payload(int64(62+gen), 300)
		if gen == 1 {
			parts["c"] = compressible(11, 40<<10)
		}
		if gen == 2 {
			parts["b"] = payload(65, 50<<10)
		}
		data, segs := tile(clean, names, parts)
		st, serial := checkWriteTimeline(t, fmt.Sprintf("fleet-4+2 gen %d", gen), cs, clock, data, segs)
		if gen == 0 && st.Time >= serial {
			t.Errorf("fresh Put took %v, one thing after the other %v", st.Time, serial)
		}
	}

	mirror := confStore{Fleet: testMirror(t, testFS(), Config{MinChunk: 64 << 10, AvgChunk: 128 << 10, MaxChunk: 256 << 10})}
	st, serial := checkWriteTimeline(t, "mirror", mirror, clock, payload(72, packPartSize+packPartSize/4), nil)
	if packs := len(mirror.lanes.packs); packs != 4 || st.Time >= serial {
		t.Errorf("two-part Put on a mirror wrote %d packs and took %v, one thing after the other %v", packs, st.Time, serial)
	}

	// The crashes land on the last nodes in name order, so a crash early in
	// the round comes before that node's write.
	data := payload(66, 24<<10)
	put := func(inj *proc.NodeFaultInjector, victims int) (PutStats, vtime.Duration, error) {
		cs := openConfFleet(t, Config{}, 0)
		for _, name := range cs.names[len(cs.names)-victims:] {
			inj.Register(name, cs.nodes[name].fs)
		}
		cs.setFaultInjector(inj)
		clock := vtime.NewClock()
		_, st, err := cs.Put(clock, "job", data)
		if clock.Now() < cs.lanes.end() {
			t.Errorf("the Put (err %v) ended at %v, before its lanes at %v", err, clock.Now(), cs.lanes.end())
		}
		return st, clock.Now().Sub(0), err
	}
	probe := proc.NewNodeFaultInjector(proc.NodeFaultPlan{})
	clean, took, err := put(probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := clean.Time - clean.WriteTime
	underwritten := 0
	for _, down := range []int{2, 3} {
		for p := 0; p < probe.Ops(); p++ {
			inj := proc.NewNodeFaultInjector(proc.NodeFaultPlan{
				Seed: uint64(p), EveryN: 1, SkipFirst: p, Max: down,
				Kinds: []proc.NodeFaultKind{proc.NodeFaultCrash}, MaxDown: down,
			})
			_, faulted, err := put(inj, down)
			if err != nil && down == 2 {
				t.Fatalf("two nodes down from operation %d: %v", p, err)
			}
			if err != nil && strings.Contains(err.Error(), "shards written") {
				underwritten++
			}
			if faulted > took || faulted < cpu {
				t.Errorf("%d nodes down from operation %d (err %v): the Put charged %v, the clean one %v, its CPU lane %v",
					down, p, err, faulted, took, cpu)
			}
		}
	}
	if underwritten == 0 {
		t.Error("no Put with three nodes down failed in its pack round")
	}
}

// TestManifestFrameIgnoresReadyInstants: the instants belong to a read, not
// to the checkpoint — a manifest that carries them encodes to the frame it
// was decoded from, and decodes without them.
func TestManifestFrameIgnoresReadyInstants(t *testing.T) {
	cs := confBackends[0].open(t, Config{})
	clock := vtime.NewClock()
	data, segs := tile(nil, []string{"a", "b"}, map[string][]byte{"a": payload(80, 40<<10), "b": payload(81, 40<<10)})
	put, _ := mustPut(t, cs, clock, "job", data, segs)
	_, read, _, err := cs.GetNewestRestorable(clock, "job", nil)
	if err != nil || len(read.ReadyAt()) != 2 {
		t.Fatalf("read: %v, ready at %v", err, read.ReadyAt())
	}
	plain, err1 := encodeManifest(put)
	timed, err2 := encodeManifest(read)
	if err1 != nil || err2 != nil || !bytes.Equal(plain, timed) {
		t.Fatalf("frames differ with ready instants set (%v, %v)", err1, err2)
	}
	back, err := decodeManifest(timed)
	if err != nil || back.ReadyAt() != nil || !reflect.DeepEqual(back, put) {
		t.Fatalf("decoded %+v (%v), put %+v", back, err, put)
	}
}

// TestRestoreWalkIsLazy: the walk loads a generation's manifest when its
// turn comes. With the newest generation restorable, an older one whose
// frame is missing on one disk is not looked at — nothing re-publishes the
// frame — until a restore asks for that generation.
func TestRestoreWalkIsLazy(t *testing.T) {
	cs := confStore{Fleet: testMirror(t, testFS(), Config{})}
	clock := vtime.NewClock()
	mustPut(t, cs, clock, "job", payload(85, 64<<10), nil)
	mustPut(t, cs, clock, "job", payload(86, 64<<10), nil)
	primary := cs.nodes[cs.names[0]]
	if err := primary.fs.Remove(primary.manifestPath("job", 1)); err != nil {
		t.Fatal(err)
	}
	if _, man, deg, err := cs.GetNewestRestorable(clock, "job", nil); err != nil || deg != nil || man.Seq != 2 {
		t.Fatalf("restore of the newest: %v %v %v", man.ID(), deg, err)
	}
	if h := cs.Heals(); h.ManifestsHealed != 0 {
		t.Errorf("restoring job@2 read job@1's manifest too: %+v", h)
	}
	if _, man, deg, err := cs.GetNewestRestorable(clock, "job@1", nil); err != nil || deg != nil || man.Seq != 1 {
		t.Fatalf("restore of job@1: %v %v %v", man.ID(), deg, err)
	}
	if h := cs.Heals(); h.ManifestsHealed != 1 {
		t.Errorf("restoring job@1 healed %+v, want its one missing frame", h)
	}
}
