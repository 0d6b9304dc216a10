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
	"slices"
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

// TestReadIndependentOfProcsDegraded: a degraded read returns, charges,
// repairs and leaves on the disks the same with one processor — everything
// inline — as with its chunks' records checked and solved on workers. An
// 8-node 4+2 fleet has two nodes down, so a chunk has none, one or two of
// its shards on them. In one case each chunk whose one lost shard is a data
// shard has its first surviving record rotted: its pure half fails and the
// second try reads it degraded on the caller, healing the rotten record. In
// the other every third chunk with at most one shard down has a data record
// missing from an alive node, which it owes a heal: it is read degraded on
// the caller. The image ends in runs of one byte value, each one chunk many
// times over, and each damage reaches the first occurrence of some of them:
// their repeats are copied once it has landed, and it is healed once. The
// payload, the heals, every file — the heal packs — and the clock are the
// same at 1, 2 and 8 procs.
func TestReadIndependentOfProcsDegraded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type outcome struct {
		Err   string
		Sum   [sha256.Size]byte
		Clock vtime.Time
		Heals HealStats
		Files [][][2]string
	}
	data := slices.Concat(payload(94, 200<<10), compressible(5, 100<<10))
	for v := range 8 {
		data = append(data, bytes.Repeat([]byte{byte(16 + v)}, 40<<10)...)
	}
	// Each damage takes the fleet, its chunk list and the placement of a
	// chunk with the number of its shards on a down node, and damages one
	// record of the chunk or none; it reports whether it did.
	damages := []struct {
		name   string
		damage func(f *Fleet, sum string, nodes []*fleetNode, down []int, at int) bool
	}{
		{"rotted record", func(f *Fleet, sum string, nodes []*fleetNode, down []int, _ int) bool {
			if len(down) != 1 || down[0] >= f.cfg.DataShards {
				return false
			}
			i := 0
			if down[0] == 0 {
				i = 1
			}
			loc, _ := f.lookup(nodes[i], sum, i)
			nodes[i].fs.FlipBit(loc.pack, uint64(loc.off+loc.n-1)*8)
			return true
		}},
		{"heal owed", func(f *Fleet, sum string, nodes []*fleetNode, down []int, at int) bool {
			if len(down) > 1 || at%3 != 0 {
				return false
			}
			i := 0
			if len(down) == 1 && down[0] == 0 {
				i = 1
			}
			loc, _ := f.lookup(nodes[i], sum, i)
			f.forget(nodes[i], recKey{sum, i}, loc)
			return true
		}},
	}
	for _, d := range damages {
		var first outcome
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			f, states := testFleet(t, 8, FleetConfig{})
			clock := vtime.NewClock()
			man, _, err := f.Put(clock, "job", data)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range f.Nodes()[:2] {
				states[name].SetDown(true)
			}
			damaged, repeated := 0, 0
			firsts, _ := repeatsOf(man)
			for at, ref := range man.Chunks {
				if firsts[at] >= 0 {
					continue
				}
				nodes := f.placement(ref.Sum)
				var down []int
				for i, n := range nodes {
					if !n.alive() {
						down = append(down, i)
					}
				}
				if d.damage(f, ref.Sum, nodes, down, at) {
					damaged++
					if slices.Contains(firsts, at) {
						repeated++
					}
				}
			}
			var out outcome
			got, _, err := f.Get(clock, "job")
			if err != nil {
				out.Err = err.Error()
			}
			out.Sum, out.Clock, out.Heals = sha256.Sum256(got), clock.Now(), f.Heals()
			allUp(states)
			for _, name := range f.Nodes() {
				out.Files = append(out.Files, listing(nodeFS(f, name)))
			}
			if procs == 1 {
				first = out
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("%s: degraded get: %v", d.name, err)
				}
				if repeated == 0 || out.Heals.ShardsHealed != damaged {
					t.Fatalf("%s: %d chunks damaged, %d of them repeated, %d shards healed", d.name, damaged, repeated, out.Heals.ShardsHealed)
				}
			} else if !reflect.DeepEqual(out, first) {
				t.Errorf("%s: GOMAXPROCS %d: err %q clock %v heals %+v\n GOMAXPROCS 1: err %q clock %v heals %+v",
					d.name, procs, out.Err, out.Clock, out.Heals, first.Err, first.Clock, first.Heals)
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

// traceRead lands man's chunks the way readChunks does, without charging
// anything: what every chunk waits for and takes, and — measured from the
// clock's instant — how long the busiest node's disk needs for its packs.
func traceRead(t *testing.T, cs confStore, clock *vtime.Clock, man Manifest) (lands []landing, disk vtime.Duration) {
	t.Helper()
	_, lands, distinct, err := cs.landings(man.ID(), man.Chunks, man.Size)
	if err != nil {
		t.Fatal(err)
	}
	rd := cs.newRead(clock, distinct, false)
	defer rd.close()
	if err := rd.land(lands); err != nil {
		t.Fatal(err)
	}
	for _, p := range rd.packs {
		disk = max(disk, p.arrived.Sub(clock.Now()))
	}
	return lands, disk
}

// putThreeGenerations puts three generations of a four-segment image, each
// with a new _head, and returns the last one's manifest: its chunks lie in
// all three generations' packs.
func putThreeGenerations(t *testing.T, cs confStore, clock *vtime.Clock) Manifest {
	t.Helper()
	clock.Advance(7 * vtime.Millisecond)
	names := []string{"_head", "a", "b", "c"}
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
	return man
}

// firstArrival is the earliest instant any of lands has all its packs.
func firstArrival(lands []landing) vtime.Time {
	first := lands[0].after
	for _, l := range lands {
		first = min(first, l.after)
	}
	return first
}

// TestReadTimelineBounds: running the disks, the link and the CPU beside
// each other hides time and never invents it. A read of an image whose
// chunks lie in three generations' packs ends no sooner than its first
// pack to arrive plus everything the link carried, than the busiest disk,
// than everything the CPU inflated — and sooner than the three one after
// the other. With
// one chunk in one pack per node there is nothing to overlap; and a read
// that fails part-way has spent what it did up to there.
func TestReadTimelineBounds(t *testing.T) {
	for _, b := range confBackends {
		cs := b.open(t, Config{})
		clock := vtime.NewClock()
		man := putThreeGenerations(t, cs, clock)

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
		if first := firstArrival(lands); end < first.Add(link) || first <= began {
			t.Errorf("%s: read ended at %v, its first pack arrived at %v (began %v) and the link carried %v", b.name, end, first, began, link)
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
		if end, first := clock.Now(), firstArrival(lands[:mid]); end < first.Add(link) || end.Sub(began) < cpu {
			t.Errorf("%s: a read that failed at chunk %d ended at %v: began %v, first pack %v, link %v and cpu %v before it",
				b.name, mid, end, began, first, link, cpu)
		}
	}
}

// linkSchedule charges lands to the link alone, one segment per chunk:
// when each chunk started on the link and when it was through.
func linkSchedule(lands []landing, start vtime.Time) (starts, ends []vtime.Time) {
	bare := make([]landing, len(lands))
	ones := make([]SegmentRef, len(lands))
	for i, l := range lands {
		bare[i].lanes = lanes{after: l.after, link: l.link}
		ones[i].Chunks = 1
	}
	_, ends = charge(bare, ones, start)
	for i, end := range ends {
		starts = append(starts, end.Add(-lands[i].link))
	}
	return starts, ends
}

// checkLinkRule holds the link's schedule of lands to the rule that makes
// it: the link is through exactly at the work-conserving makespan,
// max_j(after_j + Σ link_i over the chunks with after_i ≥ after_j), so it
// never idles while a chunk that has arrived waits; and no chunk starts on
// it while a lower-numbered one that has arrived is still waiting.
func checkLinkRule(t *testing.T, what string, lands []landing, start vtime.Time) (starts, ends []vtime.Time) {
	t.Helper()
	starts, ends = linkSchedule(lands, start)
	makespan, through := start, start
	for j, lj := range lands {
		from := vtime.Max(start, lj.after)
		for _, li := range lands {
			if li.after >= lj.after {
				from = from.Add(li.link)
			}
		}
		makespan, through = vtime.Max(makespan, from), vtime.Max(through, ends[j])
	}
	if through != makespan {
		t.Errorf("%s: the link was through at %v, the work-conserving makespan is %v", what, through, makespan)
	}
	for i := range lands {
		for j := i + 1; j < len(lands); j++ {
			if lands[i].after <= starts[j] && starts[i] > starts[j] {
				t.Errorf("%s: chunk %d started on the link at %v, chunk %d, there since %v, only at %v",
					what, j, starts[j], i, lands[i].after, starts[i])
			}
		}
	}
	return starts, ends
}

// TestReadLinkTakesWhatHasArrived: whenever the reader's link is free it
// takes the lowest-numbered chunk whose packs have arrived, and waits only
// when none has. Over the lanes traceRead finds for an image in three
// generations' packs, on every backend: (a) the link is through at the
// work-conserving makespan, lower-numbered chunks that are there go first
// (checkLinkRule), and the read ends where charging those lanes does; (b)
// with the chunk whose pack arrives last moved to the front, a later chunk
// is done first; and (c) with that front chunk's pack arriving instead
// while another chunk is on the link and an earlier arrival still waits,
// the front chunk goes next — so _head is ready no later than its pack,
// one chunk in flight and its own link and CPU.
func TestReadLinkTakesWhatHasArrived(t *testing.T) {
	for _, b := range confBackends {
		cs := b.open(t, Config{})
		clock := vtime.NewClock()
		man := putThreeGenerations(t, cs, clock)
		began := clock.Now()
		lands, _ := traceRead(t, cs, clock, man)

		// (a) The read as it comes.
		checkLinkRule(t, b.name, lands, began)
		end, done := charge(lands, man.Segments, began)
		if _, ready, err := cs.readChunks(clock, man.ID(), man.Chunks, man.Segments, man.Size, false); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		} else if clock.Now() != end || ready[0] != done[0] || ready[len(ready)-1] != end {
			t.Errorf("%s: read ended at %v, segments ready at %v; its lanes charge to %v, segments done at %v",
				b.name, clock.Now(), ready, end, done)
		}

		// (b) Chunk 0 in the pack that arrives last.
		last := 0
		for i, l := range lands {
			if l.after >= lands[last].after {
				last = i
			}
		}
		moved := append([]landing{lands[last]}, lands[:last]...)
		moved = append(moved, lands[last+1:]...)
		if moved[0].after == firstArrival(moved) {
			t.Fatalf("%s: every chunk's packs arrive at once (%v)", b.name, moved[0].after)
		}
		checkLinkRule(t, b.name+", last pack first", moved, began)
		ones := make([]SegmentRef, len(moved))
		for i := range ones {
			ones[i].Chunks = 1
		}
		_, done = charge(moved, ones, began)
		if slices.Min(done[1:]) >= done[0] {
			t.Errorf("%s: chunk 0, whose pack arrives last at %v, was done at %v, before every later chunk: %v",
				b.name, moved[0].after, done[0], done)
		}

		// (c) Chunk 0's pack arrives while chunk k is on the link and chunk
		// j, there already, waits behind k.
		starts, ends := linkSchedule(moved, began)
		k, j := -1, -1
		for c := 1; c < len(moved) && k < 0; c++ {
			mid := starts[c].Add(moved[c].link / 2)
			for w := 1; w < len(moved) && moved[c].link > 0; w++ {
				if starts[w] > starts[c] && moved[w].after <= mid && moved[w].link > 0 && mid < moved[0].after {
					k, j = c, w
					moved[0].after = mid
					break
				}
			}
		}
		if k < 0 {
			var link vtime.Duration
			for _, l := range moved {
				link += l.link
			}
			if link > 0 {
				t.Fatalf("%s: the link carried %v and never had a chunk waiting behind another", b.name, link)
			}
			continue // a local disk's records cross no link
		}
		starts, _ = checkLinkRule(t, b.name+", _head behind one in flight", moved, began)
		if starts[0] != ends[k] {
			t.Errorf("%s: _head there at %v, chunk %d on the link until %v: _head started at %v, chunk %d (there at %v) at %v",
				b.name, moved[0].after, k, ends[k], starts[0], j, moved[j].after, starts[j])
		}
		_, done = charge(moved, ones, began)
		flight := moved[k].link + moved[k].cpu
		if bound := moved[0].after.Add(flight + moved[0].link + moved[0].cpu); done[0] > bound {
			t.Errorf("%s: _head there at %v, ready at %v: after one chunk in flight (%v) and its own link and CPU, %v",
				b.name, moved[0].after, done[0], flight, bound)
		}
	}
}

// repeatsOf maps each of man's chunks to the earlier one of the same
// content it repeats — -1 for a first occurrence — and to the segment it
// lies in.
func repeatsOf(man Manifest) (firsts, segOf []int) {
	for s, seg := range man.Segments {
		for range seg.Chunks {
			segOf = append(segOf, s)
		}
	}
	seen := map[string]int{}
	for i, ref := range man.Chunks {
		j, ok := seen[ref.Sum]
		if !ok {
			seen[ref.Sum], j = i, -1
		}
		firsts = append(firsts, j)
	}
	return firsts, segOf
}

// TestReadCopiesRepeatedChunks: a read brings each content back once. An
// image with a zeroed segment — one chunk many times over — and one
// segment's bytes again in a later segment reads back bit-identical on every
// backend. Its repeats take no link, so the link carries exactly what a read
// of the image without them carries; a segment holding a repeat is ready no
// sooner than the CPU is done with its first occurrence; and a repeat whose
// first occurrence has a rotted record lands once the second try has read
// that one. A read that fails before a repeat's first occurrence, or that
// names one address at two sizes, fails as a read of the failing chunk alone
// does — the second size is never copied short. The files, the heals, the
// clock and the errors are the same at 1, 2 and 8 procs.
func TestReadCopiesRepeatedChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	names := []string{"_head", "a", "zero", "b", "c", "d"}
	parts := map[string][]byte{"_head": payload(80, 300), "a": payload(81, 40<<10), "zero": make([]byte, 256<<10),
		"b": payload(82, 3000), "c": compressible(7, 20<<10), "d": payload(82, 3000)}
	data, segs := tile(nil, names, parts)
	// Each failure takes the image's chunk list, its repeats and the store,
	// damages the store or the list, and returns the list to read and the
	// one chunk whose read alone fails the same way.
	failures := []struct {
		name string
		fail func(t *testing.T, cs confStore, man Manifest, firsts, segOf []int) (refs []ChunkRef, lone ChunkRef)
	}{
		{"lost before a first occurrence", func(t *testing.T, cs confStore, man Manifest, firsts, segOf []int) ([]ChunkRef, ChunkRef) {
			lost := slices.Index(segOf, 2) - 1 // segment a's last chunk
			if lost < 0 || slices.Contains(firsts, lost) {
				t.Fatalf("chunk %d: not a lone chunk before the zeroed segment", lost)
			}
			cs.loseChunk(t, man.Chunks[lost].Sum)
			return man.Chunks, man.Chunks[lost]
		}},
		{"an address at two sizes", func(t *testing.T, _ confStore, man Manifest, firsts, _ []int) ([]ChunkRef, ChunkRef) {
			refs := slices.Clone(man.Chunks)
			i := len(firsts) - 1
			for firsts[i] < 0 {
				i--
			}
			refs[i].Size--
			return refs, refs[i]
		}},
	}
	type outcome struct {
		Errs  []string
		Clock vtime.Time
		Heals HealStats
		Files [][][2]string
	}
	for _, b := range confBackends {
		healable := b.name == "disk+replica" || b.name == "fleet-4+2"
		var first outcome
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			cs := b.open(t, Config{})
			clock := vtime.NewClock()
			man, _ := mustPut(t, cs, clock, "job", data, segs)
			firsts, segOf := repeatsOf(man)
			within, across := 0, 0
			bare := man
			bare.Chunks, bare.Size = nil, 0
			for i, j := range firsts {
				switch {
				case j < 0:
					bare.Chunks, bare.Size = append(bare.Chunks, man.Chunks[i]), bare.Size+man.Chunks[i].Size
				case segOf[i] == segOf[j]:
					within++
				default:
					across++
				}
			}
			if within == 0 || across == 0 {
				t.Fatalf("%s: %d repeats within a segment, %d across segments", b.name, within, across)
			}

			began := clock.Now()
			lands, _ := traceRead(t, cs, clock, man)
			bareLands, _ := traceRead(t, cs, clock, bare)
			var link, bareLink vtime.Duration
			for i, l := range lands {
				link += l.link
				if j := firsts[i]; j >= 0 && (l.link != 0 || l.after != lands[j].after || l.cpu != repeatCopy.Transfer(l.ref.Size)) {
					t.Errorf("%s: chunk %d, a repeat of %d, waits for %v and takes link %v, CPU %v; %d waits for %v",
						b.name, i, j, l.after, l.link, l.cpu, j, lands[j].after)
				}
			}
			for _, l := range bareLands {
				bareLink += l.link
			}
			if link != bareLink {
				t.Errorf("%s: the link carried %v, and %v for the image without its repeats", b.name, link, bareLink)
			}
			got, ready, err := cs.readChunks(clock, man.ID(), man.Chunks, man.Segments, man.Size, true)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: read with repeats: %v", b.name, err)
			}
			ones := make([]SegmentRef, len(lands))
			for i := range ones {
				ones[i].Chunks = 1
			}
			_, done := charge(lands, ones, began)
			for i, j := range firsts {
				if j >= 0 && ready[segOf[i]] < done[j] {
					t.Errorf("%s: segment %d, holding chunk %d, ready at %v; chunk %d, which it repeats, inflated at %v",
						b.name, segOf[i], i, ready[segOf[i]], j, done[j])
				}
			}

			var out outcome
			if healable {
				// The first occurrence of segment d's last chunk, in segment b,
				// rotted in its first record: its payload range holds no copy
				// of the content until the second try has read it.
				sum := man.Chunks[firsts[len(firsts)-1]].Sum
				for idx, n := range cs.placement(sum) {
					if loc, ok := cs.lookup(n, sum, idx); ok && n.alive() {
						n.fs.FlipBit(loc.pack, uint64(loc.off+loc.n-1)*8)
						break
					}
				}
				if got, _, err := cs.Get(clock, "job"); err != nil || !bytes.Equal(got, data) || cs.Heals().ShardsHealed != 1 {
					t.Errorf("%s: read with a repeated chunk's first occurrence rotted: %v, heals %+v", b.name, err, cs.Heals())
				}
			}
			out.Clock, out.Heals = clock.Now(), cs.Heals()
			for _, fs := range cs.disks() {
				out.Files = append(out.Files, listing(fs))
			}

			for _, f := range failures {
				fcs := b.open(t, Config{})
				fclock := vtime.NewClock()
				fman, _ := mustPut(t, fcs, fclock, "job", data, segs)
				refs, lone := f.fail(t, fcs, fman, firsts, segOf)
				size := int64(0)
				for _, ref := range refs {
					size += ref.Size
				}
				_, _, err := fcs.readChunks(fclock, fman.ID(), refs, nil, size, false)
				_, _, loneErr := fcs.readChunks(fclock, fman.ID(), []ChunkRef{lone}, nil, lone.Size, false)
				if err == nil || loneErr == nil || err.Error() != loneErr.Error() {
					t.Errorf("%s: %s: read failed with %v, the chunk alone with %v", b.name, f.name, err, loneErr)
				}
				out.Errs = append(out.Errs, fmt.Sprint(err))
			}
			if procs == 1 {
				first = out
			} else if !reflect.DeepEqual(out, first) {
				t.Errorf("%s: GOMAXPROCS %d: clock %v heals %+v errs %q\n GOMAXPROCS 1: clock %v heals %+v errs %q",
					b.name, procs, out.Clock, out.Heals, out.Errs, first.Clock, first.Heals, first.Errs)
			}
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
