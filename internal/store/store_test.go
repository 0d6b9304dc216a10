package store

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"checl/internal/hw"
	"checl/internal/proc"
	"checl/internal/vtime"
)

func testFS(opts ...proc.FSOption) *proc.FS {
	return proc.NewFS("local", hw.TableISpec().LocalDisk, opts...)
}

// payload builds pseudo-random (incompressible-ish) data from a seed so
// tests control exactly which regions change between checkpoints.
func payload(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestChunkerBounds(t *testing.T) {
	ck := chunker{min: 4 << 10, avg: 16 << 10, max: 64 << 10}
	data := payload(1, 1<<20)
	chunks := ck.split([][]byte{data})
	if len(chunks) < 8 {
		t.Fatalf("1 MiB split into only %d chunks", len(chunks))
	}
	var reassembled []byte
	for i, c := range chunks {
		if i < len(chunks)-1 { // the final remainder may be short
			if len(c) < ck.min || len(c) > ck.max {
				t.Errorf("chunk %d size %d outside [%d, %d]", i, len(c), ck.min, ck.max)
			}
		}
		reassembled = append(reassembled, c...)
	}
	if !bytes.Equal(reassembled, data) {
		t.Fatal("chunks do not reassemble the payload")
	}
}

func TestChunkingSurvivesShift(t *testing.T) {
	// Content-defined boundaries: inserting bytes near the front must not
	// re-chunk the whole payload.
	ck := chunker{min: 2 << 10, avg: 8 << 10, max: 32 << 10}
	base := payload(2, 512<<10)
	shifted := append(append([]byte(nil), payload(3, 100)...), base...)

	sums := func(chunks [][]byte) map[string]bool {
		out := map[string]bool{}
		for _, c := range chunks {
			out[string(c)] = true
		}
		return out
	}
	a, b := sums(ck.split([][]byte{base})), sums(ck.split([][]byte{shifted}))
	common := 0
	for c := range b {
		if a[c] {
			common++
		}
	}
	if common < len(a)/2 {
		t.Errorf("only %d/%d chunks shared after a 100-byte prefix insertion", common, len(a))
	}
}

func TestCompressionShrinksStoredBytes(t *testing.T) {
	s := New(testFS(), Config{})
	clock := vtime.NewClock()
	// Compressible, and different from chunk to chunk: all zeros would be
	// one chunk, stored once, with a manifest larger than its record.
	zeros := compressible(2, 256<<10)
	_, st, err := s.Put(clock, "z", zeros)
	if err != nil {
		t.Fatal(err)
	}
	if st.StoredBytes >= st.NewBytes/4 {
		t.Errorf("compressible payload stored %d of %d bytes; compression not effective", st.StoredBytes, st.NewBytes)
	}
	got, _, err := s.Get(clock, "z")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, zeros) {
		t.Fatal("compressed payload did not round-trip")
	}
}

// TestFsckDetectsCorruptionAndLoss: at every geometry Fsck reports what the
// nodes hold right now — a rotten record is a finding exactly when no spare
// shard reads around it — and writes nothing while it does: the same files
// and the same heal ledger before and after.
func TestFsckDetectsCorruptionAndLoss(t *testing.T) {
	for _, b := range confBackends {
		cs := b.open(t, Config{})
		clock := vtime.NewClock()
		man, _ := mustPut(t, cs, clock, "job", payload(9, 256<<10), nil)
		if rep, err := cs.Fsck(clock); err != nil || !rep.OK() || rep.Manifests != 1 || rep.ChunksChecked == 0 {
			t.Fatalf("%s: fsck of an intact store: %+v %v", b.name, rep, err)
		}
		// Corrupt the first record a read of the first chunk goes to.
		sum := man.Chunks[0].Sum
		for _, n := range cs.placement(sum) {
			if n.alive() {
				rotRecord(t, cs.Fleet, n.name, sum)
				break
			}
		}
		snapshot := func() (files [][][2]string, heals HealStats) {
			for _, fs := range cs.disks() {
				files = append(files, listing(fs))
			}
			return files, cs.Heals()
		}
		files, heals := snapshot()
		rep, err := cs.Fsck(clock)
		if err != nil {
			t.Fatal(err)
		}
		if spare := len(cs.disks()) > cs.cfg.DataShards; rep.OK() != spare {
			t.Errorf("%s: fsck over a rotten record: %v, with a spare shard: %v", b.name, rep.Errors, spare)
		}
		if after, healsAfter := snapshot(); !reflect.DeepEqual(after, files) || healsAfter != heals {
			t.Errorf("%s: fsck wrote to the store (ledger %+v -> %+v)", b.name, heals, healsAfter)
		}
	}

	// Records lost outright, on a store with no second copy.
	fs := testFS()
	s := New(fs, Config{})
	clock := vtime.NewClock()
	if _, _, err := s.Put(clock, "job", payload(9, 256<<10)); err != nil {
		t.Fatal(err)
	}
	truncatePacks(t, fs)
	rep, err := s.Fsck(clock)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0], "lost") {
		t.Errorf("fsck did not report the lost records: %v", rep.Errors)
	}
	if _, _, err := s.Get(clock, "job"); err == nil {
		t.Error("get of a damaged checkpoint must fail")
	}
}

func TestReplicate(t *testing.T) {
	src, dst := New(testFS(), Config{}), New(testFS(), Config{})
	clock := vtime.NewClock()
	data := payload(10, 512<<10)
	if _, _, err := src.Put(clock, "job", data); err != nil {
		t.Fatal(err)
	}

	man, st, err := src.Replicate(clock, "job", dst, hw.GigE)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksCopied == 0 || st.BytesCopied == 0 || st.Time <= 0 {
		t.Fatalf("replication stats = %+v", st)
	}
	got, _, err := dst.Get(clock, man.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("replica does not reconstruct the payload")
	}
	rep, err := dst.Fsck(clock)
	if err != nil || !rep.OK() {
		t.Fatalf("replica fsck: %v %v", err, rep.Errors)
	}

	// Re-replicating moves nothing.
	_, st2, err := src.Replicate(clock, "job", dst, hw.GigE)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ChunksCopied != 0 || st2.ChunksSkipped == 0 {
		t.Errorf("second replication should skip everything: %+v", st2)
	}

	// Any geometry replicates into any other: out of the one disk into a
	// 4+2 fleet, and from there into a mirror, a rotten source record read
	// around on the way.
	fleet, _ := testFleet(t, 6, FleetConfig{Store: Config{}.withDefaults()})
	if _, _, err := src.Replicate(clock, "job", fleet, hw.GigE); err != nil {
		t.Fatal(err)
	}
	rotRecord(t, fleet, fleet.placement(man.Chunks[0].Sum)[0].name, man.Chunks[0].Sum)
	mirror := testMirror(t, testFS(), Config{})
	if _, _, err := fleet.Replicate(clock, "job", mirror, hw.GigE); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*Fleet{"fleet": fleet, "mirror": mirror} {
		if got, gman, err := f.Get(clock, "job"); err != nil || gman.ID() != man.ID() || !bytes.Equal(got, data) {
			t.Errorf("%s does not reconstruct the payload: %v", name, err)
		}
	}
	if fleet.Heals().ShardsHealed != 1 {
		t.Errorf("the rotten source record was not healed on the way: %+v", fleet.Heals())
	}
}

func TestPutSurfacesNoSpace(t *testing.T) {
	s := New(testFS(proc.WithCapacity(64<<10)), Config{})
	clock := vtime.NewClock()
	_, _, err := s.Put(clock, "job", payload(11, 1<<20))
	var nospace *proc.ErrNoSpace
	if !errors.As(err, &nospace) {
		t.Fatalf("err = %v, want *proc.ErrNoSpace", err)
	}
	if nospace.Capacity != 64<<10 {
		t.Errorf("ErrNoSpace = %+v", nospace)
	}
}

func TestStorageModelCharged(t *testing.T) {
	// The store charges the same storage model as flat files: writing to
	// a RAM-disk-backed store must be far cheaper than to a disk-backed
	// one.
	spec := hw.TableISpec()
	disk := New(proc.NewFS("local", spec.LocalDisk), Config{})
	ram := New(proc.NewFS("ramdisk", spec.RAMDisk), Config{})
	data := payload(12, 4<<20)

	diskClock, ramClock := vtime.NewClock(), vtime.NewClock()
	if _, _, err := disk.Put(diskClock, "j", data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ram.Put(ramClock, "j", data); err != nil {
		t.Fatal(err)
	}
	if !(ramClock.Now() < diskClock.Now()) {
		t.Errorf("ram-disk store put (%v) not cheaper than disk (%v)", ramClock.Now(), diskClock.Now())
	}
}

// compressible builds n bytes a fast deflate shrinks but does not
// flatten: short runs of a slowly changing byte.
func compressible(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed + i/37 + (i%5)*(i/1000))
	}
	return b
}

// TestPooledCodersByteIdentical: a chunk compressed through a writer that
// has already compressed other chunks is byte for byte what a fresh writer
// makes of it, so pooling the coders moves no stored byte and no dedup
// decision; and the pooled reader inflates each back, to no more than the
// manifest says.
func TestPooledCodersByteIdentical(t *testing.T) {
	chunks := [][]byte{compressible(1, 16<<10), compressible(9, 5000), make([]byte, 64<<10), payload(7, 16<<10), compressible(3, 16<<10)}
	writers := make(deflaters, 1)
	for round := 0; round < 3; round++ {
		for i, chunk := range chunks {
			want := flateBlob(t, chunk)
			got, err := writers.compress(nil, chunk)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d chunk %d: a reused writer produced %d bytes, a fresh one %d", round, i, len(got), len(want))
			}
			back := make([]byte, len(chunk))
			if n, _, err := inflate([][]byte{got}, back); err != nil || !bytes.Equal(back[:n], chunk) {
				t.Fatalf("round %d chunk %d: round trip: %v", round, i, err)
			}
			if len(chunk) > 0 {
				if _, _, err := inflate([][]byte{got}, back[:len(chunk)-1]); err == nil {
					t.Fatalf("round %d chunk %d: inflated past the size the manifest gives", round, i)
				}
			}
		}
	}
}
