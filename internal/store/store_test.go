package store

import (
	"bytes"
	"compress/flate"
	"errors"
	"math/rand"
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
	zeros := make([]byte, 256<<10) // maximally compressible
	_, st, err := s.Put(clock, "z", zeros)
	if err != nil {
		t.Fatal(err)
	}
	if st.StoredBytes >= st.NewBytes/10 {
		t.Errorf("zero payload stored %d of %d bytes; compression not effective", st.StoredBytes, st.NewBytes)
	}
	got, _, err := s.Get(clock, "z")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, zeros) {
		t.Fatal("compressed payload did not round-trip")
	}
}

func TestFsckDetectsCorruptionAndLoss(t *testing.T) {
	fs := testFS()
	s := New(fs, Config{})
	clock := vtime.NewClock()
	if _, _, err := s.Put(clock, "job", payload(9, 256<<10)); err != nil {
		t.Fatal(err)
	}
	man, err := s.Resolve("job")
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt one chunk in place.
	victim := s.chunkPath(man.Chunks[0].Sum)
	blob, err := fs.ReadFile(clock, victim)
	if err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), blob...)
	blob[len(blob)/2] ^= 0xFF
	if err := fs.WriteFile(clock, victim, blob); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Fsck(clock)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("fsck missed a corrupt chunk")
	}
	if err := fs.WriteFile(clock, victim, good); err != nil {
		t.Fatal(err)
	}

	// Remove another chunk entirely.
	if err := fs.Remove(s.chunkPath(man.Chunks[1].Sum)); err != nil {
		t.Fatal(err)
	}
	rep, err = s.Fsck(clock)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range rep.Errors {
		if strings.Contains(e, "missing") {
			found = true
		}
	}
	if !found {
		t.Errorf("fsck did not report the missing chunk: %v", rep.Errors)
	}
	if _, _, err := s.Get(clock, "job"); err == nil {
		t.Error("get of a damaged checkpoint must fail")
	}
}

func TestReplicate(t *testing.T) {
	srcFS, dstFS := testFS(), testFS()
	src, dst := New(srcFS, Config{}), New(dstFS, Config{})
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
	clock := vtime.NewClock()
	chunks := [][]byte{compressible(1, 16<<10), compressible(9, 5000), make([]byte, 64<<10), payload(7, 16<<10), compressible(3, 16<<10)}
	for round := 0; round < 3; round++ {
		for i, chunk := range chunks {
			var fresh bytes.Buffer
			fresh.WriteByte(codecFlate)
			w, err := flate.NewWriter(&fresh, flateLevel)
			if err != nil {
				t.Fatal(err)
			}
			w.Write(chunk)
			w.Close()
			want := fresh.Bytes()
			if fresh.Len() >= len(chunk)+1 {
				want = append([]byte{codecRaw}, chunk...)
			}

			got, err := compress(clock, nil, chunk)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d chunk %d: a reused writer produced %d bytes, a fresh one %d", round, i, len(got), len(want))
			}
			back := make([]byte, len(chunk))
			if n, err := inflate(clock, [][]byte{got}, back); err != nil || !bytes.Equal(back[:n], chunk) {
				t.Fatalf("round %d chunk %d: round trip: %v", round, i, err)
			}
			if len(chunk) > 0 {
				if _, err := inflate(clock, [][]byte{got}, back[:len(chunk)-1]); err == nil {
					t.Fatalf("round %d chunk %d: inflated past the size the manifest gives", round, i)
				}
			}
		}
	}
}
