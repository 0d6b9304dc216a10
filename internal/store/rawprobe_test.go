package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// flateBlob is compress without the raw probe: flate's blob, or the chunk
// raw when flate does not shrink it. The probe must leave every blob as
// this makes it.
func flateBlob(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteByte(codecFlate)
	w, err := flate.NewWriter(&buf, flateLevel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= len(data)+1 {
		return append([]byte{codecRaw}, data...)
	}
	return buf.Bytes()
}

type probeCase struct {
	name string
	data []byte
}

// probeCorpus is the chunks the probe is checked against flate on: random
// data of every size the probe decides, random data tiled at short and
// long periods, random data with a 1/16 zero tail, short zero runs at a
// stride (matches removing from under to over the 1/16 flate's search
// decides at), sparse zeros, a 200-symbol alphabet, low-entropy ramps
// (runs of one byte value), float32 matrices, and the chunks of the store
// golden's payloads.
func probeCorpus() []probeCase {
	var cs []probeCase
	add := func(name string, data []byte) { cs = append(cs, probeCase{name, data}) }
	r := rand.New(rand.NewSource(45))
	random := func(n int) []byte {
		b := make([]byte, n)
		r.Read(b)
		return b
	}
	for _, n := range []int{127, 128, 129, 200, 256, 1000, 4 << 10, 16 << 10, 40000, probeMax, probeMax + 1} {
		add(fmt.Sprintf("random/%d", n), random(n))
	}
	for i := 0; i < 24; i++ {
		n := probeMin + r.Intn(probeMax-probeMin+1)
		add(fmt.Sprintf("random/%d", n), random(n))
	}
	// A permutation of the bytes: no 4-byte string repeats, and the highest
	// entropy 256 bytes have.
	add("permutation", func() []byte {
		b := make([]byte, 256)
		for i, v := range r.Perm(256) {
			b[i] = byte(v)
		}
		return b
	}())
	for _, period := range []int{64, 100, 1 << 10, 4 << 10, 8 << 10, 16 << 10, 31 << 10, 32 << 10, 33 << 10} {
		for _, n := range []int{16 << 10, probeMax} {
			tile := random(period)
			b := make([]byte, n)
			for i := 0; i < n; i += period {
				copy(b[i:], tile)
			}
			add(fmt.Sprintf("tiled/%d/%d", period, n), b)
		}
	}
	for _, n := range []int{4 << 10, 16 << 10, probeMax} {
		for d := -24; d <= 24; d += 3 {
			b := random(n)
			clear(b[n-(n>>4+d):])
			add(fmt.Sprintf("zero-tail/%d/%+d", n, d), b)
		}
	}
	for _, stride := range []int{48, 56, 64, 72, 80, 96} {
		for run := 4; run <= 9; run++ {
			b := random(16 << 10)
			for i := 0; i < len(b); i += stride {
				clear(b[i:min(i+run, len(b))])
			}
			add(fmt.Sprintf("zero-runs/%d/%d", stride, run), b)
		}
	}
	for _, every := range []int{2, 7, 16, 64} {
		b := random(16 << 10)
		for i := 0; i < len(b); i += every {
			b[i] = 0
		}
		add(fmt.Sprintf("sparse-zero/%d", every), b)
	}
	for _, k := range []int{200, 240, 250} {
		b := random(16 << 10)
		for i := range b {
			b[i] %= byte(k)
		}
		add(fmt.Sprintf("alphabet/%d", k), b)
	}
	for id := 0; id < 3; id++ {
		b := make([]byte, 16<<10)
		run := 64 + id
		for k, start := 0, 0; start < len(b); k, start = k+1, start+run {
			for i := start; i < min(start+run, len(b)); i++ {
				b[i] = byte(k + 7*(k>>8))
			}
		}
		add(fmt.Sprintf("ramp/%d", id), b)
	}
	for _, n := range []int{64, 128} {
		b := make([]byte, 4*n*n)
		for i := 0; i < len(b); i += 4 {
			binary.LittleEndian.PutUint32(b[i:], math.Float32bits(float32(r.Uint32()>>8)/(1<<24)))
		}
		for i := 0; i < len(b); i += 16 << 10 {
			add(fmt.Sprintf("float32/%d/%d", n, i), b[i:min(i+16<<10, len(b))])
		}
	}
	ck := chunker{min: 4 << 10, avg: 16 << 10, max: 64 << 10}
	for _, seed := range []int64{41, 42, 43, 44, 45, 46} {
		for i, c := range ck.split([][]byte{payload(seed, 96<<10)}) {
			add(fmt.Sprintf("golden/%d/%d", seed, i), c)
		}
	}
	return cs
}

// TestStoresRawAgreesWithFlate: on every chunk of the corpus, the probe
// says raw only for a chunk flate stores (its output is not shorter than
// the chunk and its tag), and compress makes the blob it made before the
// probe — with a coder reused across the corpus, whose table holds every
// earlier chunk, and once more with its offsets about to wrap.
func TestStoresRawAgreesWithFlate(t *testing.T) {
	corpus := probeCorpus()
	coder, d := new(deflater), make(deflaters, 1)
	d <- coder
	for _, cur := range []int32{0, math.MaxInt32 - probeMax} {
		coder.probe.cur = cur
		raws := 0
		for _, c := range corpus {
			want := flateBlob(t, c.data)
			if coder.probe.storesRaw(c.data) {
				raws++
				if want[0] != codecRaw {
					t.Errorf("%s: the probe says raw, flate shrinks %d bytes to %d", c.name, len(c.data), len(want))
				}
			}
			got, err := d.compress(nil, c.data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: compress made %d bytes (codec %d), flate alone %d (codec %d)", c.name, len(got), got[0], len(want), want[0])
			}
		}
		if raws == 0 {
			t.Error("the probe decided no chunk of the corpus raw")
		}
	}
}

// TestStoresRawBoundaries: 127 bytes and a MaxChunk chunk (65 536 bytes,
// which flate writes as two blocks) are outside the probe's reach and go
// to flate; at 128 and at 65 535 bytes flate runs the one-block path the
// probe copies, and the largest random chunk is decided raw.
func TestStoresRawBoundaries(t *testing.T) {
	var p rawProbe
	for _, n := range []int{probeMin - 1, probeMax + 1} {
		if data := payload(int64(n), n); p.storesRaw(data) {
			t.Errorf("%d random bytes: the probe decided a size flate does not code as one searched block", n)
		}
	}
	if data := payload(9, probeMax); !p.storesRaw(data) {
		t.Errorf("%d random bytes: not decided raw", probeMax)
	}
	d := make(deflaters, 1)
	for _, n := range []int{probeMin - 1, probeMin, probeMax, probeMax + 1} {
		for _, data := range [][]byte{payload(int64(n), n), make([]byte, n), compressible(n, n)} {
			got, err := d.compress(nil, data)
			if err != nil {
				t.Fatal(err)
			}
			if want := flateBlob(t, data); !bytes.Equal(got, want) {
				t.Errorf("%d bytes: compress made %d bytes, flate alone %d", n, len(got), len(want))
			}
		}
	}
}

// TestStoresRawDecidesRandomChunks is the probe's gain guard: a probe that
// never says raw is sound on every chunk and saves nothing, so at least
// 99% of random chunks of the sizes a Put cuts, [MinChunk, 65 535] bytes,
// must be decided without flate.
func TestStoresRawDecidesRandomChunks(t *testing.T) {
	var p rawProbe
	r := rand.New(rand.NewSource(99))
	const chunks, minChunk = 400, 4 << 10
	decided := 0
	for i := 0; i < chunks; i++ {
		data := make([]byte, minChunk+r.Intn(probeMax-minChunk+1))
		r.Read(data)
		if p.storesRaw(data) {
			decided++
		}
	}
	if decided*100 < chunks*99 {
		t.Fatalf("the probe decided %d of %d random chunks raw, want at least 99%%", decided, chunks)
	}
}

// FuzzStoresRaw is the probe checked against flate on arbitrary chunks: a
// chunk it says raw is one flate does not shrink, and compress makes the
// blob flate alone makes. One probe serves every input, as a Put's worker
// serves every chunk, so stale table entries are exercised too.
func FuzzStoresRaw(f *testing.F) {
	for _, c := range probeCorpus() {
		f.Add(c.data)
	}
	var mu sync.Mutex
	coder, d := new(deflater), make(deflaters, 1)
	d <- coder
	f.Fuzz(func(t *testing.T, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		want := flateBlob(t, data)
		if coder.probe.storesRaw(data) && want[0] != codecRaw {
			t.Fatalf("the probe says raw, flate shrinks %d bytes to %d", len(data), len(want))
		}
		got, err := d.compress(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("compress made %d bytes, flate alone %d", len(got), len(want))
		}
	})
}
