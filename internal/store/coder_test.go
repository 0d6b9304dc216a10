package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// combinations enumerates all size-r subsets of [0, n).
func combinations(n, r int) [][]int {
	var out [][]int
	idx := make([]int, r)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == r {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := start; i < n; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}

func TestCoderRoundTripAllLossPatterns(t *testing.T) {
	for _, geo := range []struct{ k, m int }{{1, 0}, {1, 1}, {2, 1}, {4, 2}, {3, 3}, {8, 2}} {
		c, err := NewCoder(geo.k, geo.m)
		if err != nil {
			t.Fatalf("NewCoder(%d,%d): %v", geo.k, geo.m, err)
		}
		data := make([]byte, 1000+geo.k) // deliberately not a multiple of k
		for i := range data {
			data[i] = byte(i*31 + 7)
		}
		shards := c.Encode(data)
		if len(shards) != geo.k+geo.m {
			t.Fatalf("k=%d m=%d: %d shards", geo.k, geo.m, len(shards))
		}
		// Systematic: the data shards concatenated ARE the data.
		if got := c.Join(shards, len(data)); !bytes.Equal(got, data) {
			t.Fatalf("k=%d m=%d: data shards do not join to the input", geo.k, geo.m)
		}
		// Every loss pattern up to m erasures reconstructs bit-identical.
		for lost := 1; lost <= geo.m; lost++ {
			for _, gone := range combinations(geo.k+geo.m, lost) {
				have := map[int][]byte{}
				for i, s := range shards {
					have[i] = s
				}
				for _, g := range gone {
					delete(have, g)
				}
				rec, err := c.Reconstruct(have)
				if err != nil {
					t.Fatalf("k=%d m=%d lost=%v: %v", geo.k, geo.m, gone, err)
				}
				for i := range shards {
					if !bytes.Equal(rec[i], shards[i]) {
						t.Fatalf("k=%d m=%d lost=%v: shard %d differs after reconstruction", geo.k, geo.m, gone, i)
					}
				}
				if got := c.Join(rec, len(data)); !bytes.Equal(got, data) {
					t.Fatalf("k=%d m=%d lost=%v: payload differs after reconstruction", geo.k, geo.m, gone)
				}
			}
		}
		// m+1 erasures must fail, not fabricate data — with no parity at
		// all that is the loss of the one data shard — and so must a shard
		// under an index the geometry does not have.
		have := map[int][]byte{}
		for i := geo.m + 1; i < geo.k+geo.m; i++ {
			have[i] = shards[i]
		}
		if _, err := c.Reconstruct(have); err == nil {
			t.Fatalf("k=%d m=%d: reconstruction from %d shards succeeded, need %d", geo.k, geo.m, len(have), geo.k)
		}
		have[geo.k+geo.m] = shards[0]
		if _, err := c.Reconstruct(have); err == nil {
			t.Fatalf("k=%d m=%d: a shard numbered %d counted as a survivor", geo.k, geo.m, geo.k+geo.m)
		}
		// A mirror's parity shard is the data shard again.
		if geo.k == 1 && geo.m == 1 && !bytes.Equal(shards[1], data) {
			t.Fatal("1+1: the parity shard is not a copy of the data")
		}
	}
}

// encodeReference is Encode as it was first written: every shard a fresh
// buffer, every product through the log and exp tables.
func encodeReference(c *Coder, data []byte) [][]byte {
	size := c.ShardSize(len(data))
	shards := make([][]byte, c.k+c.m)
	for i := 0; i < c.k; i++ {
		shards[i] = make([]byte, size)
		copy(shards[i], data[min(i*size, len(data)):min((i+1)*size, len(data))])
	}
	for p := 0; p < c.m; p++ {
		shards[c.k+p] = make([]byte, size)
		for j, coef := range c.gen[c.k+p] {
			for b := range shards[c.k+p] {
				shards[c.k+p][b] ^= gfMul(coef, shards[j][b])
			}
		}
	}
	return shards
}

// TestEncodeMatchesReferenceArithmetic: the product-table encode yields the
// shards the log/exp arithmetic does, for lengths that leave the last data
// shard full, partly padded and all padding; the data shards the input
// fills are views of it, and the input is left as it was.
func TestEncodeMatchesReferenceArithmetic(t *testing.T) {
	for _, geo := range []struct{ k, m int }{{1, 0}, {1, 1}, {4, 2}, {3, 3}, {8, 2}} {
		c, err := NewCoder(geo.k, geo.m)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 5, 4096, 16385, 70000} {
			data := payload(int64(n), n)
			before := append([]byte(nil), data...)
			got, want := c.Encode(data), encodeReference(c, data)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("k=%d m=%d n=%d: shard %d differs from the reference", geo.k, geo.m, n, i)
				}
			}
			if !bytes.Equal(data, before) {
				t.Fatalf("k=%d m=%d n=%d: Encode wrote to its input", geo.k, geo.m, n)
			}
			if size := c.ShardSize(n); n >= size && &got[0][0] != &data[0] {
				t.Errorf("k=%d m=%d n=%d: a full data shard is a copy, not a view", geo.k, geo.m, n)
			}
		}
	}
}

// mulAddBytewise is mulAdd as first written: one product a byte, from the
// log/exp tables.
func mulAddBytewise(dst, src []byte, coef byte) {
	for i := range dst {
		dst[i] ^= gfMul(coef, src[i])
	}
}

// TestMulAddMatchesBytewise: the word-width mulAdd, and mulAdd2's two rows
// in one pass, add what the byte-at-a-time loop adds — for every
// coefficient, and every pair of a coefficient with 0, with 1 and with its
// complement, at lengths that leave every tail short of a word, into a dst
// shorter than src — and read nothing but src.
func TestMulAddMatchesBytewise(t *testing.T) {
	var lens []int
	for n := 0; n <= 17; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 4099)
	for _, n := range lens {
		src := payload(int64(n), n+5)
		srcBefore := append([]byte(nil), src...)
		for _, dn := range []int{n, max(n-3, 0)} { // dst as long as src's n bytes, and shorter
			base0, base1 := payload(int64(n+1), dn), payload(int64(n+2), dn)
			for c := 0; c < 256; c++ {
				coef := byte(c)
				want := append([]byte(nil), base0...)
				mulAddBytewise(want, src, coef)
				got := append([]byte(nil), base0...)
				mulAdd(got, src[:n], coef)
				if !bytes.Equal(got, want) {
					t.Fatalf("mulAdd coef %#x len %d dst %d: differs from the byte-at-a-time loop", coef, n, dn)
				}
				for _, pair := range [][2]byte{{coef, 0}, {0, coef}, {coef, 1}, {1, coef}, {coef, ^coef}} {
					want0, want1 := append([]byte(nil), base0...), append([]byte(nil), base1...)
					mulAddBytewise(want0, src, pair[0])
					mulAddBytewise(want1, src, pair[1])
					got0, got1 := append([]byte(nil), base0...), append([]byte(nil), base1...)
					mulAdd2(got0, got1, src[:n], pair[0], pair[1])
					if !bytes.Equal(got0, want0) || !bytes.Equal(got1, want1) {
						t.Fatalf("mulAdd2 coefs %#x,%#x len %d dst %d: differs from the byte-at-a-time loop", pair[0], pair[1], n, dn)
					}
				}
			}
		}
		if !bytes.Equal(src, srcBefore) {
			t.Fatalf("len %d: src was written", n)
		}
	}
}

func TestCoderRejectsBadGeometry(t *testing.T) {
	for _, geo := range []struct{ k, m int }{{0, 1}, {0, 0}, {-1, 2}, {1, -1}, {200, 100}} {
		if _, err := NewCoder(geo.k, geo.m); err == nil {
			t.Errorf("NewCoder(%d,%d) succeeded", geo.k, geo.m)
		}
	}
	for _, geo := range []struct{ k, m int }{{1, 0}, {1, 1}, {256, 0}, {1, 255}} {
		if _, err := NewCoder(geo.k, geo.m); err != nil {
			t.Errorf("NewCoder(%d,%d): %v", geo.k, geo.m, err)
		}
	}
}

func TestShardFrameRoundTripAndTamperDetection(t *testing.T) {
	payload := []byte("shard payload bytes")
	addr := sha256.Sum256([]byte("the chunk this shard was cut from"))
	digest := recordDigest(addr[:], 3, 4, 2, 77, payload)
	frame := appendShard(nil, addr[:], 3, 4, 2, 77, payload, digest)
	h, got, err := decodeShard(frame)
	want := shardHeader{sum: hex.EncodeToString(addr[:]), idx: 3, k: 4, m: 2, payloadLen: len(payload), origLen: 77}
	if err != nil || h != want || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %+v payload=%q err=%v", h, got, err)
	}
	// Appending after other bytes frames the same record.
	if again := appendShard([]byte("xyz"), addr[:], 3, 4, 2, 77, payload, digest); !bytes.Equal(again[3:], frame) {
		t.Fatal("a record appended to a non-empty buffer differs")
	}
	// Every single flipped bit — magic, geometry, lengths, address, digest
	// or payload — must turn the shard into a detected erasure.
	for bit := 0; bit < len(frame)*8; bit++ {
		tampered := append([]byte(nil), frame...)
		tampered[bit/8] ^= 1 << (bit % 8)
		if _, _, err := decodeShard(tampered); err == nil {
			t.Fatalf("flipped bit %d (byte %d) went undetected", bit, bit/8)
		}
	}
	if _, _, err := decodeShard(frame[:10]); err == nil {
		t.Fatal("truncated frame decoded")
	}
}

func TestShardMapDeterministicAcrossInputOrders(t *testing.T) {
	names := []string{"store-3", "store-1", "store-4", "store-0", "store-2", "store-5"}
	perms := [][]string{
		names,
		{"store-0", "store-1", "store-2", "store-3", "store-4", "store-5"},
		{"store-5", "store-4", "store-3", "store-2", "store-1", "store-0"},
		{"store-2", "store-5", "store-0", "store-4", "store-1", "store-3"},
	}
	var ref *ShardMap
	for pi, perm := range perms {
		m, err := newShardMap(perm)
		if err != nil {
			t.Fatalf("perm %d: %v", pi, err)
		}
		if ref == nil {
			ref = m
			continue
		}
		for c := 0; c < 200; c++ {
			sum := fmt.Sprintf("%064x", c*2654435761)
			want := ref.Place(sum, 6)
			got := m.Place(sum, 6)
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("perm %d chunk %d: placement %v, want %v", pi, c, got, want)
			}
		}
	}
}

func TestShardMapPlacementProperties(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	m, err := newShardMap(names)
	if err != nil {
		t.Fatal(err)
	}
	load := map[string]int{}
	for c := 0; c < 2000; c++ {
		sum := fmt.Sprintf("%064x", c*40503+1)
		p := m.Place(sum, 6)
		if len(p) != 6 {
			t.Fatalf("chunk %d: %d nodes placed, want 6", c, len(p))
		}
		seen := map[string]bool{}
		for _, n := range p {
			if seen[n] {
				t.Fatalf("chunk %d: node %s placed twice", c, n)
			}
			seen[n] = true
		}
		load[p[0]]++ // primary (shard 0) load
	}
	// Primary placement should be roughly uniform: no node under 1/3 or
	// over 3x its fair share of 2000/6.
	fair := 2000 / 6
	for n, l := range load {
		if l < fair/3 || l > fair*3 {
			t.Fatalf("node %s holds %d primaries, fair share %d — ring badly skewed", n, l, fair)
		}
	}
	if _, err := newShardMap([]string{"x", "x"}); err == nil {
		t.Fatal("duplicate node names accepted")
	}
	if _, err := newShardMap(nil); err == nil {
		t.Fatal("empty node set accepted")
	}
}
