package store

import (
	"bytes"
	"testing"
)

// split is cuts collecting the chunks in a list.
func (c chunker) split(list [][]byte) [][]byte {
	var out [][]byte
	c.cuts(list, func(chunk []byte) error {
		out = append(out, chunk)
		return nil
	})
	return out
}

// splitOracle is the chunker as it was first written: one pass over a
// contiguous buffer, the rolling hash restarted at the first byte of every
// chunk. split must cut exactly where it does.
func splitOracle(c chunker, data []byte) [][]byte {
	if len(data) == 0 {
		return nil
	}
	mask := uint64(c.avg - 1)
	var out [][]byte
	start := 0
	var h uint64
	for i := 0; i < len(data); i++ {
		n := i - start // bytes already in the current chunk
		h = rotl1(h) ^ buzTable[data[i]]
		if n >= chunkWindow {
			h ^= buzTable[data[i-chunkWindow]]
		}
		if n+1 >= c.min && (h&mask) == mask || n+1 >= c.max {
			out = append(out, data[start:i+1])
			start = i + 1
			h = 0
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}

// partition slices data into a list: every byte of lens is the next
// slice's length (zero gives an empty slice), the rest is the last slice.
func partition(data, lens []byte) [][]byte {
	var list [][]byte
	for _, n := range lens {
		n := min(int(n), len(data))
		list = append(list, data[:n])
		data = data[n:]
	}
	return append(list, data)
}

func sameChunks(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d chunks, oracle cuts %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: chunk %d is %d bytes, oracle's is %d (or the bytes differ)", what, i, len(got[i]), len(want[i]))
		}
	}
}

// TestChunkerMatchesOracle runs the store's real geometries over data that
// cuts by content (random) and by max (a ramp never matches the mask),
// contiguous and as the prefix-plus-data lists a process image arrives in.
func TestChunkerMatchesOracle(t *testing.T) {
	ramp := make([]byte, 300<<10)
	for i := range ramp {
		ramp[i] = byte(i >> 4)
	}
	for _, ck := range []chunker{
		{min: 4 << 10, avg: 16 << 10, max: 64 << 10},
		{min: 1 << 10, avg: 4 << 10, max: 16 << 10},
		{min: 32, avg: 64, max: 4 << 10}, // min inside the hash window
	} {
		for name, data := range map[string][]byte{"random": payload(77, 1<<20), "ramp": ramp, "short": payload(78, ck.min-1)} {
			want := splitOracle(ck, data)
			sameChunks(t, name+" contiguous", ck.split([][]byte{data}), want)
			sameChunks(t, name+" prefix+data", ck.split([][]byte{data[:min(30, len(data))], data[min(30, len(data)):]}), want)
			var list [][]byte
			for rest := data; len(rest) > 0; {
				n := min(10007, len(rest))
				list, rest = append(list, rest[:n]), rest[n:]
			}
			sameChunks(t, name+" in 10007-byte slices", ck.split(list), want)
		}
	}
}

// FuzzChunkerSplit: for arbitrary data, split cuts where the oracle cuts,
// however the data is partitioned into a slice list.
func FuzzChunkerSplit(f *testing.F) {
	f.Add(payload(1, 1500), []byte{30}, uint8(0))
	f.Add(payload(2, 1500), []byte{0, 1, 0, 255, 255, 3}, uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 1500), []byte{100, 100, 100, 100, 100, 100}, uint8(2))
	f.Add([]byte{}, []byte{0, 0}, uint8(3))
	f.Fuzz(func(t *testing.T, data, lens []byte, geo uint8) {
		ck := []chunker{
			{min: 16, avg: 64, max: 256},   // min inside the hash window
			{min: 64, avg: 64, max: 300},   // min exactly one window
			{min: 100, avg: 128, max: 700}, // skip-ahead of 36 bytes
			{min: 300, avg: 256, max: 1 << 10},
		}[geo%4]
		want := splitOracle(ck, data)
		sameChunks(t, "contiguous", ck.split([][]byte{data}), want)
		sameChunks(t, "partitioned", ck.split(partition(data, lens)), want)
	})
}
