package store

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The compress stage's raw probe: a cheap, exact "would flate store this
// chunk?" asked before flate runs. At BestSpeed, flate codes a chunk of
// [probeMin, probeMax] bytes as one block: it runs its match search
// (deflateFast.encode), and when that removes fewer than 1/16 of the
// tokens it Huffman-codes the bytes as literals (writeBlockHuff), which
// writes a stored block when the stored size is below the Huffman size plus
// 1/16. A stored block and the empty final block make the output 10 bytes
// longer than the chunk, so compress keeps the chunk raw. The probe answers
// both questions the way flate does, and says "raw" only when both answers
// are certain; any chunk it is unsure of is deflated as before, so the
// stored bytes are the same with or without it.
const (
	probeMin = 128   // below this flate Huffman-codes without a match search
	probeMax = 65535 // flate's largest block: a longer chunk is two of them

	// deflateFast's table and limits.
	probeTableBits  = 14
	probeMaxOffset  = 1 << 15
	probeMaxMatch   = 258
	probeMarginTail = 16 - 1 // no match starts in the last 15 bytes
)

type probeEntry struct {
	val    uint32 // the 4 bytes at offset
	offset int32
}

// rawProbe is one worker's match table (128 KiB); the zero value is ready.
type rawProbe struct {
	table [1 << probeTableBits]probeEntry
	// cur is past every offset in table. A chunk's offsets start more than
	// probeMaxOffset past it, so an earlier chunk's entries fail the distance
	// check and the table acts as a fresh one — flate's own reset.
	cur int32
}

// storesRaw reports that flate.BestSpeed would store data in a stored
// block. False is "flate may shrink it", not "it compresses".
func (p *rawProbe) storesRaw(data []byte) bool {
	return len(data) >= probeMin && len(data) <= probeMax &&
		p.fewMatches(data) && entropyStores(data)
}

func probeHash(u uint32) uint32 { return (u * 0x1e35a7bd) >> (32 - probeTableBits) }

func load32(b []byte, i int32) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

func load64(b []byte, i int32) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

// fewMatches reports that flate's match search on src, with a fresh
// table, removes fewer than len(src)>>4 tokens, which sends src to the
// Huffman-only block. It is deflateFast.encode step for step, counting
// what each match removes (its length less one token) instead of emitting
// tokens, and it stops as soon as the count reaches the limit.
func (p *rawProbe) fewMatches(src []byte) bool {
	if p.cur > math.MaxInt32-2*probeMaxOffset-2*probeMax {
		clear(p.table[:])
		p.cur = 0
	}
	base := p.cur + probeMaxOffset + 1
	p.cur = base + int32(len(src))

	limit := int32(len(src) - probeMarginTail)
	budget := int32(len(src) >> 4)
	removed := int32(0)
	s := int32(0)
	cv := load32(src, s)
	nextHash := probeHash(cv)
	for {
		// Skip ahead faster the longer no match is found.
		skip := int32(32)
		nextS := s
		var cand probeEntry
		for {
			s = nextS
			step := skip >> 5
			nextS = s + step
			skip += step
			if nextS > limit {
				return true
			}
			cand = p.table[nextHash]
			now := load32(src, nextS)
			p.table[nextHash] = probeEntry{offset: s + base, val: cv}
			nextHash = probeHash(now)
			if s-(cand.offset-base) <= probeMaxOffset && cv == cand.val {
				break
			}
			cv = now
		}
		// A 4-byte match at s; take matches back to back while they last.
		for {
			s += 4
			l := matchLen(src, s, cand.offset-base+4)
			if removed += l + 3; removed >= budget {
				return false
			}
			s += l
			if s >= limit {
				return true
			}
			x := load64(src, s-1)
			p.table[probeHash(uint32(x))] = probeEntry{offset: base + s - 1, val: uint32(x)}
			x >>= 8
			h := probeHash(uint32(x))
			cand = p.table[h]
			p.table[h] = probeEntry{offset: base + s, val: uint32(x)}
			if s-(cand.offset-base) > probeMaxOffset || uint32(x) != cand.val {
				cv = uint32(x >> 8)
				nextHash = probeHash(cv)
				s++
				break
			}
		}
	}
}

// matchLen is how many bytes from src[s:] match src[t:], t < s, at most
// probeMaxMatch-4: the 4 bytes before each already match.
func matchLen(src []byte, s, t int32) int32 {
	a := src[s:min(int(s)+probeMaxMatch-4, len(src))]
	b := src[t:]
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return int32(n + bits.TrailingZeros64(x)>>3)
		}
	}
	for ; n < len(a) && a[n] == b[n]; n++ {
	}
	return int32(n)
}

// entropyStores reports that a stored block of src, (len+5)·8 bits, is
// smaller than the Shannon bound of src's byte histogram plus its 1/16.
// No prefix code spends fewer bits on src's bytes than that bound (Gibbs'
// inequality, whatever code flate's length-limited Huffman builds), and
// flate's size only adds its header and end-of-block to it, so flate's
// "ssize < size + size>>4" holds too.
func entropyStores(src []byte) bool {
	var h [256]uint32
	for _, b := range src {
		h[b]++
	}
	// Σ f·log2(n/f) = n·log2(n) − Σ f·log2(f)
	n := float64(len(src))
	bound := n * math.Log2(n)
	for _, f := range h {
		if f > 1 {
			bound -= float64(f) * math.Log2(float64(f))
		}
	}
	// Rounded down, less a bit for the float sums' own rounding.
	size := int(bound) - 1
	return (len(src)+5)*8 < size+size>>4
}
