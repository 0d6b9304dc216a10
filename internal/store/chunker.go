// Package store is a content-addressed checkpoint store layered on the
// simulated filesystem (proc.FS). Checkpoint images are split into
// content-defined chunks keyed by their SHA-256, deduplicated across
// successive checkpoints of the same job and across jobs, written through
// a modelled compression stage whose CPU cost is charged to the virtual
// clock, and tracked by manifests (version, chunk list, segment map,
// parent-checkpoint link). Chunks are erasure-coded k+m over the store's
// nodes — one filesystem is 1+0, a mirror 1+1 (fleet.go). The store
// supports replication of manifests+chunks into other stores,
// reference-counted garbage collection with a keep-last-N retention policy,
// verification (Fsck) that detects corrupt or missing chunks, and repair
// (Scrub).
//
// The paper's checkpoint pipeline writes each dump as one monolithic file
// whose cost is linear in size (Fig. 5, corr ≈ 0.99); its future-work
// section calls for incremental checkpointing. The store is the storage
// half of that feature: with content-defined chunking, the second
// checkpoint of a mostly-unchanged application re-writes only the chunks
// that actually changed, independent of where in the image they fall.
package store

// Content-defined chunking with a buzhash rolling hash over a fixed
// window: a chunk boundary is declared wherever the window hash matches a
// mask-selected pattern, so boundaries move with the *content* rather than
// with absolute offsets. An insertion or shift early in the image
// therefore disturbs only the chunks around the edit, and every later
// chunk still deduplicates.

const chunkWindow = 64 // rolling-hash window, bytes

// buzTable maps each byte value to a fixed 64-bit random value
// (splitmix64 from a constant seed, so chunk boundaries are deterministic
// across runs and across nodes).
var buzTable = func() [256]uint64 {
	var t [256]uint64
	s := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		s += 0x9E3779B97F4A7C15
		z := s
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		t[i] = z
	}
	return t
}()

func rotl1(x uint64) uint64 { return x<<1 | x>>63 }

// chunker carries the chunk-size policy.
type chunker struct {
	min, avg, max int
}

// cut returns the length of the first chunk of data: the first offset at
// or past min where the hash of the chunkWindow bytes in front of it
// matches the mask, or max. It returns 0 when data ends before either —
// the chunk is not finished. avg must be a power of two.
//
// The hash at an offset depends only on the window in front of it, so
// nothing before min-chunkWindow is hashed at all.
func (c chunker) cut(data []byte) int {
	limit := min(len(data), c.max)
	mask := uint64(c.avg - 1)
	var h uint64
	i := max(c.min-chunkWindow, 0)
	// Fill the window: nothing leaves it yet. Starting min-chunkWindow in,
	// only its last byte is at or past min; a min inside the first window
	// starts at 0 and can cut earlier.
	for fill := min(i+chunkWindow, limit); i < fill; i++ {
		h = rotl1(h) ^ buzTable[data[i]]
		if i+1 >= c.min && h&mask == mask {
			return i + 1
		}
	}
	for ; i < limit; i++ {
		// With a 64-byte window the leaving byte's table value has been
		// rotated a full word and is back in place, so a plain XOR cancels it.
		h = rotl1(h) ^ buzTable[data[i]] ^ buzTable[data[i-chunkWindow]]
		if h&mask == mask {
			return i + 1
		}
	}
	if limit == c.max {
		return c.max
	}
	return 0
}

// cuts cuts the concatenation of list into content-defined chunks and hands
// each to take as soon as it is cut, so that a Put can put it to work before
// the next is cut. Every chunk is at least min and at most max bytes (except
// the final remainder), averaging roughly avg bytes. Where the slices of
// list are cut makes no difference to where the chunks are. A chunk that
// lies in one slice aliases it; a chunk that spans a slice boundary is a
// copy. cuts stops at, and returns, the first error take returns.
func (c chunker) cuts(list [][]byte, take func(chunk []byte) error) error {
	var rest []byte // the unfinished chunk
	own := false    // rest is a copy made here, not a view of list
	for _, s := range list {
		if len(rest) > 0 && len(s) > 0 {
			n := min(len(s), c.max-len(rest))
			if !own {
				rest, own = append(make([]byte, 0, len(rest)+n), rest...), true
			}
			rest = append(rest, s[:n]...)
			cut := c.cut(rest)
			if cut == 0 {
				continue // all of s went in and the chunk is still open
			}
			if err := take(rest[:cut:cut]); err != nil {
				return err
			}
			s = s[n-(len(rest)-cut):]
			rest, own = nil, false
		}
		for len(s) > 0 {
			n := c.cut(s)
			if n == 0 {
				rest = s
				break
			}
			if err := take(s[:n]); err != nil {
				return err
			}
			s = s[n:]
		}
	}
	if len(rest) > 0 {
		return take(rest)
	}
	return nil
}
