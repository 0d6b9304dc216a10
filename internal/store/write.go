package store

// The way in, the read's split run the other way. A Put has an ordered half
// and a pure half. The ordered half runs on the caller, chunk by chunk in
// payload order: cutting the chunks, the dedup probe, every charge to the
// virtual clock, staging records into packs, the flushes and with them
// every tick of the fault plan. The pure half — a chunk's SHA-256, deflate,
// Reed–Solomon encode and the digest of each of its shard records — shares
// nothing between chunks and runs on GOMAXPROCS workers, up to putWindow
// chunks ahead of the caller.
//
// A worker does not know what the store will hold by the time the caller
// reaches its chunk, so its work is speculative: it seals every chunk it is
// handed. The caller's probe, in chunk order, decides. A chunk it finds
// present has its work discarded; one it finds absent is staged from its
// worker's work or, with one processor and so no workers, sealed on the
// caller. So what a Put writes, reports and charges does not depend on the
// processor count.
//
// Before its first chunk is cut, a Put checks every Clean claim it can
// honour (checkClaims): workers started as the window's are hash the
// segment's bytes at its parent's chunk boundaries. That check is pure too, and it is over before
// the ordered half starts, so the decision it makes for each segment falls
// in payload order like everything else. Like every hash, it charges no
// virtual time.

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sync"
	"sync/atomic"
)

// claimCheck is one chunk of a check of a Clean claim: the bytes a parent
// chunk ref covers in the segment as it is now, and the address they must
// hash to.
type claimCheck struct {
	seg   int
	parts [][]byte
	addr  [sha256.Size]byte
}

// checkClaims checks the Clean claims of segs against parent, the job's
// previous manifest. A claim is checked when parent has a segment of that
// name and size: its chunk refs cut the segment's current bytes, the
// workers hash each piece, and the claim holds when every piece hashes to
// its ref's address. held reports, per segment, that its claim was checked
// and holds — the segment reuses the parent's refs; refuted counts the
// checked claims that do not hold, unchecked the claims with nothing in
// parent to check them against. Nothing is copied: a piece is the slices
// of the segment's own bytes that it spans. The workers start with the
// first claim checked.
func (f *Fleet) checkClaims(parent Manifest, segs []Segment) (held []bool, refuted, unchecked int) {
	held = make([]bool, len(segs))
	wrong := make([]atomic.Bool, len(segs))
	var run func(claimCheck)
	wait := func() {}
	check := func(c claimCheck) {
		if wrong[c.seg].Load() {
			return // the claim is already refuted
		}
		var sum [sha256.Size]byte
		if len(c.parts) == 1 {
			sum = sha256.Sum256(c.parts[0])
		} else {
			h := sha256.New()
			for _, b := range c.parts {
				h.Write(b)
			}
			h.Sum(sum[:0])
		}
		if sum != c.addr {
			wrong[c.seg].Store(true)
		}
	}
	for i, sg := range segs {
		if !sg.Clean {
			continue
		}
		ps, refs, ok := parent.segment(sg.Name)
		if !ok || ps.Size != sg.Len {
			unchecked++ // no matching parent segment: chunk it like a dirty one
			continue
		}
		if run == nil {
			run, wait = startWorkers(putWindow, check)
		}
		held[i] = true
		// The refs tile the segment's bytes: decodeManifest checked their
		// addresses and that their sizes add up to the segment's, and
		// segmentBytes that the bytes do. A cursor walks them: slice at of
		// the bytes, from offset off.
		at, off := 0, 0
		for _, ref := range refs {
			addr, _ := decodeDigest(ref.Sum)
			var parts [][]byte
			for need := int(ref.Size); need > 0; {
				b := sg.Data[at][off:]
				n := min(need, len(b))
				parts = append(parts, b[:n])
				need -= n
				if off += n; off == len(sg.Data[at]) {
					at, off = at+1, 0
				}
			}
			run(claimCheck{seg: i, parts: parts, addr: addr})
		}
	}
	wait()
	for i := range held {
		if held[i] && wrong[i].Load() {
			held[i] = false
			refuted++
		}
	}
	return held, refuted, unchecked
}

// putWindow is how many chunks a Put has handed to its workers ahead of the
// one it stages: enough to keep every worker busy while the caller stages
// and flushes, few enough that its blobs and records stay in cache.
const putWindow = 32

// outChunk is one chunk on its way into the packs: its content address, its
// stored blob and, once sealed, the blob's k+m shards with the digest of the
// record each is framed in.
type outChunk struct {
	sum     string
	addr    [sha256.Size]byte
	blob    []byte
	shards  [][]byte
	digests [][sha256.Size]byte
	sealed  bool
	fresh   []byte // the coder's buffer for what is not a view of blob
}

// seal cuts c's blob into shards and digests each shard's record.
func (c *outChunk) seal(f *Fleet) {
	c.shards, c.fresh = f.coder.encode(c.blob, c.shards, c.fresh)
	c.digests = c.digests[:0]
	for i, shard := range c.shards {
		c.digests = append(c.digests, recordDigest(c.addr[:], i, f.cfg.DataShards, f.cfg.ParityShards, len(c.blob), shard))
	}
	c.sealed = true
}

// putSlot is one chunk in a Put's window.
type putSlot struct {
	outChunk
	data []byte         // the chunk's bytes, lent by the caller
	done sync.WaitGroup // the chunk's pure half has run
	err  error          // what its worker's deflate returned
}

// window is the chunks a Put has cut and not yet staged: chunks staged to
// cut-1, numbered in payload order, each in slot number mod len(slots).
type window struct {
	f           *Fleet
	slots       []putSlot // as many as the window holds
	cut, staged int
	run         func(j int)
	wait        func() // returns once the workers are done: the chunks are the caller's again
	// speculate says that a chunk is deflated before the caller's probe.
	speculate bool
}

// openWindow starts a Put's workers; close stops them.
func (f *Fleet) openWindow() *window {
	if f.slots == nil {
		f.slots = make([]putSlot, putWindow)
	}
	w := &window{f: f, slots: f.slots, speculate: true}
	if runtime.GOMAXPROCS(0) == 1 {
		// Nothing runs beside the caller, so nothing runs ahead of it: each
		// chunk is staged as soon as it is cut, and deflated only once the
		// probe has found it absent — the serial write.
		w.slots, w.speculate = w.slots[:1], false
	}
	// Never more chunks queued than the window holds: run does not block.
	w.run, w.wait = startWorkers(putWindow, w.prepare)
	return w
}

// close stops the workers and lets go of the caller's bytes: only the
// slots' own buffers stay on the Fleet for the next Put.
func (w *window) close() {
	w.wait()
	for i := range w.slots {
		w.slots[i].data = nil
	}
}

func (w *window) slot(j int) *putSlot { return &w.slots[j%len(w.slots)] }

// full reports that the oldest chunk must be staged before another is cut.
func (w *window) full() bool { return w.cut-w.staged == len(w.slots) }

// pending reports whether a chunk is waiting to be staged.
func (w *window) pending() bool { return w.staged < w.cut }

// push hands the next chunk to the workers.
func (w *window) push(data []byte) {
	s := w.slot(w.cut)
	s.data, s.sealed, s.err = data, false, nil
	s.done.Add(1)
	w.cut++
	w.run(w.cut - 1)
}

// prepare is chunk j's pure half: its address and, when the window
// speculates, its blob, sealed.
func (w *window) prepare(j int) {
	s := w.slot(j)
	defer s.done.Done()
	s.addr = sha256.Sum256(s.data)
	s.sum = hex.EncodeToString(s.addr[:])
	if w.speculate {
		if s.blob, s.err = coders.compress(s.blob, s.data); s.err == nil {
			s.seal(w.f)
		}
	}
}

// next returns the oldest chunk, its pure half done.
func (w *window) next() *putSlot {
	s := w.slot(w.staged)
	w.staged++
	s.done.Wait()
	return s
}

// work is what stages a chunk the caller's probe found absent: the blob its
// worker prepared, or one deflated here, for stage to seal.
func (w *window) work(s *putSlot) (*outChunk, error) {
	if w.speculate {
		return &s.outChunk, s.err
	}
	var err error
	s.blob, err = coders.compress(s.blob, s.data)
	return &s.outChunk, err
}
