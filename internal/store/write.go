package store

// The way in, the read's split run the other way. A Put has an ordered half
// and a pure half. The ordered half runs on the caller, chunk by chunk in
// payload order: cutting the chunks, the dedup probe, every charge to the
// virtual clock, staging records into packs, the flushes and with them
// every tick of the fault plan. The pure half shares nothing between chunks
// and runs on GOMAXPROCS workers, up to putWindow chunks ahead of the
// caller, as two jobs a chunk: its SHA-256, check and placement, and its
// seal — deflate, Reed–Solomon encode and the digest of each of its shard
// records.
//
// Every chunk cut is hashed; only what the store lacks is sealed. The
// caller probes ahead, in chunk order, as the hashes land: a chunk whose
// content the Put has met before is left alone, and the first of each
// content is looked for in the store and handed back to the workers to be
// sealed only when the store lacks it. The probe at staging time, in chunk
// order, still decides what is written: a chunk it finds present is not
// staged whatever was done for it, and one it finds absent is staged from
// its worker's seal or, when the probe ahead did not hand it back — with
// one processor there are no workers, and a concurrent read's repair or
// forgotten record can change the index under a Put — deflated on the caller
// and sealed in stage. So what a Put writes, reports and charges does not
// depend on the processor count.
//
// Before its first chunk is cut, a Put checks every Clean claim it can
// honour (checkClaims): workers started the way the window's are compute
// the check of the segment's bytes at its parent's chunk boundaries. That
// check is pure too, and it is over before the ordered half starts, so the
// decision it makes for each segment falls in payload order like
// everything else. Like every hash, it charges no virtual time.

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sync"
	"sync/atomic"
)

// claimCheck is one chunk of a check of a Clean claim: the bytes a parent
// chunk ref covers in the segment as it is now, and the ref's Check they
// must have.
type claimCheck struct {
	seg   int
	parts [][]byte
	check uint64
}

// checkClaims checks the Clean claims of segs against parent, the job's
// previous manifest. A claim is checked when parent has a segment of that
// name and size: its chunk refs cut the segment's current bytes, the
// workers compute each piece's chunkCheck, and the claim holds when every
// piece's is its ref's Check. held reports, per segment, that its claim was checked
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
		if chunkCheck(c.parts...) != c.check {
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
		// The refs tile the segment's bytes: decodeManifest checked that their
		// sizes add up to the segment's, and segmentBytes that the bytes do.
		// A cursor walks them: slice at of the bytes, from offset off.
		at, off := 0, 0
		for _, ref := range refs {
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
			run(claimCheck{seg: i, parts: parts, check: ref.Check})
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

// outChunk is one chunk on its way into the packs: its content address, the
// nodes its shards go to, its stored blob and, once sealed, the blob's k+m
// shards with the digest of the record each is framed in.
type outChunk struct {
	sum     string
	addr    [sha256.Size]byte
	nodes   []*fleetNode // placement(sum), a slice of its own: a staged round keeps it
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
	data    []byte         // the chunk's bytes, lent by the caller
	check   uint64         // chunkCheck(data), for its ref
	hashed  sync.WaitGroup // its worker has its address, check and placement
	landed  atomic.Bool    // the same, for a caller that must not wait
	sealing bool           // the probe-ahead handed it back to be sealed
	done    sync.WaitGroup // and that has run
	err     error          // what its worker's deflate returned
}

// putJob is one job of a chunk's pure half: its hash, or its seal.
type putJob struct {
	j    int
	seal bool
}

// window is the chunks a Put has cut and not yet staged: chunks staged to
// cut-1, numbered in payload order, each in slot number mod len(slots), and
// probed ahead up to probed-1.
type window struct {
	f                   *Fleet
	slots               []putSlot // as many as the window holds
	cut, probed, staged int
	run                 func(putJob)
	wait                func() // returns once the workers are done: the chunks are the caller's again
	// ahead says that the caller probes each chunk as its hash lands and the
	// workers seal what the probe finds the store lacks.
	ahead bool
	// inFlight holds every content the probe-ahead has met in this Put.
	inFlight map[string]bool
}

// openWindow starts a Put's workers; close stops them.
func (f *Fleet) openWindow() *window {
	if f.slots == nil {
		f.slots = make([]putSlot, putWindow)
	}
	w := &window{f: f, slots: f.slots, ahead: true, inFlight: map[string]bool{}}
	if runtime.GOMAXPROCS(0) == 1 {
		// Nothing runs beside the caller, so nothing runs ahead of it: each
		// chunk is staged as soon as it is cut, and deflated only once the
		// probe has found it absent — the serial write.
		w.slots, w.ahead = w.slots[:1], false
	}
	// Never more jobs queued than the window holds chunks, each hashed and
	// sealed at most once: run does not block.
	w.run, w.wait = startWorkers(2*putWindow, w.prepare)
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

// push hands the next chunk to the workers to hash, and probes the chunks
// whose hashes have landed.
func (w *window) push(data []byte) {
	s := w.slot(w.cut)
	s.data, s.sealed, s.sealing, s.err = data, false, false, nil
	s.landed.Store(false)
	s.hashed.Add(1)
	w.cut++
	w.run(putJob{j: w.cut - 1})
	w.probeAhead(0)
}

// probeAhead is the caller's look ahead, in chunk order, at the chunks cut
// and not yet probed: it waits for the hashes of the chunks before upTo, and
// goes on past them only while hashes have landed. A chunk whose content the
// Put has met before is left alone; the first of each content is looked for
// in the store, and handed back to the workers to be sealed when the store
// lacks it.
func (w *window) probeAhead(upTo int) {
	if !w.ahead {
		return
	}
	for ; w.probed < w.cut; w.probed++ {
		s := w.slot(w.probed)
		if w.probed >= upTo && !s.landed.Load() {
			return
		}
		s.hashed.Wait()
		if w.inFlight[s.sum] {
			continue
		}
		w.inFlight[s.sum] = true
		if _, ok := w.f.chunkPresent(s.sum, s.nodes); ok {
			continue
		}
		s.sealing = true
		s.done.Add(1)
		w.f.sealedAhead++
		w.run(putJob{j: w.probed, seal: true})
	}
}

// prepare runs one job of chunk j's pure half: its address, check and
// placement, or its blob, sealed.
func (w *window) prepare(job putJob) {
	s := w.slot(job.j)
	if job.seal {
		defer s.done.Done()
		if s.blob, s.err = coders.compress(s.blob, s.data); s.err == nil {
			s.seal(w.f)
		}
		return
	}
	defer s.hashed.Done()
	s.addr = sha256.Sum256(s.data)
	s.check = chunkCheck(s.data)
	s.sum = hex.EncodeToString(s.addr[:])
	s.nodes = w.f.placement(s.sum)
	s.landed.Store(true)
}

// next returns the oldest chunk, hashed, probed and with no job of its own
// left on a worker.
func (w *window) next() *putSlot {
	w.probeAhead(w.staged + 1)
	s := w.slot(w.staged)
	w.staged++
	s.hashed.Wait()
	s.done.Wait()
	return s
}

// work is what stages a chunk the caller's probe found absent: the blob its
// worker sealed, or, for a chunk the probe-ahead did not hand back, one
// deflated here, for stage to seal.
func (w *window) work(s *putSlot) (*outChunk, error) {
	if s.sealing {
		return &s.outChunk, s.err
	}
	var err error
	s.blob, err = coders.compress(s.blob, s.data)
	return &s.outChunk, err
}
