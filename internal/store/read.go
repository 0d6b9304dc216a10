package store

// The way back: a run of a manifest's chunks becomes one buffer, and every
// byte of it is written once. The payload is allocated at the size the
// manifest gives, each chunk inflates straight into its own range of it,
// and the content address is hashed where the chunk lies. A read has an
// ordered half and a pure half. The ordered half is the fleet's read
// session (fleetRead), called chunk by chunk on the reader's goroutine:
// index lookups, disk and link time, the fault plan's ticks, repair
// bookkeeping. The pure half — record digests, inflate, SHA-256 — shares
// nothing between chunks and runs on GOMAXPROCS workers. Nothing here hashes
// the payload whole: a chunk is checked against its address, and that is
// enough, because the chunks a manifest names are the bytes its Put was
// handed — a segment the Put reused on a Clean claim hashed to the parent's
// refs first (Segment.Clean) — so each byte is hashed once on the way in and
// once on the way back.
//
// Virtual time is a pipeline of three kinds of hardware, and nothing moves
// a clock until the workers have joined. The store nodes' disks run beside
// the reader from the moment the session opens, and every pack has an
// arrival instant; what a chunk waits for and takes — the packs its records
// lie in, its bytes through the reader's one link, reconstruction and
// inflate on the reader's CPU, a second try — is left in its landing; and
// readChunks walks the chunks in order once, the link starting a chunk when
// its packs are there and the CPU when its bytes are. So a read costs the
// same whatever order the workers finish in, and it knows when each of the
// manifest's segments was there: the instant its last chunk was inflated.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"

	"checl/internal/vtime"
)

// lanes is what bringing one chunk back waits for and takes: both halves of
// its read add to it, and nothing else does.
type lanes struct {
	after vtime.Time     // the latest arrival among the packs its records lie in
	link  vtime.Duration // its record bytes through the reader's link
	cpu   vtime.Duration // reconstruction and inflate
}

// pay charges one chunk to a clock that takes chunks one at a time: it waits
// for the chunk's packs, then the link and the CPU follow each other.
func (t lanes) pay(clock *vtime.Clock) {
	clock.AdvanceTo(t.after)
	clock.Advance(t.link + t.cpu)
}

// landing is one chunk on its way into a payload: where its content
// belongs, the address it must hash to and what bringing it back takes.
type landing struct {
	ref  ChunkRef
	addr [sha256.Size]byte // ref.Sum, decoded once
	dst  []byte            // ref.Size bytes of the payload
	err  error             // what the chunk's pure half returned
	lanes
}

// verifyParts turns one chunk's stored blob — given as the slices it lies
// in — back into its content, in l.dst, and checks it against the content
// address: inflate (to exactly the size the manifest records), SHA-256.
// Every read path ends here.
func verifyParts(parts [][]byte, l *landing) error {
	n, took, err := inflate(parts, l.dst)
	if err != nil {
		return fmt.Errorf("store: chunk %s: %w", l.ref.Sum[:12], err)
	}
	l.cpu += took
	if sum := sha256.Sum256(l.dst[:n]); sum != l.addr {
		return fmt.Errorf("store: chunk %s corrupt (content hashes to %s)", l.ref.Sum[:12], hex.EncodeToString(sum[:])[:12])
	}
	if n != len(l.dst) {
		return fmt.Errorf("store: chunk %s holds %d bytes, manifest says %d", l.ref.Sum[:12], n, len(l.dst))
	}
	return nil
}

// newLanding readies one chunk to be read on its own, into a buffer of its
// own: what a caller that wants a verified blob rather than a payload uses.
func (f *Fleet) newLanding(ref ChunkRef) (*landing, error) {
	l := &landing{ref: ref}
	ok := false
	if l.addr, ok = decodeDigest(ref.Sum); !ok || ref.Size < 0 || ref.Size > int64(f.cfg.Store.MaxChunk) {
		return nil, fmt.Errorf("store: chunk %.12s: store: chunk size %d out of range", ref.Sum, ref.Size)
	}
	l.dst = make([]byte, ref.Size)
	return l, nil
}

// startWorkers starts the workers of one pipeline, one per processor, each
// running the pipeline's pure half, job, on the items it is handed. run
// hands an item to the next free worker, and blocks while queue items are
// already waiting for one; wait returns once every item handed over has
// run, and stops the workers. With one processor there are no workers: run
// runs the job itself.
func startWorkers[T any](queue int, job func(T)) (run func(T), wait func()) {
	workers := runtime.GOMAXPROCS(0)
	if workers == 1 {
		return job, func() {}
	}
	items := make(chan T, queue)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for item := range items {
				job(item)
			}
		}()
	}
	return func(item T) { items <- item }, func() {
		close(items)
		wg.Wait()
	}
}

// readChunks is the store's one chunk-landing loop: it reads the run of
// chunks refs, size bytes in all, into one buffer, every chunk verified
// against its content address. id names the manifest in errors. Nothing is read, and no buffer
// allocated, unless the sizes the manifest gives are ones a Put can have
// written and add up: every chunk lands in its own range of the buffer, so
// from here on they are trusted.
//
// The session's fetch runs for every chunk in order, then — after all the
// pure halves have run — its refetch for each chunk that failed, in order,
// and then the one charging loop, in order: the link takes a chunk once its
// packs have arrived and the link is free, the CPU once the chunk is through
// the link and the CPU is free, and the read ends when the CPU does. What
// the nodes are asked to do, what the clock reads and when, depend on
// neither the processor count nor the scheduler. segs, when the refs are a
// manifest's whole chunk list, is its segment map: ready reports for each
// segment the instant the CPU was done with its last chunk — non-decreasing,
// the last one the end of the read.
func (f *Fleet) readChunks(clock *vtime.Clock, id string, refs []ChunkRef, segs []SegmentRef, size int64, heal bool) (payload []byte, ready []vtime.Time, err error) {
	if !sizesAddUp(refs, size, int64(f.cfg.Store.MaxChunk)) {
		return nil, nil, corruptf("store: %s: chunk sizes are not within [0, %d] adding up to %d bytes", id, f.cfg.Store.MaxChunk, size)
	}
	payload = make([]byte, size)
	lands := make([]landing, len(refs))
	off := int64(0)
	for i, ref := range refs {
		addr, ok := decodeDigest(ref.Sum)
		if !ok {
			return nil, nil, corruptf("store: %s: chunk %d: bad address %q", id, i, ref.Sum)
		}
		lands[i] = landing{ref: ref, addr: addr, dst: payload[off : off+ref.Size : off+ref.Size]}
		off += ref.Size
	}
	rd := f.newRead(clock, refs, heal)
	defer rd.close()
	// A queue slot per worker: the session finds the next chunks while the
	// workers are busy with these.
	type pure struct {
		i    int
		land func() error
	}
	run, wait := startWorkers(runtime.GOMAXPROCS(0), func(p pure) {
		lands[p.i].err = p.land()
	})

	fetched := 0
	for ; fetched < len(lands); fetched++ {
		var land func() error
		if land, err = rd.fetch(&lands[fetched]); err != nil {
			break
		}
		if land != nil {
			run(pure{fetched, land})
		}
	}
	wait()
	// A chunk the session cannot bring back ends the read: the first such in
	// chunk order, which a failed land before the failed fetch would be.
	for i := 0; i < fetched; i++ {
		if l := &lands[i]; l.err != nil {
			if rerr := rd.refetch(l, l.err); rerr != nil {
				err = rerr
				break
			}
		}
	}
	// A read that fails has still spent what its chunks took up to there.
	link := clock.Now()
	cpu := link
	charge := func(l *landing) {
		link = vtime.Max(link, l.after).Add(l.link)
		cpu = vtime.Max(cpu, link).Add(l.cpu)
	}
	i := 0
	for _, seg := range segs {
		for end := min(i+seg.Chunks, len(lands)); i < end; i++ {
			charge(&lands[i])
		}
		ready = append(ready, cpu)
	}
	for ; i < len(lands); i++ {
		charge(&lands[i])
	}
	clock.AdvanceTo(cpu)
	if err != nil {
		return nil, nil, err
	}
	return payload, ready, nil
}
