package store

// The way back: a run of a manifest's chunks becomes one buffer, and every
// byte of it is written once. The payload is allocated at the size the
// manifest gives, each chunk inflates straight into its own range of it,
// and the content address is hashed where the chunk lies. A read has an
// ordered half and a pure half. The ordered half is the fleet's read
// session (fleetRead), called chunk by chunk on the reader's goroutine:
// index lookups, disk and link time, the fault plan's ticks, repair
// bookkeeping. The pure half — record digests, inflate, SHA-256 — shares
// nothing between chunks and runs on GOMAXPROCS workers. A degraded chunk,
// one of whose data records is an erasure already, splits the same way: the
// session only locates k surviving records in index order, and the pure half
// checks their digests and solves for the lost data shards before it
// inflates. Only a chunk that owes an alive node a heal, or has fewer than k
// records to find, is read degraded whole on the reader's goroutine; a record
// that fails its digest on a worker sends its chunk to the session's second
// try (refetch), which reads it that way, in chunk order. Nothing here hashes
// the payload whole: a chunk is checked against its address, and that is
// enough, because the chunks a manifest names are the bytes its Put was
// handed — a segment the Put reused on a Clean claim hashed to the parent's
// refs first (Segment.Clean) — so each byte is hashed once on the way in and
// at most once on the way back.
//
// A manifest can name one content many times (a zeroed page, a buffer staged
// twice), and a read brings each content back once. The first ref of an
// address is fetched, verified and inflated; every later ref of it at the
// same size is a repeat, which the session never sees: no index lookup, no
// record, no link byte, no inflate. Once every chunk is in, a repeat is
// copied out of its first occurrence's verified range of the payload.
//
// Virtual time is a pipeline of three kinds of hardware, and nothing moves
// a clock until the workers have joined. The store nodes' disks run beside
// the reader from the moment the session opens, and every pack has an
// arrival instant; what a chunk waits for and takes — the packs its records
// lie in, its bytes through the reader's one link, reconstruction and
// inflate on the reader's CPU, a second try — is left in its landing; and
// readChunks then schedules them once: whenever the link is free it takes
// the lowest-numbered chunk whose packs are there, waiting for the next pack
// only when none is, and the CPU takes each chunk once its bytes are through.
// A repeat waits for what its first occurrence waited for, takes no link and
// takes the CPU for its copy; the first occurrence, lower-numbered and there
// at the same instant, goes first. So a read costs the same whatever order
// the workers finish in, and it knows when each of the manifest's segments
// was there: the instant it and every segment before it had been inflated.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"

	"checl/internal/hw"
	"checl/internal/vtime"
)

// repeatCopy is the rate at which a read copies a repeated chunk out of its
// first occurrence: the host memcpy of Table I.
const repeatCopy = 6.0 * hw.GBps

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
	ref   ChunkRef
	addr  [sha256.Size]byte // ref.Sum, decoded once
	dst   []byte            // ref.Size bytes of the payload
	err   error             // what the chunk's pure half returned
	first *landing          // the landing this one repeats, if any: same address, same size
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
// against its content address. id names the manifest in errors. Nothing is
// read, and no buffer allocated, unless the sizes the manifest gives are
// ones a Put can have written and add up: every chunk lands in its own range
// of the buffer, so from here on they are trusted.
//
// The session lands the chunks (fleetRead.land), and then charge schedules
// what every chunk waits for and takes, and the read ends when the CPU does.
// What the nodes are asked to do, what the clock reads and when, depend on
// neither the processor count nor the scheduler. segs, when the refs are a
// manifest's whole chunk list, is its segment map: ready reports for each
// segment the instant the CPU was done with its last chunk and every chunk
// before it — non-decreasing, the last one the end of the read.
func (f *Fleet) readChunks(clock *vtime.Clock, id string, refs []ChunkRef, segs []SegmentRef, size int64, heal bool) (payload []byte, ready []vtime.Time, err error) {
	payload, lands, distinct, err := f.landings(id, refs, size)
	if err != nil {
		return nil, nil, err
	}
	rd := f.newRead(clock, distinct, heal)
	defer rd.close()
	err = rd.land(lands)
	// A read that fails has still spent what its chunks took up to there:
	// the ones it never fetched wait for nothing and take nothing.
	end, ready := charge(lands, segs, clock.Now())
	clock.AdvanceTo(end)
	for s := 1; s < len(ready); s++ {
		ready[s] = vtime.Max(ready[s], ready[s-1])
	}
	if err != nil {
		return nil, nil, err
	}
	return payload, ready, nil
}

// landings lays the run of chunks refs out over a payload of size bytes,
// one landing each, and lists the refs whose address no earlier ref has:
// what the session has to find. A ref that names the same address at the
// same size as an earlier one is a repeat of it; one at another size is
// read on its own, and fails there as a chunk of the wrong size does.
func (f *Fleet) landings(id string, refs []ChunkRef, size int64) (payload []byte, lands []landing, distinct []ChunkRef, err error) {
	if !sizesAddUp(refs, size, int64(f.cfg.Store.MaxChunk)) {
		return nil, nil, nil, corruptf("store: %s: chunk sizes are not within [0, %d] adding up to %d bytes", id, f.cfg.Store.MaxChunk, size)
	}
	payload = make([]byte, size)
	lands = make([]landing, len(refs))
	firsts := make(map[[sha256.Size]byte]*landing, len(refs))
	off := int64(0)
	for i, ref := range refs {
		addr, ok := decodeDigest(ref.Sum)
		if !ok {
			return nil, nil, nil, corruptf("store: %s: chunk %d: bad address %q", id, i, ref.Sum)
		}
		l := &lands[i]
		*l = landing{ref: ref, addr: addr, dst: payload[off : off+ref.Size : off+ref.Size]}
		if first, seen := firsts[addr]; !seen {
			firsts[addr] = l
			distinct = append(distinct, ref)
		} else if first.ref.Size == ref.Size {
			l.first = first
		}
		off += ref.Size
	}
	return payload, lands, distinct, nil
}

// land brings lands back into their ranges of the payload. The session's
// fetch runs for every chunk but a repeat, in order, then — after all the
// pure halves have run — its refetch for each chunk that failed, in order.
// A repeat is then copied out of its first occurrence: it waits for what
// that one waited for, crosses no link and takes the CPU for the copy.
func (r *fleetRead) land(lands []landing) (err error) {
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
		l := &lands[fetched]
		if l.first != nil {
			continue
		}
		var land func() error
		if land, err = r.fetch(l); err != nil {
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
			if rerr := r.refetch(l, l.err); rerr != nil {
				err = rerr
				break
			}
		}
	}
	// Every repeat the read reached is charged its copy, and copied unless
	// the read failed and has no payload to return.
	for i := 0; i < fetched; i++ {
		if l := &lands[i]; l.first != nil {
			l.lanes = lanes{after: l.first.after, cpu: repeatCopy.Transfer(l.ref.Size)}
			if err == nil {
				copy(l.dst, l.first.dst)
			}
		}
	}
	return err
}

// arrival is one instant at which some of a read's chunks have all their
// packs. next is the lowest-numbered of them the link has not taken yet —
// len(lands) once it has taken them all — seg the segment next lies in and
// end the chunk that segment ends before.
type arrival struct {
	at             vtime.Time
	next, seg, end int
}

// advance moves a on to the next chunk that arrives at a.at, and to the
// segment that chunk lies in; a new cursor starts before chunk 0 and
// segment 0.
func (a *arrival) advance(lands []landing, segs []SegmentRef) {
	for a.next++; a.next < len(lands) && lands[a.next].after != a.at; a.next++ {
	}
	for a.seg < len(segs) && a.next >= a.end {
		if a.seg++; a.seg < len(segs) {
			a.end += segs[a.seg].Chunks
		}
	}
}

// charge runs a read's chunks through the reader's link and CPU from start
// and returns the instant the CPU is done with the last of them, and with
// the last chunk of each of segs — start for a segment without one.
// Whenever the link is free it takes the lowest-numbered chunk whose packs
// have arrived, or, when none has, waits for the next arrival; the CPU
// takes the chunks in the order the link carried them, each once its bytes
// are through and the chunk before it is done. So the link idles only while
// no pack it could read from is there, and among those that are, the
// segments earliest in the image go first. A read's chunks share a handful
// of arrival instants — a node's pack is there at one instant for every
// chunk in it — so the schedule keeps one cursor per instant rather than a
// queue of chunks.
func charge(lands []landing, segs []SegmentRef, start vtime.Time) (end vtime.Time, done []vtime.Time) {
	var buf [16]arrival
	arrivals := buf[:0]
	for i := range lands {
		known := false
		for _, a := range arrivals {
			known = known || a.at == lands[i].after
		}
		if !known {
			a := arrival{at: lands[i].after, next: -1, seg: -1}
			a.advance(lands, segs)
			arrivals = append(arrivals, a)
		}
	}
	if len(segs) > 0 {
		done = make([]vtime.Time, len(segs))
		for s := range done {
			done[s] = start
		}
	}
	link, cpu := start, start
	for range lands {
		// The arrival to take from: the lowest-numbered chunk among those
		// that are there, else the earliest to come.
		var a *arrival
		for k := range arrivals {
			b := &arrivals[k]
			switch {
			case b.next == len(lands):
			case a == nil:
				a = b
			case b.at <= link && (a.at > link || b.next < a.next):
				a = b
			case b.at > link && a.at > link && b.at < a.at:
				a = b
			}
		}
		l := &lands[a.next]
		link = vtime.Max(link, l.after).Add(l.link)
		cpu = vtime.Max(cpu, link).Add(l.cpu)
		if a.seg < len(segs) {
			done[a.seg] = cpu
		}
		a.advance(lands, segs)
	}
	return cpu, done
}
