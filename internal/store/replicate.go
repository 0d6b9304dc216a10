package store

import (
	"fmt"

	"checl/internal/hw"
	"checl/internal/vtime"
)

// ReplicateStats reports what one replication moved. The byte counters
// live in the embedded HealStats (ChunksCopied/BytesCopied), the shared
// ledger fleet-wide reports aggregate.
type ReplicateStats struct {
	HealStats
	ChunksSkipped int // already present at the destination
	Time          vtime.Duration
}

// Replicate copies one checkpoint — its manifest and every chunk the
// destination is missing — into dst, a store of any geometry, typically on
// another node's filesystem. Chunks already present at the destination
// (from earlier replications or the destination's own checkpoints) are
// skipped, so replicating successive checkpoints of a job moves only the
// delta. Every source chunk is verified end to end before it moves (a bad
// record heals from the source's own redundancy rather than propagating),
// and the destination commits the way its Puts do: verified packs first,
// manifest last, so an interrupted replication leaves dst with at most
// orphan packs — and re-running the same Replicate finds their records and
// is idempotent. Source reads and destination writes charge their own
// models to clock; nic, when positive, additionally charges the transfer
// between the two stores for every copied byte.
//
// After replication the checkpoint restores from dst with no reference
// to the source filesystem, which is what lets core.Migrate-style flows
// pull from the nearest copy instead of NFS.
func (f *Fleet) Replicate(clock *vtime.Clock, ref string, dst *Fleet, nic hw.Bandwidth) (Manifest, ReplicateStats, error) {
	if dst == nil {
		return Manifest{}, ReplicateStats{}, fmt.Errorf("store: replicate: nil destination")
	}
	man, err := f.Resolve(ref)
	if err != nil {
		return Manifest{}, ReplicateStats{}, err
	}
	var st ReplicateStats
	sw := vtime.NewStopwatch(clock)
	fail := func(err error) (Manifest, ReplicateStats, error) {
		return man, st, fmt.Errorf("store: replicate %s: %w", man.ID(), err)
	}
	dst.mu.Lock()
	defer dst.mu.Unlock()
	dst.beginWrite(man.Job, man.Seq, nil)

	var missing []ChunkRef
	seen := map[string]bool{} // a manifest can reference one sum many times
	for _, c := range man.Chunks {
		if seen[c.Sum] {
			st.ChunksSkipped++
			continue
		}
		seen[c.Sum] = true
		if _, ok := dst.chunkPresent(c.Sum); ok {
			st.ChunksSkipped++
			continue
		}
		missing = append(missing, c)
	}
	src := f.newRead(clock, missing, true)
	defer src.close()
	var out outChunk // one chunk at a time, its scratch kept for the next
	for _, c := range missing {
		// The stored (compressed) representation moves verbatim; content
		// addresses stay valid and no recompression is needed.
		blob, err := src.blob(c)
		if err != nil {
			return fail(err)
		}
		clock.Advance(nic.Transfer(int64(len(blob))))
		addr, ok := decodeDigest(c.Sum)
		if !ok {
			return fail(fmt.Errorf("chunk address %q is not a SHA-256", c.Sum))
		}
		out.sum, out.addr, out.blob, out.sealed = c.Sum, addr, blob, false
		if _, err := dst.stage(clock, &out); err != nil {
			return fail(err)
		}
		st.ChunksCopied++
		st.BytesCopied += int64(len(blob))
	}
	if _, err := dst.flush(clock); err != nil {
		return fail(err)
	}
	frame, err := encodeManifest(man)
	if err != nil {
		return man, st, err
	}
	clock.Advance(nic.Transfer(int64(len(frame))))
	if _, err := dst.publishManifest(clock, man.Job, man.Seq, frame); err != nil {
		return fail(err)
	}
	st.Time = sw.Elapsed()
	return man, st, nil
}
