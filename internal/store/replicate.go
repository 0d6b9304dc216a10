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
// destination is missing — into dst, which is typically a store on
// another node's filesystem. Chunks already present at the destination
// (from earlier replications or the destination's own checkpoints) are
// skipped, so replicating successive checkpoints of a job moves only the
// delta. Every source chunk is verified end to end before it moves (a
// corrupt primary copy heals from the source's own replicas rather than
// propagating), and the destination side is crash-consistent: chunks and
// manifest are staged with verified writes and published by rename,
// manifest last, so an interrupted replication leaves dst unchanged apart
// from staged files its Recover reclaims — and re-running the same
// Replicate is idempotent. Source reads and destination writes charge
// their filesystem models to clock; nic, when positive, additionally
// charges the node-to-node transfer for every copied byte.
//
// After replication the checkpoint restores from dst with no reference
// to the source filesystem, which is what lets core.Migrate-style flows
// pull from the nearest replica instead of NFS.
func (s *Store) Replicate(clock *vtime.Clock, ref string, dst *Store, nic hw.Bandwidth) (Manifest, ReplicateStats, error) {
	if dst == nil {
		return Manifest{}, ReplicateStats{}, fmt.Errorf("store: replicate: nil destination")
	}
	man, err := s.Resolve(ref)
	if err != nil {
		return Manifest{}, ReplicateStats{}, err
	}
	st, err := s.copyManifestTo(clock, man, dst, nic, nil)
	return man, st, err
}

// copyManifestTo moves one manifest and its missing chunks into dst
// through dst's staged transaction (diskTxn). chunkData, when non-nil,
// maps chunk sums to their uncompressed content; it is Put's
// write-through escape hatch — if the freshly committed primary copy of a
// chunk already rotted by the time we read it back for replication, the
// chunk is recompressed from memory instead of failing the replication.
func (s *Store) copyManifestTo(clock *vtime.Clock, man Manifest, dst *Store, nic hw.Bandwidth, chunkData map[string][]byte) (ReplicateStats, error) {
	var st ReplicateStats
	sw := vtime.NewStopwatch(clock)
	tx := dst.openTxn("repl", man.Job, man.Seq, dst.nextTxn())
	fail := func(err error) (ReplicateStats, error) {
		return st, fmt.Errorf("store: replicate %s: %w", man.ID(), err)
	}

	stagedSums := map[string]bool{} // a manifest can reference one sum many times
	for _, c := range man.Chunks {
		if stagedSums[c.Sum] || dst.fs.Exists(dst.chunkPath(c.Sum)) {
			st.ChunksSkipped++
			continue
		}
		// The stored (compressed) representation moves verbatim; content
		// addresses stay valid and no recompression is needed.
		blob, err := s.fetchBlob(clock, c, true)
		if err != nil {
			chunk, ok := chunkData[c.Sum]
			if !ok {
				return fail(err)
			}
			if blob, err = compress(clock, nil, chunk); err != nil {
				return st, err
			}
			// Repair the primary copy too, best effort.
			_ = s.writeVerified(clock, s.chunkPath(c.Sum), blob)
		}
		if nic > 0 {
			clock.Advance(nic.Transfer(int64(len(blob))))
		}
		if _, err := tx.stage(clock, c.Sum, blob); err != nil {
			return fail(err)
		}
		stagedSums[c.Sum] = true
		st.ChunksCopied++
		st.BytesCopied += int64(len(blob))
	}

	frame, err := encodeManifest(man)
	if err != nil {
		return st, err
	}
	if nic > 0 {
		clock.Advance(nic.Transfer(int64(len(frame))))
	}
	if _, err := tx.commit(clock, man, frame); err != nil {
		return fail(err)
	}
	st.Time = sw.Elapsed()
	return st, nil
}
