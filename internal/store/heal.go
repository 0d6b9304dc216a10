package store

// Self-healing and crash recovery. A store may have replica stores
// attached (AttachReplica): reads then fall back per chunk to the
// replicas on checksum mismatch or loss, re-writing the healed chunk to
// the primary, and Scrub repairs the whole store in one pass. Recover is
// the complementary crash-recovery sweep: it reclaims the staging area an
// interrupted Put/Replicate left behind, quarantines manifest frames that
// no longer decode, and removes unreferenced chunks, restoring the
// invariant that every byte of capacity is referenced by a good manifest.

import (
	"errors"
	"fmt"
	"strings"

	"checl/internal/hw"
	"checl/internal/vtime"
)

// HealStats is the shared per-store byte ledger every repair and copy
// path reports through — healing reads, Scrub passes, write-through
// repair, Replicate, and the fleet's shard reconstruction — so
// fleet-wide reports aggregate one shape instead of per-feature fields.
type HealStats struct {
	ChunksHealed      int   // chunks re-fetched from a replica
	BytesHealed       int64 // stored bytes of those chunks
	ManifestsHealed   int   // manifest frames restored from a replica or peer node
	WritebackFailures int   // healed reads whose primary re-write failed

	ChunksCopied int   // chunks moved to another store (Replicate)
	BytesCopied  int64 // stored bytes of those chunks

	ShardsHealed     int   // erasure shards reconstructed onto their home nodes
	ShardBytesHealed int64 // physical bytes of those shards
}

// Sub returns the difference h - prev (for per-pass deltas).
func (h HealStats) Sub(prev HealStats) HealStats {
	return HealStats{
		ChunksHealed:      h.ChunksHealed - prev.ChunksHealed,
		BytesHealed:       h.BytesHealed - prev.BytesHealed,
		ManifestsHealed:   h.ManifestsHealed - prev.ManifestsHealed,
		WritebackFailures: h.WritebackFailures - prev.WritebackFailures,
		ChunksCopied:      h.ChunksCopied - prev.ChunksCopied,
		BytesCopied:       h.BytesCopied - prev.BytesCopied,
		ShardsHealed:      h.ShardsHealed - prev.ShardsHealed,
		ShardBytesHealed:  h.ShardBytesHealed - prev.ShardBytesHealed,
	}
}

// Add returns the sum h + o (for fleet-wide aggregation across nodes).
func (h HealStats) Add(o HealStats) HealStats {
	return HealStats{
		ChunksHealed:      h.ChunksHealed + o.ChunksHealed,
		BytesHealed:       h.BytesHealed + o.BytesHealed,
		ManifestsHealed:   h.ManifestsHealed + o.ManifestsHealed,
		WritebackFailures: h.WritebackFailures + o.WritebackFailures,
		ChunksCopied:      h.ChunksCopied + o.ChunksCopied,
		BytesCopied:       h.BytesCopied + o.BytesCopied,
		ShardsHealed:      h.ShardsHealed + o.ShardsHealed,
		ShardBytesHealed:  h.ShardBytesHealed + o.ShardBytesHealed,
	}
}

// AttachReplica registers a replica store. Put writes committed
// checkpoints through to every attached replica, and reads/Scrub heal
// from them. nic, when positive, models the link to the replica and is
// charged per healed or written-through byte.
func (s *Store) AttachReplica(r *Store, nic hw.Bandwidth) {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	s.replicas = append(s.replicas, replicaRef{st: r, nic: nic})
}

// Replicas reports how many replica stores are attached.
func (s *Store) Replicas() int {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	return len(s.replicas)
}

// Heals reports the cumulative self-repair counters.
func (s *Store) Heals() HealStats {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	return s.heals
}

func (s *Store) replicaList() []replicaRef {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	out := make([]replicaRef, len(s.replicas))
	copy(out, s.replicas)
	return out
}

func (s *Store) recordChunkHeal(stored int64, writebackFailed bool) {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	s.heals.ChunksHealed++
	s.heals.BytesHealed += stored
	if writebackFailed {
		s.heals.WritebackFailures++
	}
}

func (s *Store) recordManifestHeal() {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	s.heals.ManifestsHealed++
}

// fetchBlob loads one chunk's blob, verified end to end, for a caller that
// wants the stored form — a copy to another store, a scrub — rather than a
// payload. When the primary copy is missing or corrupt and heal is set, the
// attached replicas are tried (healBlob).
func (s *Store) fetchBlob(clock *vtime.Clock, ref ChunkRef, heal bool) ([]byte, error) {
	l, err := s.newLanding(ref)
	if err != nil {
		return nil, err
	}
	blob, err := s.readBlob(clock, ref)
	if err == nil {
		err = verifyParts(clock, [][]byte{blob}, l)
	}
	if err != nil && heal {
		blob, err = s.healBlob(clock, l, err)
	}
	return blob, err
}

// healBlob reads a chunk whose primary copy failed with cause from the
// attached replicas, in order. The first copy that verifies — which lands
// the chunk in l.dst — is charged across the replica link, re-written to
// the primary (best effort — a failed write-back degrades the next read,
// not this one) and counted in HealStats.
func (s *Store) healBlob(clock *vtime.Clock, l *landing, cause error) ([]byte, error) {
	for _, r := range s.replicaList() {
		blob, err := r.st.readBlob(clock, l.ref)
		if err != nil || verifyParts(clock, [][]byte{blob}, l) != nil {
			continue
		}
		if r.nic > 0 {
			clock.Advance(r.nic.Transfer(int64(len(blob))))
		}
		wbErr := s.writeVerified(clock, s.chunkPath(l.ref.Sum), blob)
		s.recordChunkHeal(int64(len(blob)), wbErr != nil)
		return blob, nil
	}
	return nil, fmt.Errorf("%w (no replica could supply a good copy)", cause)
}

// diskRead is a Store's read session: every chunk is its own file, so there
// is nothing to share between fetches.
type diskRead struct {
	s     *Store
	clock *vtime.Clock
	heal  bool
}

func (s *Store) openRead(clock *vtime.Clock, _ []ChunkRef, heal bool) chunkReader {
	return diskRead{s, clock, heal}
}

// fetch reads the chunk's file. A file that will not read has nothing to
// verify: the replicas are asked right away.
func (r diskRead) fetch(l *landing) (func() error, error) {
	blob, err := r.s.readBlob(r.clock, l.ref)
	if err != nil {
		return nil, r.refetch(l, err)
	}
	return func() error { return verifyParts(r.clock, [][]byte{blob}, l) }, nil
}

func (r diskRead) refetch(l *landing, cause error) error {
	if !r.heal {
		return cause
	}
	_, err := r.s.healBlob(r.clock, l, cause)
	return err
}

func (diskRead) close() {}

// loadManifest is readManifest with the same replica fallback the
// chunk path has: a frame that is present but corrupt (torn write, bit
// rot) is re-read from the first replica holding a good copy, re-written
// to the primary best effort, and returned — so a rotted manifest frame
// costs a restore nothing when a replica is attached, instead of pushing
// the whole generation onto the skip list until the next Scrub.
func (s *Store) loadManifest(job string, seq uint64) (Manifest, error) {
	m, err := s.readManifest(job, seq)
	if err == nil || !errors.Is(err, errCorruptManifest) {
		return m, err
	}
	for _, r := range s.replicaList() {
		rm, rerr := r.st.readManifest(job, seq)
		if rerr != nil {
			continue
		}
		frame, ferr := encodeManifest(rm)
		if ferr != nil {
			continue
		}
		if werr := s.writeVerifiedMeta(vtime.NewClock(), s.manifestPath(job, seq), frame); werr == nil {
			s.recordManifestHeal()
		}
		return rm, nil
	}
	return m, err
}

// RecoverStats reports what one crash-recovery sweep reclaimed.
type RecoverStats struct {
	StagedFiles          int   // staged leftovers of interrupted operations
	StagedBytes          int64 // capacity those occupied
	OrphanChunks         int   // published chunks no manifest references
	OrphanBytes          int64
	ManifestsQuarantined int // undecodable frames moved to quarantine/
}

// Recover is the crash-recovery sweep a store should run at open (and may
// run any time — it is idempotent and cheap). It deletes everything under
// staging/ (an interrupted Put or Replicate never published those files),
// moves manifest frames that no longer decode into quarantine/ so Latest,
// GC and the restore walk only ever see good generations, and removes
// chunks no remaining manifest references — the capacity a failed Put
// would otherwise leak forever. After Recover the store is fsck-clean by
// construction, possibly minus quarantined generations.
func (s *Store) Recover() (RecoverStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st RecoverStats

	for _, p := range s.fs.List() {
		if !strings.HasPrefix(p, s.stagingPrefix()) {
			continue
		}
		sz, _ := s.fs.Size(p)
		if err := s.removeRetry(p); err != nil {
			return st, fmt.Errorf("store: recover: %w", err)
		}
		st.StagedFiles++
		st.StagedBytes += sz
	}

	_, issues := s.Manifests()
	for _, iss := range issues {
		from := s.manifestPath(iss.Job, iss.Seq)
		to := fmt.Sprintf("%s%s-%08d", s.quarantinePrefix(), iss.Job, iss.Seq)
		if err := s.renameRetry(from, to); err != nil {
			return st, fmt.Errorf("store: recover: quarantining %s: %w", iss.ID(), err)
		}
		st.ManifestsQuarantined++
	}

	mans, _ := s.Manifests()
	referenced := map[string]bool{}
	for _, m := range mans {
		for _, c := range m.Chunks {
			referenced[c.Sum] = true
		}
	}
	var err error
	if _, st.OrphanChunks, st.OrphanBytes, err = s.sweepChunks(referenced); err != nil {
		return st, fmt.Errorf("store: recover: %w", err)
	}
	return st, nil
}

// ScrubReport is the result of one repair pass.
type ScrubReport struct {
	Manifests     int       // decodable manifests verified
	ChunksChecked int       // distinct chunks verified
	Healed        HealStats // what this pass repaired from replicas
	Quarantined   []string  // manifest IDs quarantined as unhealable
	Findings      []string  // remaining problems (every quarantine is one)
}

// OK reports whether the store is fully intact after the pass.
func (r ScrubReport) OK() bool { return len(r.Findings) == 0 }

// Scrub supersedes the detect-only Fsck with a repair pass: it heals
// undecodable manifest frames from the replicas, pulls back manifests the
// primary lost entirely (only within a job's surviving sequence range, so
// generations GC retired stay retired), verifies every chunk of every
// manifest healing corrupt or missing ones, and quarantines what it
// cannot heal so the store it leaves behind is trustworthy: after a Scrub
// with OK()==true, every manifest restores bit-identical.
func (s *Store) Scrub(clock *vtime.Clock) (ScrubReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep ScrubReport
	before := s.Heals()

	// Pass 1: manifest frames that are present but do not decode — heal
	// from the first replica that still has a good copy, else quarantine.
	_, issues := s.Manifests()
	for _, iss := range issues {
		healed := false
		for _, r := range s.replicaList() {
			m, err := r.st.readManifest(iss.Job, iss.Seq)
			if err != nil {
				continue
			}
			frame, err := encodeManifest(m)
			if err != nil {
				continue
			}
			if r.nic > 0 {
				clock.Advance(r.nic.Transfer(int64(len(frame))))
			}
			if err := s.writeVerifiedMeta(clock, s.manifestPath(iss.Job, iss.Seq), frame); err != nil {
				continue
			}
			s.recordManifestHeal()
			healed = true
			break
		}
		if !healed {
			to := fmt.Sprintf("%s%s-%08d", s.quarantinePrefix(), iss.Job, iss.Seq)
			if err := s.renameRetry(s.manifestPath(iss.Job, iss.Seq), to); err != nil {
				return rep, fmt.Errorf("store: scrub: quarantining %s: %w", iss.ID(), err)
			}
			rep.Quarantined = append(rep.Quarantined, iss.ID())
			rep.Findings = append(rep.Findings, fmt.Sprintf("%s: quarantined: %v", iss.ID(), iss.Err))
		}
	}

	// Pass 2: manifests the primary lost entirely but a replica kept.
	s.pullLostManifests(clock, &rep)

	// Pass 3: verify every chunk of every manifest, healing as we read.
	mans, _ := s.Manifests()
	chunkState := map[string]error{} // sum -> verification outcome
	for _, m := range mans {
		rep.Manifests++
		var bad []string
		for _, c := range m.Chunks {
			verr, seen := chunkState[c.Sum]
			if !seen {
				_, verr = s.fetchBlob(clock, c, true)
				chunkState[c.Sum] = verr
				rep.ChunksChecked++
			}
			if verr != nil {
				bad = append(bad, verr.Error())
			}
		}
		if len(bad) > 0 {
			to := fmt.Sprintf("%s%s-%08d", s.quarantinePrefix(), m.Job, m.Seq)
			if err := s.renameRetry(s.manifestPath(m.Job, m.Seq), to); err != nil {
				return rep, fmt.Errorf("store: scrub: quarantining %s: %w", m.ID(), err)
			}
			rep.Quarantined = append(rep.Quarantined, m.ID())
			rep.Findings = append(rep.Findings, fmt.Sprintf("%s: quarantined: %s", m.ID(), strings.Join(bad, "; ")))
		}
	}

	rep.Healed = s.Heals().Sub(before)
	return rep, nil
}

// pullLostManifests restores manifests a replica holds that the primary
// has no file for. Only sequence numbers inside or above the primary's
// surviving range for a job it already knows are pulled: a generation
// both GC'd away (below the range) or a whole job the primary never had
// stays gone, so Scrub can never undo retention policy.
func (s *Store) pullLostManifests(clock *vtime.Clock, rep *ScrubReport) {
	replicas := s.replicaList()
	if len(replicas) == 0 {
		return
	}
	primaryHas := map[string]map[uint64]bool{}
	minSeq := map[string]uint64{}
	for _, mf := range s.manifestFiles() {
		if primaryHas[mf.Job] == nil {
			primaryHas[mf.Job] = map[uint64]bool{}
		}
		primaryHas[mf.Job][mf.Seq] = true
		if lo, ok := minSeq[mf.Job]; !ok || mf.Seq < lo {
			minSeq[mf.Job] = mf.Seq
		}
	}
	for _, r := range replicas {
		rmans, _ := r.st.Manifests()
		for _, m := range rmans {
			seqs, known := primaryHas[m.Job]
			if !known || seqs[m.Seq] || m.Seq < minSeq[m.Job] {
				continue
			}
			ok := true
			for _, c := range m.Chunks {
				if s.fs.Exists(s.chunkPath(c.Sum)) {
					continue
				}
				blob, err := r.st.fetchBlob(clock, c, false)
				if err != nil {
					rep.Findings = append(rep.Findings, fmt.Sprintf("%s: not pulled from replica: %v", m.ID(), err))
					ok = false
					break
				}
				if r.nic > 0 {
					clock.Advance(r.nic.Transfer(int64(len(blob))))
				}
				if err := s.writeVerified(clock, s.chunkPath(c.Sum), blob); err != nil {
					rep.Findings = append(rep.Findings, fmt.Sprintf("%s: not pulled from replica: %v", m.ID(), err))
					ok = false
					break
				}
				s.recordChunkHeal(int64(len(blob)), false)
			}
			if !ok {
				continue
			}
			frame, err := encodeManifest(m)
			if err != nil {
				continue
			}
			if r.nic > 0 {
				clock.Advance(r.nic.Transfer(int64(len(frame))))
			}
			if err := s.writeVerifiedMeta(clock, s.manifestPath(m.Job, m.Seq), frame); err != nil {
				rep.Findings = append(rep.Findings, fmt.Sprintf("%s: not pulled from replica: %v", m.ID(), err))
				continue
			}
			s.recordManifestHeal()
			seqs[m.Seq] = true
		}
	}
}
