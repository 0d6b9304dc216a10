package store

// Online repair for the fleet: ReplaceNode swaps a dead member for a
// fresh one under the same name (consistent hashing keeps every other
// placement untouched), Rebuild re-codes missing shards onto their home
// nodes with anti-thundering-herd pacing, Scrub verifies every node's
// shards in parallel and repairs what it finds, and dropManifest/
// sweepChunks are the fleet-wide halves of the engine's GC.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"checl/internal/proc"
	"checl/internal/vtime"
)

// ReplaceNode swaps the named member's backing filesystem for a fresh
// one — the operational move after a node dies for good. The name stays,
// so the shard map is unchanged: every shard the dead node held is
// simply missing from the new one until Rebuild re-codes it. The new
// filesystem carries no node state; re-register it with the fault
// injector to keep it in the victim pool.
func (f *Fleet) ReplaceNode(name string, fs *proc.FS) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[name]
	if !ok {
		return fmt.Errorf("store: fleet: no node named %q", name)
	}
	n.st = New(fs, f.cfg.Store)
	return nil
}

// RebuildStats reports what one Rebuild pass repaired.
type RebuildStats struct {
	ChunksScanned     int   // distinct chunks referenced by any manifest
	ShardsRebuilt     int   // shards re-coded onto their home nodes
	BytesRebuilt      int64 // physical bytes those shards occupy
	ManifestsRepaired int   // manifest copies re-published to nodes missing them
	ChunksUnrepaired  int   // chunks with fewer than k surviving shards
	Batches           int   // pacing batches the pass split into
	Time              vtime.Duration
}

// Rebuild restores full redundancy: every chunk referenced by any
// manifest gets its missing or corrupt shards reconstructed from the
// survivors and written back to their (alive) home nodes, and every
// alive node missing a manifest copy gets one. Run it after ReplaceNode
// or after an outage ends.
//
// Two anti-thundering-herd measures keep a rebuild from flattening the
// survivors: source reads rotate their starting shard per chunk, so the
// reconstruction load spreads across all k+m-1 remaining nodes instead
// of always draining the ring-order first k; and after every
// RebuildBatch chunks the rebuilder idles for RebuildPause, leaving the
// disks and links headroom for foreground checkpoint traffic. Fault
// injection is suspended for the duration — repair must converge, not
// chase its own tail.
func (f *Fleet) Rebuild(clock *vtime.Clock) (RebuildStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.inj != nil {
		f.inj.Suspend()
		defer f.inj.Resume()
	}
	var st RebuildStats
	sw := vtime.NewStopwatch(clock)

	mans, _ := f.Manifests()
	st.ManifestsRepaired = f.syncManifests(clock, mans)

	seen := map[string]bool{}
	var refs []ChunkRef
	for _, m := range mans {
		for _, c := range m.Chunks {
			if !seen[c.Sum] {
				seen[c.Sum] = true
				refs = append(refs, c)
			}
		}
	}
	st.ChunksScanned = len(refs)

	inBatch := 0
	for i, ref := range refs {
		rebuilt, bytes, err := f.healChunk(clock, ref.Sum, i)
		if err != nil {
			st.ChunksUnrepaired++
			continue
		}
		st.ShardsRebuilt += rebuilt
		st.BytesRebuilt += bytes
		if rebuilt > 0 {
			inBatch++
			if inBatch >= f.cfg.RebuildBatch {
				clock.Advance(f.cfg.RebuildPause)
				st.Batches++
				inBatch = 0
			}
		}
	}
	if inBatch > 0 {
		st.Batches++
	}
	st.Time = sw.Elapsed()
	if st.ChunksUnrepaired > 0 {
		return st, fmt.Errorf("store: fleet: rebuild left %d of %d chunks unrepaired (fewer than %d shards survive)",
			st.ChunksUnrepaired, st.ChunksScanned, f.cfg.DataShards)
	}
	return st, nil
}

// healChunk brings one chunk back to full redundancy: read every shard
// (rotating the read order by rot), reconstruct the missing or corrupt
// ones, and write them to their alive home nodes. Reports how many
// shards were written and their physical bytes. An error means the chunk
// is beyond repair (fewer than k shards survive).
func (f *Fleet) healChunk(clock *vtime.Clock, sum string, rot int) (int, int64, error) {
	k, m := f.cfg.DataShards, f.cfg.ParityShards
	have, origLen, bad := f.shardStates(clock, sum, rot, false)
	if len(bad) == 0 {
		return 0, 0, nil
	}
	if len(have) < k {
		return 0, 0, fmt.Errorf("store: fleet: chunk %s lost: %d of %d shards survive", sum[:12], len(have), k+m)
	}
	lost := 0
	for i := 0; i < k; i++ {
		if _, ok := have[i]; !ok {
			lost++
		}
	}
	if lost > 0 {
		clock.Advance(f.cfg.Coding.ReconstructTime(int64(origLen), k, lost))
	}
	shards, err := f.coder.Reconstruct(have)
	if err != nil {
		return 0, 0, fmt.Errorf("store: fleet: chunk %s: %w", sum[:12], err)
	}
	nodes := f.placement(sum)
	rebuilt, bytes := 0, int64(0)
	var diskMax vtime.Duration
	var linkBytes int64
	for _, i := range bad {
		n := nodes[i]
		if !n.alive() {
			continue
		}
		frame := encodeShard(i, k, m, origLen, shards[i])
		sc := vtime.NewClock()
		if werr := n.st.writeVerified(sc, f.shardPath(n, sum, i), frame); werr != nil {
			continue
		}
		if d := sc.Now().Sub(0); d > diskMax {
			diskMax = d
		}
		linkBytes += int64(len(frame))
		rebuilt++
		bytes += int64(len(frame))
	}
	clock.Advance(f.cfg.Link.Transfer(linkBytes) + diskMax)
	if rebuilt > 0 {
		f.recordShardHeal(rebuilt, bytes)
	}
	return rebuilt, bytes, nil
}

// syncManifests re-publishes every manifest to alive nodes missing a
// decodable copy. Returns how many copies were written.
func (f *Fleet) syncManifests(clock *vtime.Clock, mans []Manifest) int {
	repaired := 0
	for _, m := range mans {
		frame, err := encodeManifest(m)
		if err != nil {
			continue
		}
		for _, name := range f.names {
			n := f.nodes[name]
			if !n.alive() {
				continue
			}
			if _, rerr := n.st.readManifest(m.Job, m.Seq); rerr == nil {
				continue
			}
			if werr := n.st.writeVerifiedMeta(clock, n.st.manifestPath(m.Job, m.Seq), frame); werr == nil {
				repaired++
			}
		}
	}
	if repaired > 0 {
		f.recordManifestHeal(repaired)
	}
	return repaired
}

// NodeScrubProgress is one node's share of a fleet scrub.
type NodeScrubProgress struct {
	ShardsChecked int
	ShardsBad     int // failed the frame digest or did not belong
	Down          bool
	Elapsed       vtime.Duration
}

// FleetScrubReport is the result of one fleet-wide repair pass.
type FleetScrubReport struct {
	Manifests       int // distinct manifests verified
	ChunksChecked   int // distinct referenced chunks verified
	ShardsRebuilt   int
	ManifestsHealed int
	PerNode         map[string]NodeScrubProgress
	Quarantined     []string // manifest IDs quarantined as unrestorable
	Findings        []string
}

// OK reports whether the fleet is fully intact after the pass.
func (r FleetScrubReport) OK() bool { return len(r.Findings) == 0 }

// Scrub is the fleet-wide repair pass. Every alive node verifies its own
// shard files in parallel — each worker runs on a scratch clock and the
// caller is charged the makespan, which is what a fleet of independent
// nodes actually costs — deleting frames that fail their digest so the
// repair pass sees them as plain erasures. Then every referenced chunk
// is brought back to full redundancy and every manifest re-published to
// nodes missing it. Chunks beyond repair quarantine the manifests that
// reference them, same contract as Store.Scrub: after an OK() pass,
// everything still listed restores bit-identical.
func (f *Fleet) Scrub(clock *vtime.Clock) (FleetScrubReport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.inj != nil {
		f.inj.Suspend()
		defer f.inj.Resume()
	}
	rep := FleetScrubReport{PerNode: map[string]NodeScrubProgress{}}

	mans, issues := f.Manifests()
	for _, iss := range issues {
		rep.Findings = append(rep.Findings, fmt.Sprintf("%s: no decodable copy: %v", iss.ID(), iss.Err))
	}
	rep.Manifests = len(mans)
	referenced := map[string]bool{}
	for _, m := range mans {
		for _, c := range m.Chunks {
			referenced[c.Sum] = true
		}
	}

	// Pass 1: per-node shard verification, all nodes in parallel.
	var wg sync.WaitGroup
	var repMu sync.Mutex
	var makespan vtime.Duration
	for _, name := range f.names {
		n := f.nodes[name]
		if !n.alive() {
			rep.PerNode[name] = NodeScrubProgress{Down: true}
			continue
		}
		wg.Add(1)
		go func(name string, n *fleetNode) {
			defer wg.Done()
			sc := vtime.NewClock()
			var prog NodeScrubProgress
			prefix := n.st.cfg.Prefix + "/shards/"
			for _, p := range n.st.fs.List() {
				if !strings.HasPrefix(p, prefix) {
					continue
				}
				sum, idxStr, ok := strings.Cut(strings.TrimPrefix(p, prefix), "/")
				if !ok {
					continue
				}
				idx, perr := strconv.Atoi(idxStr)
				if perr != nil {
					continue
				}
				prog.ShardsChecked++
				frame, rerr := readRetry(sc, n.st.fs, p, f.cfg.Store.WriteRetries)
				if rerr == nil {
					gotIdx, _, _, _, _, derr := decodeShard(frame)
					if derr == nil && gotIdx == idx && referenced[sum] {
						continue
					}
				}
				// Rotten, torn, mislabelled or unreferenced: delete. The
				// repair pass reconstructs referenced ones; unreferenced
				// ones are orphans an interrupted Put left behind.
				prog.ShardsBad++
				_ = n.st.removeRetry(p)
			}
			prog.Elapsed = sc.Now().Sub(0)
			repMu.Lock()
			rep.PerNode[name] = prog
			if prog.Elapsed > makespan {
				makespan = prog.Elapsed
			}
			repMu.Unlock()
		}(name, n)
	}
	wg.Wait()
	clock.Advance(makespan)

	// Pass 2: bring every referenced chunk back to full redundancy.
	unrepairable := map[string]bool{}
	sums := make([]string, 0, len(referenced))
	for sum := range referenced {
		sums = append(sums, sum)
	}
	sort.Strings(sums)
	for i, sum := range sums {
		rep.ChunksChecked++
		rebuilt, _, err := f.healChunk(clock, sum, i)
		if err != nil {
			unrepairable[sum] = true
			continue
		}
		rep.ShardsRebuilt += rebuilt
	}

	// Pass 3: manifests referencing unrepairable chunks are quarantined on
	// every alive node; the rest re-publish to nodes missing them.
	var goodMans []Manifest
	for _, m := range mans {
		lost := ""
		for _, c := range m.Chunks {
			if unrepairable[c.Sum] {
				lost = c.Sum
				break
			}
		}
		if lost == "" {
			goodMans = append(goodMans, m)
			continue
		}
		for _, name := range f.names {
			n := f.nodes[name]
			if !n.alive() || !n.st.fs.Exists(n.st.manifestPath(m.Job, m.Seq)) {
				continue
			}
			to := fmt.Sprintf("%s%s-%08d", n.st.quarantinePrefix(), m.Job, m.Seq)
			if err := n.st.renameRetry(n.st.manifestPath(m.Job, m.Seq), to); err != nil {
				return rep, fmt.Errorf("store: fleet: scrub: quarantining %s on %s: %w", m.ID(), name, err)
			}
		}
		rep.Quarantined = append(rep.Quarantined, m.ID())
		rep.Findings = append(rep.Findings, fmt.Sprintf("%s: quarantined: chunk %s beyond repair", m.ID(), lost[:12]))
	}
	rep.ManifestsHealed = f.syncManifests(clock, goodMans)
	return rep, nil
}

// dropManifest removes one manifest from every alive node holding it.
func (f *Fleet) dropManifest(job string, seq uint64) error {
	for _, name := range f.names {
		n := f.nodes[name]
		if !n.alive() || !n.st.fs.Exists(n.st.manifestPath(job, seq)) {
			continue
		}
		if err := n.st.dropManifest(job, seq); err != nil {
			return err
		}
	}
	return nil
}

// sweepChunks has every alive node remove the shards of chunks that are
// not referenced — including orphans an interrupted Put left at their
// content-addressed paths.
func (f *Fleet) sweepChunks(referenced map[string]bool) (kept, dropped int, reclaimed int64, err error) {
	keptSums := map[string]bool{}
	droppedSums := map[string]bool{}
	for _, name := range f.names {
		n := f.nodes[name]
		if !n.alive() {
			continue
		}
		prefix := n.st.cfg.Prefix + "/shards/"
		for _, p := range n.st.fs.List() {
			if !strings.HasPrefix(p, prefix) {
				continue
			}
			sum, _, ok := strings.Cut(strings.TrimPrefix(p, prefix), "/")
			if !ok {
				continue
			}
			if referenced[sum] {
				keptSums[sum] = true
				continue
			}
			sz, _ := n.st.fs.Size(p)
			if err := n.st.removeRetry(p); err != nil {
				return len(keptSums), len(droppedSums), reclaimed, err
			}
			droppedSums[sum] = true
			reclaimed += sz
		}
	}
	return len(keptSums), len(droppedSums), reclaimed, nil
}
