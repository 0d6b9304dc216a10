package store

// Online repair, at every geometry: ReplaceNode swaps a dead member for a
// fresh one under the same name (consistent hashing keeps every other
// placement untouched), Rebuild re-codes missing shards onto their home
// nodes with anti-thundering-herd pacing, Scrub verifies every node's
// records in parallel and repairs what it finds, and manifestCopies/
// sweepChunks are the fleet-wide halves of GC. Every repair is written the
// way a Put writes: one verified pack per node per round.

import (
	"errors"
	"fmt"
	"sort"
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
	f.idxMu.Lock()
	n.fs, n.recs, n.indexed = fs, map[recKey]recLoc{}, false
	f.idxMu.Unlock()
	f.indexNodes()
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

// Rebuild restores full redundancy: every alive node's records are
// verified against their digests, every chunk referenced by any manifest
// gets its missing or corrupt shards reconstructed from the survivors and
// written back to their (alive) home nodes, and every alive node missing a
// manifest copy gets one. Run it after ReplaceNode or after an outage ends.
//
// Two things keep a rebuild from flattening the survivors: placement
// rotates with the chunk address, so the source reads of a batch spread
// over all the remaining nodes and each needed pack is read once; and the
// repairs go out rebuildBatch chunks at a time — one heal pack per node —
// with a rebuildPause idle after each full batch, leaving the disks and
// links headroom for foreground checkpoint traffic. Fault injection is
// suspended for the duration — repair must converge, not chase its own
// tail.
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
	var sums []string
	for _, m := range mans {
		for _, c := range m.Chunks {
			if !seen[c.Sum] {
				seen[c.Sum] = true
				sums = append(sums, c.Sum)
			}
		}
	}
	st.ChunksScanned = len(sums)

	f.verifyNodes(clock, nil)
	var lost map[string]bool
	st.ShardsRebuilt, st.BytesRebuilt, st.Batches, lost = f.repair(clock, sums, rebuildPause)
	st.ChunksUnrepaired = len(lost)
	st.Time = sw.Elapsed()
	if st.ChunksUnrepaired > 0 {
		return st, fmt.Errorf("store: fleet: rebuild left %d of %d chunks unrepaired (fewer than %d shards survive)",
			st.ChunksUnrepaired, st.ChunksScanned, f.cfg.DataShards)
	}
	return st, nil
}

// repair brings the given chunks back to full redundancy. A chunk needs
// repair when an alive home node has no record of its shard (verifyNodes
// has already dropped the records that fail their digest); it is lost when
// fewer than k alive nodes have one. The chunks in need go rebuildBatch at
// a time through one read session: the source packs of a batch load once,
// nodes in parallel, the missing shards are reconstructed, and the batch is
// written back as one heal pack per node, followed by pause when the batch
// was full. Reports the shards written, their physical bytes, the batches
// and the chunks beyond repair.
func (f *Fleet) repair(clock *vtime.Clock, sums []string, pause vtime.Duration) (rebuilt int, bytes int64, batches int, lost map[string]bool) {
	k := f.cfg.DataShards
	lost = map[string]bool{}
	// missing lists the shard indices an alive home node has no record of.
	missing := func(sum string) (idxs []int, have int) {
		for i, n := range f.placement(sum) {
			if !n.alive() {
				continue
			}
			if _, ok := f.lookup(n, sum, i); ok {
				have++
			} else {
				idxs = append(idxs, i)
			}
		}
		return idxs, have
	}
	var need []string
	for _, sum := range sums {
		switch idxs, have := missing(sum); {
		case have < k:
			lost[sum] = true
		case len(idxs) > 0:
			need = append(need, sum)
		}
	}

	r := f.newRead(clock, nil, true)
	for len(need) > 0 {
		batch := need[:min(len(need), rebuildBatch)]
		need = need[len(batch):]
		r.prepare(batch, true)
		for _, sum := range batch {
			addr, _ := decodeDigest(sum) // a manifest's: it decoded
			var t lanes
			have, origLen, _ := r.gather(sum, &addr, &t)
			idxs, _ := missing(sum)
			shards, err := r.solve(sum, have, origLen, idxs, &t)
			t.pay(clock)
			if err != nil {
				lost[sum] = true
				continue
			}
			r.owe(sum, origLen, shards, idxs)
		}
		n, b := r.settle(clock)
		rebuilt, bytes = rebuilt+n, bytes+b
		if n > 0 {
			batches++
		}
		if len(batch) == rebuildBatch {
			clock.Advance(pause)
		}
	}
	return rebuilt, bytes, batches, lost
}

// verifyNodes has every alive node check the records in its packs against
// their digests, all nodes in parallel — each on a scratch clock, the
// caller is charged the slowest, which is what a fleet of independent nodes
// actually costs. See verifyNode for what is checked and dropped.
func (f *Fleet) verifyNodes(clock *vtime.Clock, referenced map[string]bool) map[string]NodeScrubProgress {
	f.indexNodes()
	per := map[string]NodeScrubProgress{}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var makespan vtime.Duration
	for _, name := range f.names {
		n := f.nodes[name]
		if !f.sweepable(n) {
			mu.Lock()
			per[name] = NodeScrubProgress{Down: true}
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(name string, n *fleetNode) {
			defer wg.Done()
			prog := f.verifyNode(n, referenced)
			mu.Lock()
			per[name] = prog
			makespan = max(makespan, prog.Elapsed)
			mu.Unlock()
		}(name, n)
	}
	wg.Wait()
	clock.Advance(makespan)
	return per
}

// verifyNode walks the node's packs one at a time and verifies every
// indexed record: digest, owner, index. A record that fails — rotten, torn,
// mislabelled, or in a pack that is gone — leaves the index, so the repair
// pass sees a plain erasure. With referenced set (Scrub) so does every
// record of a chunk no manifest references — an orphan an interrupted Put
// left behind — and a pack left with no record at all is deleted.
func (f *Fleet) verifyNode(n *fleetNode, referenced map[string]bool) NodeScrubProgress {
	sc := vtime.NewClock()
	var prog NodeScrubProgress
	byPack := f.recsByPack(n)
	drop := func(e packEntry) {
		prog.ShardsBad++
		f.forget(n, e.recKey, e.recLoc)
	}
	for _, p := range f.packFiles(n) {
		entries := byPack[p]
		delete(byPack, p)
		var data []byte
		var readErr error
		if len(entries) > 0 {
			f.tick()
			data, readErr = readRetry(sc, n.fs, p)
		}
		kept := 0
		for _, e := range entries {
			prog.ShardsChecked++
			if _, _, ok := recordAt(data, e.off, e.n, e.sum, e.idx); ok && (referenced == nil || referenced[e.sum]) {
				kept++
			} else {
				drop(e)
			}
		}
		// A pack that would not read is not judged empty: its records are
		// erasures for now and the file is GC's to collect.
		if referenced != nil && kept == 0 && readErr == nil {
			if len(entries) == 0 {
				prog.ShardsBad++ // a file of no known record: junk
			}
			_ = n.removeRetry(p)
		}
	}
	// What is left points into packs that are gone.
	for _, entries := range byPack {
		for _, e := range entries {
			prog.ShardsChecked++
			drop(e)
		}
	}
	prog.Elapsed = sc.Now().Sub(0)
	return prog
}

// packEntry is one index entry; recsByPack groups a node's entries by the
// pack they point into, in offset order.
type packEntry struct {
	recKey
	recLoc
}

func (f *Fleet) recsByPack(n *fleetNode) map[string][]packEntry {
	f.idxMu.RLock()
	byPack := map[string][]packEntry{}
	for key, loc := range n.recs {
		byPack[loc.pack] = append(byPack[loc.pack], packEntry{key, loc})
	}
	f.idxMu.RUnlock()
	for _, entries := range byPack {
		sort.Slice(entries, func(i, j int) bool { return entries[i].off < entries[j].off })
	}
	return byPack
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
			if _, rerr := n.readManifest(m.Job, m.Seq); rerr == nil {
				continue
			}
			if werr := n.writeVerifiedMeta(clock, n.manifestPath(m.Job, m.Seq), frame); werr == nil {
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

// Scrub is the repair pass. A manifest frame that decodes on no alive node
// is moved to quarantine/ on every node holding it, so that Latest, GC and
// the restore walk see good generations only (a down node's good copy
// re-publishes through loadManifest when the node returns). Every alive
// node verifies the records in its own packs in parallel (verifyNodes),
// dropping from its index the ones that fail their digest — so the repair
// pass sees them as plain erasures — and the ones no manifest references,
// and deleting packs left with nothing: the orphans of an interrupted Put.
// Then every referenced chunk is brought back to full redundancy and every
// manifest re-published to nodes missing it. Chunks beyond repair
// quarantine the manifests that reference them: after a pass, OK() or not,
// everything still listed restores bit-identical, and every quarantine is
// a finding.
func (f *Fleet) Scrub(clock *vtime.Clock) (FleetScrubReport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.inj != nil {
		f.inj.Suspend()
		defer f.inj.Resume()
	}
	var rep FleetScrubReport
	// quarantine moves job@seq out of the way on every alive node holding
	// it, and says why in the report.
	quarantine := func(job string, seq uint64, why string) error {
		id := manifestID(job, seq)
		if err := f.manifestCopies(job, seq, func(n *fleetNode) error {
			if err := n.quarantine(job, seq); err != nil {
				return fmt.Errorf("on %s: %w", n.name, err)
			}
			return nil
		}); err != nil {
			return fmt.Errorf("store: scrub: quarantining %s: %w", id, err)
		}
		rep.Quarantined = append(rep.Quarantined, id)
		rep.Findings = append(rep.Findings, id+": quarantined: "+why)
		return nil
	}

	mans, issues := f.Manifests()
	for _, iss := range issues {
		// Only a frame that is there and does not decode goes: one a node
		// cannot read right now may be perfectly good.
		if !errors.Is(iss.Err, errCorruptManifest) {
			rep.Findings = append(rep.Findings, fmt.Sprintf("%s: no readable copy: %v", iss.ID(), iss.Err))
			continue
		}
		if err := quarantine(iss.Job, iss.Seq, iss.Err.Error()); err != nil {
			return rep, err
		}
	}
	rep.Manifests = len(mans)
	referenced := map[string]bool{}
	for _, m := range mans {
		for _, c := range m.Chunks {
			referenced[c.Sum] = true
		}
	}

	// Pass 1: per-node record verification, all nodes in parallel.
	rep.PerNode = f.verifyNodes(clock, referenced)

	// Pass 2: bring every referenced chunk back to full redundancy.
	sums := make([]string, 0, len(referenced))
	for sum := range referenced {
		sums = append(sums, sum)
	}
	sort.Strings(sums)
	rep.ChunksChecked = len(sums)
	var unrepairable map[string]bool
	rep.ShardsRebuilt, _, _, unrepairable = f.repair(clock, sums, 0)

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
		if err := quarantine(m.Job, m.Seq, "chunk "+lost[:12]+" beyond repair"); err != nil {
			return rep, err
		}
	}
	rep.ManifestsHealed = f.syncManifests(clock, goodMans)
	return rep, nil
}

// manifestCopies runs op on every alive node holding a frame of job@seq,
// in name order, and stops at the first error.
func (f *Fleet) manifestCopies(job string, seq uint64, op func(n *fleetNode) error) error {
	for _, name := range f.names {
		n := f.nodes[name]
		if !n.alive() || !n.fs.Exists(n.manifestPath(job, seq)) {
			continue
		}
		if err := op(n); err != nil {
			return err
		}
	}
	return nil
}

// sweepChunks compacts every alive node's packs down to the records of
// referenced chunks: a pack holding none is deleted — including the orphans
// an interrupted Put left — and a pack holding some is rewritten without
// the rest, the new pack verified and indexed before the old one is
// removed. An interrupted rewrite therefore leaves both packs; the index
// points at one of them, the other holds nothing the index knows, and the
// next sweep deletes it.
func (f *Fleet) sweepChunks(referenced map[string]bool) (kept, dropped int, reclaimed int64, err error) {
	f.indexNodes()
	keptSums := map[string]bool{}
	droppedSums := map[string]bool{}
	defer func() { kept, dropped = len(keptSums), len(droppedSums) }()
	for _, name := range f.names {
		n := f.nodes[name]
		if !f.sweepable(n) {
			continue
		}
		byPack := f.recsByPack(n)
		for _, p := range f.packFiles(n) {
			size, _ := n.fs.Size(p)
			var live []packEntry
			var liveBytes int64
			for _, e := range byPack[p] {
				if !referenced[e.sum] {
					droppedSums[e.sum] = true
					continue
				}
				keptSums[e.sum] = true
				live = append(live, e)
				liveBytes += int64(e.n)
			}
			if liveBytes == size {
				continue
			}
			moved := int64(0)
			if len(live) > 0 {
				if moved, err = f.rewritePack(n, p, live); err != nil {
					return
				}
			}
			if err = n.removeRetry(p); err != nil {
				return
			}
			for _, e := range byPack[p] {
				f.forget(n, e.recKey, e.recLoc) // a no-op for the records the rewrite moved
			}
			reclaimed += size - moved
		}
	}
	return
}

// rewritePack copies the records of pack p named by live into a fresh pack
// on the same node, verified, and points the index at the copies. A record
// that no longer verifies is not copied: it becomes an erasure the next
// repair fills. Like the rest of GC it charges no time. Returns the new
// pack's size.
func (f *Fleet) rewritePack(n *fleetNode, p string, live []packEntry) (int64, error) {
	data, err := readRetry(vtime.NewClock(), n.fs, p)
	if err != nil {
		return 0, err
	}
	var buf packBuf
	for _, e := range live {
		if h, _, ok := recordAt(data, e.off, e.n, e.sum, e.idx); ok {
			buf.copyRecord(h, data[e.off:e.off+e.n])
		}
	}
	if len(buf.recs) == 0 {
		return 0, nil
	}
	_, _, failed := f.writePacks(f.repairPack("gc"), map[string]*packBuf{n.name: &buf})
	return int64(len(buf.data)), failed[n.name]
}
