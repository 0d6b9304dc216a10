package mpi

import (
	"fmt"
	"strings"

	"checl/internal/core"
	"checl/internal/proc"
	"checl/internal/store"
	"checl/internal/vtime"
)

// Store-backed global snapshots: the aggregation step lands in a
// content-addressed checkpoint store (typically on the shared NFS)
// instead of a flat NFS file, so successive global snapshots of the same
// job — where most ranks' state is unchanged — write only the delta.
//
// The payload is the concatenation of the per-rank local snapshots, with
// one named store segment per rank ("rank/00042"). Segments are what make
// partial restart O(one rank): RestoreRank fetches a single rank's bytes
// via store.GetSegment without assembling the other ranks' chunks.

// rankSegPrefix namespaces the per-rank segments of a global snapshot.
const rankSegPrefix = "rank/"

func rankSegment(rank int) string { return fmt.Sprintf("%s%05d", rankSegPrefix, rank) }

// rankSegments lays rank-ordered local snapshots out as one store payload,
// one segment per rank over the snapshot's own bytes, and returns the
// payload's size. The payload itself — their concatenation — is never built.
func rankSegments(locals [][]byte) ([]store.Segment, int64) {
	segs := make([]store.Segment, len(locals))
	var off int64
	for i, l := range locals {
		segs[i] = store.Segment{Name: rankSegment(i), Off: off, Len: int64(len(l)), Data: [][]byte{l}}
		off += int64(len(l))
	}
	return segs, off
}

// splitSnapshot recovers the rank-ordered local snapshots from a store
// payload by the manifest's per-rank segments. A generation without any
// (one written by a plain store.Put) is not a global snapshot: it would
// split into no ranks at all.
func splitSnapshot(data []byte, man store.Manifest) ([][]byte, error) {
	if len(man.Segments) == 0 {
		return nil, fmt.Errorf("mpi: %s: no rank segments, not a global snapshot", man.ID())
	}
	locals := make([][]byte, 0, len(man.Segments))
	var off int64
	for _, seg := range man.Segments {
		if !strings.HasPrefix(seg.Name, rankSegPrefix) {
			return nil, fmt.Errorf("mpi: %s: segment %q is not a rank segment", man.ID(), seg.Name)
		}
		if off+seg.Size > int64(len(data)) {
			return nil, fmt.Errorf("mpi: %s: segment %q overruns the payload", man.ID(), seg.Name)
		}
		locals = append(locals, data[off:off+seg.Size])
		off += seg.Size
	}
	if off != int64(len(data)) {
		return nil, fmt.Errorf("mpi: %s: segments cover %d of %d payload bytes", man.ID(), off, len(data))
	}
	return locals, nil
}

// CoordinatedCheckpointToStore is CoordinatedCheckpoint with the global
// snapshot written into st under job. Local per-rank snapshots still go
// to each node's local disk (the Hursey-style two-level flow); only
// rank 0's aggregate goes through the store, segmented per rank. Every
// rank returns its own stats; rank 0's additionally carries the store
// Put breakdown.
//
// The final barrier doubles as the generation commit point: its
// completion atomically records the manifest, snapshots the channel
// sequence counters, and truncates the sender message logs — the cut a
// partial restore resumes from.
func (r *Rank) CoordinatedCheckpointToStore(checl *core.CheCL, st store.Backend, job string) (GlobalSnapshotStats, error) {
	var stats GlobalSnapshotStats
	if err := r.Barrier(); err != nil {
		return stats, err
	}

	// An overlapped store write from an earlier solo checkpoint must not
	// still be in flight while the coordinated protocol runs: barrier on
	// it here, before this rank's local snapshot.
	if err := checl.WaitBackgroundWrite(); err != nil {
		return stats, fmt.Errorf("mpi: rank %d background write: %w", r.rank, err)
	}

	// An epoch the rank opened itself is committed by checl.Checkpoint
	// (see CoordinatedCheckpoint).
	localPath := fmt.Sprintf("%s.local.%d", job, r.rank)
	cst, err := checl.Checkpoint(r.node.LocalDisk, localPath)
	if err != nil {
		return stats, fmt.Errorf("mpi: rank %d local snapshot: %w", r.rank, err)
	}
	if err := r.Barrier(); err != nil { // all local snapshots complete
		return stats, err
	}

	if r.rank != 0 {
		data, err := r.node.LocalDisk.ReadFile(r.node.Clock, localPath)
		if err != nil {
			return stats, err
		}
		if err := r.Send(0, tagCkpt, data); err != nil {
			return stats, err
		}
		if err := r.commitBarrier(""); err != nil { // global snapshot committed
			return stats, err
		}
		stats.LocalTimes = []vtime.Duration{cst.Phases.Total()}
		stats.LocalSizes = []int64{cst.FileSize}
		stats.LocalStalls = []vtime.Duration{cst.StallTime}
		return stats, nil
	}

	// Rank 0: aggregate into the store instead of a flat NFS file.
	sw := vtime.NewStopwatch(r.node.Clock)
	locals := make([][]byte, r.size)
	var err0 error
	locals[0], err0 = r.node.LocalDisk.ReadFile(r.node.Clock, localPath)
	if err0 != nil {
		return stats, err0
	}
	for i := 1; i < r.size; i++ {
		data, err := r.Recv(i, tagCkpt)
		if err != nil {
			return stats, err
		}
		locals[i] = data
	}
	segs, size := rankSegments(locals)
	man, put, err := st.PutSegmented(r.node.Clock, job, nil, segs)
	if err != nil {
		return stats, fmt.Errorf("mpi: global snapshot to store: %w", err)
	}
	stats.AggregateTime = sw.Elapsed()
	stats.GlobalSize = size
	stats.LocalTimes = []vtime.Duration{cst.Phases.Total()}
	stats.LocalSizes = []int64{cst.FileSize}
	stats.LocalStalls = []vtime.Duration{cst.StallTime}
	stats.Total = cst.Phases.Total() + stats.AggregateTime
	stats.Manifest = man.ID()
	stats.StorePut = &put
	if err := r.commitBarrier(man.ID()); err != nil {
		return stats, err
	}
	return stats, nil
}

// RestoreGlobalFromStore restarts an MPI+CheCL job from a global snapshot
// in a checkpoint store. ref is a manifest ID ("job@seq") or a bare job
// name (its latest snapshot). Placement matches RestoreGlobal: rank i's
// local snapshot restores on node i%len(nodes).
//
// The restore is globally consistent or not at all: a candidate
// generation counts as restorable only if it splits into per-rank
// snapshots AND every rank restores from it — a generation that fails
// partway is torn down completely before the next older one is tried.
// The returned *store.DegradedRestore is nil when the newest generation
// restored; otherwise it lists every newer generation that was skipped
// and why, and when no generation works it is also the returned error.
func RestoreGlobalFromStore(cluster *proc.Cluster, st store.Backend, ref string, opts core.Options) ([]*core.CheCL, *store.DegradedRestore, error) {
	if len(cluster.Nodes) == 0 {
		return nil, nil, fmt.Errorf("mpi: cluster has no nodes")
	}
	coord := cluster.Nodes[0]
	var restored []*core.CheCL
	validate := func(data []byte, man store.Manifest) error {
		locals, err := splitSnapshot(data, man)
		if err != nil {
			return err
		}
		cs := make([]*core.CheCL, len(locals))
		teardown := func() {
			for _, c := range cs {
				if c != nil {
					c.Detach()
					c.App().Kill()
				}
			}
		}
		for rank, local := range locals {
			node := cluster.Nodes[rank%len(cluster.Nodes)]
			localPath := fmt.Sprintf("%s.restore.%d", man.ID(), rank)
			if err := node.LocalDisk.WriteFile(node.Clock, localPath, local); err != nil {
				teardown()
				return err
			}
			c, _, err := core.Restore(node, node.LocalDisk, localPath, opts)
			if err != nil {
				teardown()
				return fmt.Errorf("rank %d: %w", rank, err)
			}
			cs[rank] = c
		}
		restored = cs
		return nil
	}
	_, _, deg, err := st.GetNewestRestorable(coord.Clock, ref, validate)
	if err != nil {
		return nil, deg, err
	}
	return restored, deg, nil
}
