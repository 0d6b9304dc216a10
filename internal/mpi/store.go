package mpi

import (
	"fmt"
	"strings"

	"checl/internal/core"
	"checl/internal/proc"
	"checl/internal/store"
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
	return r.coordinated(checl, job, func(locals [][]byte, stats *GlobalSnapshotStats) (string, error) {
		segs, size := rankSegments(locals)
		man, put, err := st.PutSegmented(r.node.Clock, job, nil, segs)
		if err != nil {
			return "", fmt.Errorf("mpi: global snapshot to store: %w", err)
		}
		stats.GlobalSize = size
		stats.Manifest = man.ID()
		stats.StorePut = &put
		return man.ID(), nil
	})
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
		restored, err = restoreRanks(cluster, man.ID(), locals, opts)
		return err
	}
	_, _, deg, err := st.GetNewestRestorable(coord.Clock, ref, validate)
	if err != nil {
		return nil, deg, err
	}
	return restored, deg, nil
}
