package mpi

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"checl/internal/core"
	"checl/internal/proc"
)

// Global-snapshot format and the restart path: a global snapshot is the
// ordered list of per-rank local snapshots, so a failed MPI job can be
// resumed on (possibly different) cluster nodes — the Open MPI CPR
// service behaviour (Hursey et al.) the paper builds Fig. 6 on.

// globalSnapshot is the on-NFS representation.
type globalSnapshot struct {
	Locals [][]byte // rank-ordered local snapshot files
}

func encodeGlobalSnapshot(locals [][]byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(globalSnapshot{Locals: locals}); err != nil {
		return nil, fmt.Errorf("mpi: encoding global snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeGlobalSnapshot(data []byte) ([][]byte, error) {
	var gs globalSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&gs); err != nil {
		return nil, fmt.Errorf("mpi: decoding global snapshot: %w", err)
	}
	return gs.Locals, nil
}

// RestoreGlobal restarts an MPI+CheCL job from a global snapshot on the
// cluster's NFS: rank i's local snapshot is placed on node i%len(nodes)
// and restored there with CheCL. It returns one restored CheCL instance
// per rank, in rank order.
func RestoreGlobal(cluster *proc.Cluster, globalPath string, opts core.Options) ([]*core.CheCL, error) {
	if len(cluster.Nodes) == 0 {
		return nil, fmt.Errorf("mpi: cluster has no nodes")
	}
	coord := cluster.Nodes[0]
	data, err := cluster.NFS.ReadFile(coord.Clock, globalPath)
	if err != nil {
		return nil, err
	}
	locals, err := decodeGlobalSnapshot(data)
	if err != nil {
		return nil, err
	}
	return restoreRanks(cluster, globalPath, locals, opts)
}

// restoreRanks restores rank-ordered local snapshots, rank i on node
// i%len(nodes) from <name>.restore.<i> on that node's local disk. It
// returns every rank or none: a rank that fails to restore tears down the
// ranks restored before it.
func restoreRanks(cluster *proc.Cluster, name string, locals [][]byte, opts core.Options) ([]*core.CheCL, error) {
	restored := make([]*core.CheCL, 0, len(locals))
	fail := func(err error) ([]*core.CheCL, error) {
		for _, c := range restored {
			c.Detach()
			c.App().Kill()
		}
		return nil, err
	}
	for rank, local := range locals {
		node := cluster.Nodes[rank%len(cluster.Nodes)]
		localPath := fmt.Sprintf("%s.restore.%d", name, rank)
		if err := node.LocalDisk.WriteFile(node.Clock, localPath, local); err != nil {
			return fail(err)
		}
		c, _, err := core.Restore(node, node.LocalDisk, localPath, opts)
		if err != nil {
			return fail(fmt.Errorf("mpi: restoring rank %d: %w", rank, err))
		}
		restored = append(restored, c)
	}
	return restored, nil
}
