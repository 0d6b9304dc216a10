package store

// Consistent-hash shard placement for the store fleet. Each store node
// projects a fixed number of virtual points onto a hash ring keyed on the
// node NAME, so placement is a pure function of (chunk address, node-name
// set): the same chunks land on the same nodes no matter what order nodes
// were added in, and replacing a dead node under the same name inherits
// its placement exactly — which is what lets Scrub re-code lost shards
// onto the replacement without moving anything else.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// shardVnodes is the virtual-point count per node: enough to keep the
// per-node load within a few percent of uniform at fleet sizes the tests
// use, small enough that rebuilding the ring on membership change is
// free.
const shardVnodes = 64

// ShardMap places the k+m shards of a chunk onto distinct nodes via a
// consistent-hash ring. Immutable once built; rebuild on membership
// change with newShardMap.
type ShardMap struct {
	names  []string // sorted node names
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node int // index into names
}

// newShardMap builds the ring over the given node names. Names must be
// unique; order is irrelevant.
func newShardMap(names []string) (*ShardMap, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("shard map: no nodes")
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("shard map: duplicate node name %q", sorted[i])
		}
	}
	m := &ShardMap{names: sorted}
	for ni, name := range sorted {
		for v := 0; v < shardVnodes; v++ {
			h := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", name, v)))
			m.points = append(m.points, ringPoint{
				hash: binary.BigEndian.Uint64(h[:8]),
				node: ni,
			})
		}
	}
	sort.Slice(m.points, func(i, j int) bool {
		if m.points[i].hash != m.points[j].hash {
			return m.points[i].hash < m.points[j].hash
		}
		return m.points[i].node < m.points[j].node
	})
	return m, nil
}

// Place returns the names of the count distinct nodes holding shards
// 0..count-1 of the chunk at address sum: walk the ring clockwise from
// the chunk's hash, taking each node the first time it appears. count
// must not exceed the node count — the caller (the fleet) enforces
// k+m <= len(nodes) at construction.
func (m *ShardMap) Place(sum string, count int) []string {
	if count > len(m.names) {
		count = len(m.names)
	}
	h := sha256.Sum256([]byte(sum))
	start := binary.BigEndian.Uint64(h[:8])
	i := sort.Search(len(m.points), func(i int) bool { return m.points[i].hash >= start })
	out := make([]string, 0, count)
	seen := make([]bool, len(m.names))
	for n := 0; n < len(m.points) && len(out) < count; n++ {
		p := m.points[(i+n)%len(m.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		out = append(out, m.names[p.node])
	}
	return out
}
