package store

// Fleet is the erasure-coded, sharded successor to AttachReplica's
// full-copy replication: N store nodes, each chunk split into k data +
// m parity shards placed on k+m distinct nodes by a consistent-hash map
// over the chunk's content address. Any checkpoint restores bit-identical
// with any m nodes down — a degraded Get gathers any k surviving shards
// and reconstructs — at (k+m)/k storage overhead instead of replication's
// 2x. Manifests are small, so they are mirrored to every node rather than
// sharded; one surviving copy resolves any ref.
//
// Fleet is the engine's shard placement; chunking, dedup, manifests, the
// restore walk and GC's retention are the engine's (engine.go), the same
// code a Store runs.
//
// Commit protocol: shards are content-addressed and written verified at
// their final paths (writing the same chunk twice is idempotent, so no
// staging dance is needed), then the manifest is published on every alive
// node — the per-node commit point, same manifest-last rule as Store.
// The commit tolerates up to m down nodes: a chunk commits with >= k
// shards written and the manifest with at most m copies missing; anything
// less fails the Put. A crash mid-Put leaves orphan shards that GC
// reclaims.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"checl/internal/hw"
	"checl/internal/proc"
	"checl/internal/vtime"
)

// FleetNode names one store node and its backing filesystem.
type FleetNode struct {
	Name string
	FS   *proc.FS
}

// FleetConfig parameterises a Fleet. The zero value selects 4+2 coding
// over a GigE link with default per-node store settings.
type FleetConfig struct {
	// DataShards (k) and ParityShards (m): each chunk becomes k+m shards
	// on distinct nodes and survives any m losses. Defaults 4 and 2.
	DataShards, ParityShards int
	// Link models the node-to-node network; shard transfers charge it.
	// Default hw.GigE.
	Link hw.Bandwidth
	// Coding charges the CPU time of parity generation and reconstruction.
	// The zero value selects hw.DefaultCoding.
	Coding hw.CodingModel
	// Store configures the per-node stores (chunking bounds, compression,
	// write retries). The zero value selects Store's defaults.
	Store Config
	// RebuildBatch/RebuildPause pace Rebuild: after each batch of
	// RebuildBatch chunks the rebuilder idles for RebuildPause, so a
	// node replacement does not flatten the surviving nodes with a
	// thundering herd of reconstruction reads. Defaults 32 chunks, 2 ms.
	RebuildBatch int
	RebuildPause vtime.Duration
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.DataShards == 0 {
		c.DataShards = 4
	}
	if c.ParityShards == 0 {
		c.ParityShards = 2
	}
	if c.Link == 0 {
		c.Link = hw.GigE
	}
	if c.Coding == (hw.CodingModel{}) {
		c.Coding = hw.DefaultCoding()
	}
	if c.RebuildBatch == 0 {
		c.RebuildBatch = 32
	}
	if c.RebuildPause == 0 {
		c.RebuildPause = 2 * vtime.Millisecond
	}
	c.Store = c.Store.withDefaults()
	return c
}

// fleetNode is one member: a Store over the node's filesystem (reusing
// its verified writes, manifest framing and path layout).
type fleetNode struct {
	name string
	st   *Store
}

// Fleet is an erasure-coded checkpoint store over N nodes. It implements
// Backend, so core, cpr and mpi checkpoint into it exactly as into a
// single Store.
type Fleet struct {
	engine
	cfg   FleetConfig
	coder *Coder
	smap  *ShardMap

	mu    sync.Mutex // serialises Put/GC/Rebuild/Scrub sequencing
	nodes map[string]*fleetNode
	names []string // sorted

	inj *proc.NodeFaultInjector

	healMu sync.Mutex
	heals  HealStats
}

// NewFleet builds a fleet over the given nodes. Node names must be
// unique and there must be at least k+m of them; input order is
// irrelevant — placement depends only on the name set.
func NewFleet(nodes []FleetNode, cfg FleetConfig) (*Fleet, error) {
	cfg = cfg.withDefaults()
	coder, err := NewCoder(cfg.DataShards, cfg.ParityShards)
	if err != nil {
		return nil, err
	}
	if len(nodes) < cfg.DataShards+cfg.ParityShards {
		return nil, fmt.Errorf("store: fleet: %d nodes cannot hold %d+%d shards on distinct nodes",
			len(nodes), cfg.DataShards, cfg.ParityShards)
	}
	f := &Fleet{cfg: cfg, coder: coder, nodes: map[string]*fleetNode{}}
	f.engine = engine{cfg: cfg.Store, p: f}
	for _, n := range nodes {
		if n.Name == "" || strings.ContainsAny(n.Name, "/@") {
			return nil, fmt.Errorf("store: fleet: invalid node name %q", n.Name)
		}
		if _, dup := f.nodes[n.Name]; dup {
			return nil, fmt.Errorf("store: fleet: duplicate node name %q", n.Name)
		}
		f.nodes[n.Name] = &fleetNode{name: n.Name, st: New(n.FS, cfg.Store)}
		f.names = append(f.names, n.Name)
	}
	sort.Strings(f.names)
	if f.smap, err = newShardMap(f.names); err != nil {
		return nil, err
	}
	return f, nil
}

// Name identifies the backend in checkpoint records and tooling.
func (f *Fleet) Name() string {
	return fmt.Sprintf("fleet(%d nodes, %d+%d)", len(f.names), f.cfg.DataShards, f.cfg.ParityShards)
}

// Config exposes the resolved configuration.
func (f *Fleet) Config() FleetConfig { return f.cfg }

// Nodes lists the node names, sorted.
func (f *Fleet) Nodes() []string { return append([]string(nil), f.names...) }

// NodeStore exposes one member's Store (tooling, tests).
func (f *Fleet) NodeStore(name string) (*Store, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[name]
	if !ok {
		return nil, false
	}
	return n.st, true
}

// AttachFaults registers every node with the injector (in sorted name
// order, so fault schedules are deterministic) and ticks it on every
// subsequent shard-level operation.
func (f *Fleet) AttachFaults(inj *proc.NodeFaultInjector) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, name := range f.names {
		inj.Register(name, f.nodes[name].st.fs)
	}
	f.inj = inj
}

// SetFaultInjector installs (or with nil removes) an injector to tick
// without registering nodes — for tests that register a hand-picked
// victim subset themselves. AttachFaults is the usual entry point.
func (f *Fleet) SetFaultInjector(inj *proc.NodeFaultInjector) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inj = inj
}

// Heals reports the fleet's cumulative self-repair counters (degraded
// reads that wrote shards back, scrub and rebuild repairs).
func (f *Fleet) Heals() HealStats {
	f.healMu.Lock()
	defer f.healMu.Unlock()
	return f.heals
}

func (f *Fleet) recordShardHeal(n int, bytes int64) {
	f.healMu.Lock()
	defer f.healMu.Unlock()
	f.heals.ShardsHealed += n
	f.heals.ShardBytesHealed += bytes
}

func (f *Fleet) recordManifestHeal(n int) {
	f.healMu.Lock()
	defer f.healMu.Unlock()
	f.heals.ManifestsHealed += n
}

// tick advances the node fault plan by one fleet-level shard operation.
func (f *Fleet) tick() {
	if f.inj != nil {
		f.inj.Tick()
	}
}

// alive reports whether the node is serving (no node state = healthy).
func (n *fleetNode) alive() bool { return !n.st.fs.Node().Down() }

// shardPath is where node n keeps shard idx of the chunk at sum.
func (f *Fleet) shardPath(n *fleetNode, sum string, idx int) string {
	return fmt.Sprintf("%s/shards/%s/%d", n.st.cfg.Prefix, sum, idx)
}

// placement returns the k+m nodes holding the chunk's shards, in shard
// index order.
func (f *Fleet) placement(sum string) []*fleetNode {
	names := f.smap.Place(sum, f.cfg.DataShards+f.cfg.ParityShards)
	out := make([]*fleetNode, len(names))
	for i, name := range names {
		out[i] = f.nodes[name]
	}
	return out
}

// chunkPresent probes whether the chunk is already durably stored: at
// least k of its shards exist. Like Store's fs.Size dedup probe this is a
// metadata operation and charges no time. When present it also reports
// the original blob length read from one shard frame.
func (f *Fleet) chunkPresent(sum string) (int64, bool) {
	nodes := f.placement(sum)
	present := 0
	first := -1
	for i, n := range nodes {
		if n.st.fs.Exists(f.shardPath(n, sum, i)) {
			present++
			if first < 0 {
				first = i
			}
		}
	}
	if present < f.cfg.DataShards {
		return 0, false
	}
	blob, err := readRetry(vtime.NewClock(), nodes[first].st.fs, f.shardPath(nodes[first], sum, first), f.cfg.Store.WriteRetries)
	if err != nil {
		return 0, false
	}
	if _, _, _, origLen, _, derr := decodeShard(blob); derr == nil {
		return int64(origLen), true
	}
	return 0, false
}

// writeChunkShards encodes blob into k+m shards and writes them to their
// placement nodes. Disk writes to distinct nodes overlap (the caller is
// charged the slowest one); the shard frames all leave through the
// writer's single link, so link time is charged for the total bytes.
// Down nodes are skipped; fewer than k successful writes is an error.
// Returns the physical bytes written.
func (f *Fleet) writeChunkShards(clock *vtime.Clock, sum string, blob []byte) (int64, error) {
	clock.Advance(f.cfg.Coding.EncodeTime(int64(len(blob)), f.cfg.DataShards, f.cfg.ParityShards))
	shards := f.coder.Encode(blob)
	nodes := f.placement(sum)
	var written, linkBytes int64
	var diskMax vtime.Duration
	ok := 0
	var firstErr error
	for i, shard := range shards {
		f.tick()
		n := nodes[i]
		frame := encodeShard(i, f.cfg.DataShards, f.cfg.ParityShards, len(blob), shard)
		if !n.alive() {
			if firstErr == nil {
				firstErr = &proc.ErrNodeDown{Node: n.name, Op: "write", Path: f.shardPath(n, sum, i)}
			}
			continue
		}
		sc := vtime.NewClock()
		if err := n.st.writeVerified(sc, f.shardPath(n, sum, i), frame); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if d := sc.Now().Sub(0); d > diskMax {
			diskMax = d
		}
		linkBytes += int64(len(frame))
		written += int64(len(frame))
		ok++
	}
	clock.Advance(f.cfg.Link.Transfer(linkBytes) + diskMax)
	if ok < f.cfg.DataShards {
		return written, fmt.Errorf("store: fleet: chunk %s: only %d of %d shards written (need %d): %v",
			sum[:12], ok, len(shards), f.cfg.DataShards, firstErr)
	}
	return written, nil
}

// shardStates reads every shard of a chunk: verified payloads keyed by
// index, the original blob length, and the indices that are missing,
// corrupt or on a down node. rot rotates the read order so bulk
// operations (Rebuild) spread their source reads across the survivors
// instead of hammering the ring-order nodes. Disk reads overlap across
// nodes (max charged); link time covers the bytes actually pulled.
func (f *Fleet) shardStates(clock *vtime.Clock, sum string, rot int, stopAtK bool) (have map[int][]byte, origLen int, bad []int) {
	total := f.cfg.DataShards + f.cfg.ParityShards
	nodes := f.placement(sum)
	have = map[int][]byte{}
	origLen = -1
	var linkBytes int64
	var diskMax vtime.Duration
	for off := 0; off < total; off++ {
		if stopAtK && len(have) >= f.cfg.DataShards {
			break
		}
		i := (off + rot) % total
		f.tick()
		n := nodes[i]
		if !n.alive() {
			bad = append(bad, i)
			continue
		}
		sc := vtime.NewClock()
		frame, err := readRetry(sc, n.st.fs, f.shardPath(n, sum, i), f.cfg.Store.WriteRetries)
		if d := sc.Now().Sub(0); d > diskMax {
			diskMax = d
		}
		if err != nil {
			bad = append(bad, i)
			continue
		}
		linkBytes += int64(len(frame))
		idx, _, _, orig, payload, derr := decodeShard(frame)
		if derr != nil || idx != i {
			bad = append(bad, i)
			continue
		}
		have[i] = payload
		origLen = orig
	}
	clock.Advance(f.cfg.Link.Transfer(linkBytes) + diskMax)
	sort.Ints(bad)
	return have, origLen, bad
}

// fetchBlob reads and verifies one chunk. The healthy path reads the k
// data shards and concatenates — no GF(256) work at all. When any data
// shard is an erasure (down node, missing file, failed digest) the
// parity shards join the gather and the chunk reconstructs from any k
// survivors, charging the coding model; the reconstructed shards are
// written back to their alive home nodes best-effort, so a degraded read
// heals the fleet as a side effect. The degraded read is the only read
// path there is, so the engine's heal flag has nothing to switch off.
func (f *Fleet) fetchBlob(clock *vtime.Clock, ref ChunkRef, _ bool) (blob, chunk []byte, err error) {
	k := f.cfg.DataShards
	have, origLen, bad := f.shardStates(clock, ref.Sum, 0, true)
	if len(have) < k {
		return nil, nil, fmt.Errorf("store: fleet: chunk %s lost: %d of %d shards survive, need %d",
			ref.Sum[:12], len(have), k+f.cfg.ParityShards, k)
	}
	lost := 0
	for i := 0; i < k; i++ {
		if _, ok := have[i]; !ok {
			lost++
		}
	}
	if lost == 0 {
		blob = make([]byte, 0, origLen)
		for i := 0; i < k && len(blob) < origLen; i++ {
			blob = append(blob, have[i]...)
		}
		blob = blob[:origLen]
	} else {
		clock.Advance(f.cfg.Coding.ReconstructTime(int64(origLen), k, lost))
		shards, err := f.coder.Reconstruct(have)
		if err != nil {
			return nil, nil, fmt.Errorf("store: fleet: chunk %s: %w", ref.Sum[:12], err)
		}
		blob = f.coder.Join(shards, origLen)
		f.healShards(ref.Sum, origLen, shards, bad)
	}
	if chunk, err = verifyBlob(clock, f.cfg.Store.Compression, blob, ref.Sum); err != nil {
		return nil, nil, err
	}
	return blob, chunk, nil
}

// healShards writes the given shard indices back to their alive home
// nodes, best effort on a scratch clock (repair is background work a
// degraded read should not also pay for). Counted in HealStats.
func (f *Fleet) healShards(sum string, origLen int, shards [][]byte, idxs []int) {
	nodes := f.placement(sum)
	healed, bytes := 0, int64(0)
	for _, i := range idxs {
		n := nodes[i]
		if !n.alive() {
			continue
		}
		frame := encodeShard(i, f.cfg.DataShards, f.cfg.ParityShards, origLen, shards[i])
		if err := n.st.writeVerified(vtime.NewClock(), f.shardPath(n, sum, i), frame); err == nil {
			healed++
			bytes += int64(len(frame))
		}
	}
	if healed > 0 {
		f.recordShardHeal(healed, bytes)
	}
}

func (f *Fleet) lockSeq()           { f.mu.Lock() }
func (f *Fleet) unlockSeq()         { f.mu.Unlock() }
func (f *Fleet) repairHint() string { return "Scrub" }

// fleetPut is a Fleet's write transaction. It keeps no state: shards go
// straight to their final paths and the manifest mirrors to every alive
// node, so there is nothing to roll back and nothing to settle.
type fleetPut struct{ f *Fleet }

func (f *Fleet) beginPut(string, uint64) putTxn { return fleetPut{f} }

func (t fleetPut) probe(sum string, _ []byte) (int64, bool) { return t.f.chunkPresent(sum) }

func (t fleetPut) stage(clock *vtime.Clock, sum string, blob []byte) (int64, error) {
	return t.f.writeChunkShards(clock, sum, blob)
}

func (t fleetPut) commit(clock *vtime.Clock, man Manifest, frame []byte) (int64, error) {
	published, err := t.f.publishManifest(clock, man.Job, man.Seq, frame)
	if err != nil {
		return 0, err
	}
	return int64(published) * int64(len(frame)), nil
}

func (fleetPut) settle(*vtime.Clock, Manifest) error { return nil }

// publishManifest writes the manifest frame to every alive node and
// reports how many copies landed. At most m copies may be missing — that
// keeps at least one copy alive through any later m-node loss (n-2m >= 1
// whenever m < k) — otherwise the commit fails.
func (f *Fleet) publishManifest(clock *vtime.Clock, job string, seq uint64, frame []byte) (int, error) {
	published := 0
	var firstErr error
	var diskMax vtime.Duration
	var linkBytes int64
	for _, name := range f.names {
		f.tick()
		n := f.nodes[name]
		if !n.alive() {
			if firstErr == nil {
				firstErr = &proc.ErrNodeDown{Node: name, Op: "write", Path: n.st.manifestPath(job, seq)}
			}
			continue
		}
		sc := vtime.NewClock()
		if err := n.st.writeVerifiedMeta(sc, n.st.manifestPath(job, seq), frame); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if d := sc.Now().Sub(0); d > diskMax {
			diskMax = d
		}
		linkBytes += int64(len(frame))
		published++
	}
	clock.Advance(f.cfg.Link.Transfer(linkBytes) + diskMax)
	if published < len(f.names)-f.cfg.ParityShards {
		return published, fmt.Errorf("store: fleet: manifest %s published to only %d of %d nodes (tolerate at most %d missing): %v",
			manifestID(job, seq), published, len(f.names), f.cfg.ParityShards, firstErr)
	}
	return published, nil
}

// loadManifest resolves one manifest from the first node holding a
// decodable copy, walking sorted names. When an earlier node failed
// (down, lost or corrupt frame) and a later one served, the good frame
// is re-published to the failed alive nodes best effort — manifest reads
// self-heal exactly like Store's replica fallback.
func (f *Fleet) loadManifest(job string, seq uint64) (Manifest, error) {
	var failed []*fleetNode
	var lastErr error
	for _, name := range f.names {
		n := f.nodes[name]
		if !n.alive() {
			continue
		}
		if !n.st.fs.Exists(n.st.manifestPath(job, seq)) {
			failed = append(failed, n)
			continue
		}
		m, err := n.st.readManifest(job, seq)
		if err != nil {
			lastErr = err
			failed = append(failed, n)
			continue
		}
		if len(failed) > 0 {
			if frame, ferr := encodeManifest(m); ferr == nil {
				healed := 0
				for _, fn := range failed {
					if werr := fn.st.writeVerifiedMeta(vtime.NewClock(), fn.st.manifestPath(job, seq), frame); werr == nil {
						healed++
					}
				}
				f.recordManifestHeal(healed)
			}
		}
		return m, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("store: manifest %s: no copy on any alive node", manifestID(job, seq))
	}
	return Manifest{}, lastErr
}

// manifestFiles unions the manifest files of the alive nodes, ordered by
// job then seq.
func (f *Fleet) manifestFiles() []manifestKey {
	seen := map[manifestKey]bool{}
	var keys []manifestKey
	for _, name := range f.names {
		n := f.nodes[name]
		if !n.alive() {
			continue
		}
		for _, k := range n.st.manifestFiles() {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Job != keys[j].Job {
			return keys[i].Job < keys[j].Job
		}
		return keys[i].Seq < keys[j].Seq
	})
	return keys
}

// TotalStoredBytes sums the physical occupancy of every node — shards,
// parity, mirrored manifests, quarantine. This is the number the
// durability-per-byte comparison against replication uses.
func (f *Fleet) TotalStoredBytes() int64 {
	var n int64
	for _, name := range f.names {
		n += f.nodes[name].st.TotalStoredBytes()
	}
	return n
}
