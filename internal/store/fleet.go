package store

// Where the checkpoint store's bytes go, at every geometry: N store
// nodes, each chunk split into k data + m parity shards placed on k+m
// distinct nodes by a consistent-hash map over the chunk's content
// address. Any checkpoint restores bit-identical with any m nodes down — a
// degraded Get gathers any k surviving shards and reconstructs — at
// (k+m)/k storage overhead. Manifests are small, so they are mirrored to
// every node rather than sharded; one surviving copy resolves any ref.
//
// Every geometry is this code. A store on one filesystem (New) is one
// node with k=1, m=0: the "shard" is the chunk's blob and coding is the
// identity. A store with a replica (NewMirror) is two nodes with k=1, m=1:
// the parity row of a 1+1 Reed–Solomon code is [1], so the parity shard is
// the blob again — a mirror. Chunking, dedup, manifests, the restore walk
// and GC's retention are engine.go's, reads read.go's.
//
// On disk a node holds packs (pack.go): immutable files of shard records
// back to back, <Dir>/packs/<job>/<seq>.<part> for the records one Put
// sent it, <Dir>/packs/@heal/<n> for repairs and <Dir>/packs/@gc/<n>
// for what GC compacted. Where a record lives — (chunk, shard index) ->
// (pack, offset, length) — is an in-memory index per node, kept up to date
// by every pack write and rebuilt from the record headers when a fleet is
// opened over filesystems that already hold packs.
//
// Commit protocol, and the whole crash-consistency argument: a Put buffers
// each new chunk's shard records per node and writes them as one verified
// pack per node — all nodes in one overlapped round, a further round
// whenever a node's buffer passes packPartSize, the last before the commit
// — and only then publishes the manifest on every alive node: packs before
// manifest. A pack cut short is read up to the tear (scanPack); records
// behind it are erasures. The commit tolerates up to m down nodes: a chunk
// commits with >= k records in verified packs and the manifest with at most
// m copies missing; anything less fails the Put. A crash mid-Put leaves
// orphan packs whose records a later Put may still deduplicate against and
// GC or Scrub otherwise reclaims, and at worst a torn manifest frame, which
// Latest skips and Scrub quarantines.

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strconv"
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
// with default per-node store settings.
type FleetConfig struct {
	// DataShards (k) and ParityShards (m): each chunk becomes k+m shards
	// on distinct nodes and survives any m losses. Defaults 4 and 2.
	DataShards, ParityShards int
	// Store configures the per-node stores (chunking bounds). The zero
	// value selects Store's defaults.
	Store Config
}

// The fleet's modelled costs and pacing, one value each.
const (
	// fleetLink is the network to a remote node; records and manifest
	// frames that cross it are charged.
	fleetLink = hw.GigE
	// rebuildBatch/rebuildPause pace Scrub's repair: between two batches
	// of rebuildBatch chunks the repair idles for rebuildPause, so a node
	// replacement does not flatten the surviving nodes with a thundering
	// herd of reconstruction reads.
	rebuildBatch = 32
	rebuildPause = 2 * vtime.Millisecond
)

// fleetCoding charges the CPU time of parity generation and reconstruction.
var fleetCoding = hw.DefaultCoding()

func (c FleetConfig) withDefaults() FleetConfig {
	if c.DataShards == 0 {
		c.DataShards = 4
	}
	if c.ParityShards == 0 {
		c.ParityShards = 2
	}
	c.Store = c.Store.withDefaults()
	return c
}

// recKey names one shard of one chunk; recLoc is where a node keeps it.
type recKey struct {
	sum string
	idx int
}

type recLoc struct {
	pack    string
	off, n  int // the record's byte range in the pack
	origLen int // length of the chunk blob the shard was cut from
}

// HealStats is the store's cumulative ledger of repairs and copies —
// degraded reads that wrote shards back, Scrub passes, Replicate — one
// shape for every report to aggregate.
type HealStats struct {
	ManifestsHealed int // manifest frames re-published to nodes missing a good copy

	ChunksCopied int   // chunks moved to another store (Replicate)
	BytesCopied  int64 // stored bytes of those chunks

	ShardsHealed     int   // shard records reconstructed onto their home nodes
	ShardBytesHealed int64 // physical bytes of those records
}

// Fleet is a checkpoint store over N nodes, erasure-coded k+m. It
// implements Backend: core, cpr and mpi checkpoint into any geometry the
// same way.
type Fleet struct {
	name  string
	cfg   FleetConfig
	coder *Coder
	smap  *ShardMap

	mu    sync.Mutex // serialises Put/GC/Replicate/Scrub sequencing
	nodes map[string]*fleetNode
	names []string // sorted

	// The write in progress, a Put's or a Replicate's, guarded by mu: the
	// records staged per node and not yet written, the chunks they belong
	// to, the path of its next pack less the part number to try, and — a
	// Put's — where it stands on the link and the disks.
	wbufs map[string]*packBuf
	slots []putSlot // a Put's window (write.go), kept for the next Put
	round []staged
	stem  string
	part  int
	lanes *writeLanes
	// sealedAhead counts the chunks Puts' workers have sealed, for a test to
	// weigh against the chunks the Puts wrote. Guarded by mu.
	sealedAhead int

	inj *proc.NodeFaultInjector

	idxMu  sync.RWMutex // guards every node's record index, and nextAt
	nextAt uint64       // number of the next @heal/@gc pack

	healMu sync.Mutex
	heals  HealStats
}

// New opens (or creates — the store is its own directory layout) a store
// on one filesystem: a single node holding every chunk whole, 1+0. fs is
// used where it is, with no link in front of it.
func New(fs *proc.FS, cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f, err := open(fs.Name(), 1, 0, cfg, newNode(fs.Name(), fs, false))
	if err != nil {
		panic(err) // one node under a 1+0 code: nothing an argument can break
	}
	return f
}

// NewMirror opens a store on fs with a full copy of everything on mirror,
// a filesystem across the node-to-node link: two nodes, 1+1. Either copy
// serves every read; a Put with one of them down commits degraded and
// Scrub restores the second copy. The filesystems' names name
// the nodes and must differ.
func NewMirror(fs, mirror *proc.FS, cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	return open(fs.Name(), 1, 1, cfg,
		newNode(fs.Name(), fs, false), newNode(mirror.Name(), mirror, true))
}

// NewFleet builds a fleet over the given nodes, each across the network.
// Node names must be unique and there must be at least k+m of them; input
// order is irrelevant — placement depends only on the name set.
func NewFleet(nodes []FleetNode, cfg FleetConfig) (*Fleet, error) {
	cfg = cfg.withDefaults()
	members := make([]*fleetNode, len(nodes))
	for i, n := range nodes {
		if n.Name == "" || strings.ContainsAny(n.Name, "/@") {
			return nil, fmt.Errorf("store: fleet: invalid node name %q", n.Name)
		}
		members[i] = newNode(n.Name, n.FS, true)
	}
	name := fmt.Sprintf("fleet(%d nodes, %d+%d)", len(nodes), cfg.DataShards, cfg.ParityShards)
	return open(name, cfg.DataShards, cfg.ParityShards, cfg.Store, members...)
}

// open is the one constructor: a k+m code over nodes, cfg already defaulted.
func open(name string, k, m int, cfg Config, nodes ...*fleetNode) (*Fleet, error) {
	coder, err := NewCoder(k, m)
	if err != nil {
		return nil, err
	}
	if len(nodes) < k+m {
		return nil, fmt.Errorf("store: fleet: %d nodes cannot hold %d+%d shards on distinct nodes", len(nodes), k, m)
	}
	f := &Fleet{name: name, coder: coder, nodes: map[string]*fleetNode{}, wbufs: map[string]*packBuf{},
		cfg: FleetConfig{DataShards: k, ParityShards: m, Store: cfg}}
	for _, n := range nodes {
		if _, dup := f.nodes[n.name]; dup {
			return nil, fmt.Errorf("store: fleet: duplicate node name %q", n.name)
		}
		f.nodes[n.name] = n
		f.wbufs[n.name] = &packBuf{}
		f.names = append(f.names, n.name)
	}
	sort.Strings(f.names)
	if f.smap, err = newShardMap(f.names); err != nil {
		return nil, err
	}
	f.indexNodes()
	return f, nil
}

// Name identifies the backend in checkpoint records and tooling: the
// filesystem's name for a store opened on one, the geometry for a NewFleet.
func (f *Fleet) Name() string { return f.name }

// Config exposes the resolved configuration.
func (f *Fleet) Config() FleetConfig { return f.cfg }

// Nodes lists the node names, sorted.
func (f *Fleet) Nodes() []string { return append([]string(nil), f.names...) }

// AttachFaults registers every node with the injector (in sorted name
// order, so fault schedules are deterministic), tells it which files hold
// shard data, and ticks it on every subsequent shard-level operation.
func (f *Fleet) AttachFaults(inj *proc.NodeFaultInjector) {
	f.mu.Lock()
	for _, name := range f.names {
		inj.Register(name, f.nodes[name].fs)
	}
	f.mu.Unlock()
	f.setFaultInjector(inj)
}

// setFaultInjector installs (or with nil removes) an injector to tick
// without registering nodes; tests that register a hand-picked victim
// subset themselves call it directly.
func (f *Fleet) setFaultInjector(inj *proc.NodeFaultInjector) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inj = inj
	if inj != nil {
		prefix := f.packPrefix()
		inj.SetShardData(func(path string) bool { return strings.HasPrefix(path, prefix) })
	}
}

// Heals reports the fleet's cumulative self-repair counters (degraded
// reads that wrote shards back, scrub repairs).
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

// tick advances the node fault plan by one fleet-level operation: one pack
// or manifest read from or written to one node.
func (f *Fleet) tick() {
	if f.inj != nil {
		f.inj.Tick()
	}
}

// packPrefix is the directory every node keeps its packs under.
func (f *Fleet) packPrefix() string { return Dir + "/packs/" }

// repairPack names a fresh pack for records no single Put owns — "heal" for
// repairs, "gc" for compacted survivors. The number is fleet-wide, so one
// repair round is the same file name on every node it touches.
func (f *Fleet) repairPack(kind string) string {
	f.idxMu.Lock()
	defer f.idxMu.Unlock()
	n := f.nextAt
	f.nextAt++
	return fmt.Sprintf("%s@%s/%08d", f.packPrefix(), kind, n)
}

// packFiles lists the node's packs: the packs Puts wrote in path order,
// then the repair packs in the order they were written — the order an
// index rebuild wants, so a repaired record supersedes the one it replaced.
func (f *Fleet) packFiles(n *fleetNode) []string {
	var put, repair []string
	prefix := f.packPrefix()
	for _, p := range n.fs.List() {
		switch {
		case f.isRepairPack(p):
			repair = append(repair, p)
		case strings.HasPrefix(p, prefix):
			put = append(put, p)
		}
	}
	sort.Slice(repair, func(i, j int) bool { return repairPackNumber(repair[i]) < repairPackNumber(repair[j]) })
	return append(put, repair...)
}

// isRepairPack tells a heal or gc pack from a Put's: job names cannot
// contain '@'.
func (f *Fleet) isRepairPack(path string) bool {
	return strings.HasPrefix(path, f.packPrefix()+"@")
}

func repairPackNumber(path string) uint64 {
	n, _ := strconv.ParseUint(path[strings.LastIndexByte(path, '/')+1:], 10, 64)
	return n
}

// indexNodes builds the record index of every alive node that has none
// yet, by walking the record headers of the packs on its filesystem. No
// digest is checked — a record is verified when it is used — and a torn
// pack contributes the records in front of the tear. A node with a pack
// that cannot be read stays unindexed and is scanned again next time: what
// it does hold still serves reads, but GC and Scrub, which delete what the
// index does not know, leave it alone. Like manifest reads this is
// metadata work and charges no time.
func (f *Fleet) indexNodes() {
	f.idxMu.Lock()
	defer f.idxMu.Unlock()
	for _, name := range f.names {
		n := f.nodes[name]
		if n.indexed || !n.alive() {
			continue
		}
		n.indexed = true
		for _, p := range f.packFiles(n) {
			if f.isRepairPack(p) {
				f.nextAt = max(f.nextAt, repairPackNumber(p)+1)
			}
			data, err := readRetry(vtime.NewClock(), n.fs, p)
			if err != nil {
				n.indexed = false
				continue
			}
			recs, _ := scanPack(data)
			for _, r := range recs {
				n.recs[recKey{r.sum, r.idx}] = recLoc{pack: p, off: r.off, n: r.n, origLen: r.origLen}
			}
		}
	}
}

// sweepable reports whether the node is serving and its index covers
// everything on its disk, so that a pack the index has no record in is
// garbage rather than unread.
func (f *Fleet) sweepable(n *fleetNode) bool {
	f.idxMu.RLock()
	defer f.idxMu.RUnlock()
	return n.indexed && n.alive()
}

// lookup reports where node n keeps shard idx of the chunk at sum.
func (f *Fleet) lookup(n *fleetNode, sum string, idx int) (recLoc, bool) {
	f.idxMu.RLock()
	defer f.idxMu.RUnlock()
	loc, ok := n.recs[recKey{sum, idx}]
	return loc, ok
}

// forget removes a record that failed verification from the index, unless
// a repair has re-pointed the entry since loc was looked up.
func (f *Fleet) forget(n *fleetNode, key recKey, loc recLoc) {
	f.idxMu.Lock()
	defer f.idxMu.Unlock()
	if n.recs[key] == loc {
		delete(n.recs, key)
	}
}

// header describes shard idx of the chunk at sum, cut from a blob of origLen
// bytes, under the fleet's geometry.
func (f *Fleet) header(sum string, idx, origLen int) shardHeader {
	return shardHeader{sum: sum, idx: idx, k: f.cfg.DataShards, m: f.cfg.ParityShards, origLen: origLen}
}

// placement returns the k+m nodes holding the chunk's shards, in shard
// index order, in a slice of its own.
func (f *Fleet) placement(sum string) []*fleetNode {
	out := make([]*fleetNode, 0, f.cfg.DataShards+f.cfg.ParityShards)
	f.smap.place(sum, cap(out), func(node int) { out = append(out, f.nodes[f.names[node]]) })
	return out
}

// chunkPresent probes whether the chunk at sum, whose shards go to nodes,
// is already durably stored: at least k of its records are indexed in packs
// that are still there. This is a metadata operation and charges no time.
// When present it also reports the original blob length.
func (f *Fleet) chunkPresent(sum string, nodes []*fleetNode) (int64, bool) {
	present, origLen := 0, 0
	for i, n := range nodes {
		if loc, ok := f.lookup(n, sum, i); ok && n.fs.Exists(loc.pack) {
			present++
			origLen = loc.origLen
		}
	}
	return int64(origLen), present >= f.cfg.DataShards
}

// writeRound writes one file at path to each named node, in order: it ticks
// the fault plan once per node, skips a node that is down, and runs write on
// a disk clock of the node's own, from zero. It reports how long each write
// that landed kept its node's disk busy, and why each other one failed.
// What a write takes does not depend on when it starts, so no clock of the
// caller's moves: the caller places the durations, one after the other
// (serially) or on a Put's lanes (carry).
func (f *Fleet) writeRound(names []string, path string, write func(n *fleetNode, disk *vtime.Clock) error) (disk map[string]vtime.Duration, failed map[string]error) {
	disk, failed = map[string]vtime.Duration{}, map[string]error{}
	for _, name := range names {
		f.tick()
		n, sc := f.nodes[name], vtime.NewClock()
		var err error
		if !n.alive() {
			err = &proc.ErrNodeDown{Node: name, Op: "write", Path: path}
		} else if err = write(n, sc); err == nil {
			disk[name] = sc.Now().Sub(0)
			continue
		}
		failed[name] = err
	}
	return disk, failed
}

// serially is what a round costs a writer that waits for all of it: the
// files that landed, size(name) bytes each, through the writer's one link,
// then the slowest disk — writes to distinct nodes overlap.
func (f *Fleet) serially(disk map[string]vtime.Duration, size func(name string) int) vtime.Duration {
	var linked int64
	var slowest vtime.Duration
	for name, d := range disk {
		linked += f.nodes[name].linkBytes(size(name))
		slowest = max(slowest, d)
	}
	return fleetLink.Transfer(linked) + slowest
}

// writePacks writes bufs — the records bound for each node, keyed by node
// name — as one verified pack per node at path, in one writeRound, and
// indexes the records that landed. Down nodes and failed writes are
// reported per node; their records are simply not stored. Returns the
// physical bytes written and the round's disk times, for the caller to
// charge.
func (f *Fleet) writePacks(path string, bufs map[string]*packBuf) (int64, map[string]vtime.Duration, map[string]error) {
	var names []string
	for _, name := range f.names {
		if buf := bufs[name]; buf != nil && len(buf.recs) > 0 {
			names = append(names, name)
		}
	}
	var written int64
	disk, failed := f.writeRound(names, path, func(n *fleetNode, d *vtime.Clock) error {
		buf := bufs[n.name]
		if err := n.writeVerified(d, path, buf.data); err != nil {
			return err
		}
		written += int64(len(buf.data))
		f.idxMu.Lock()
		for _, r := range buf.recs {
			n.recs[recKey{r.sum, r.idx}] = recLoc{pack: path, off: r.off, n: r.n, origLen: r.origLen}
		}
		f.idxMu.Unlock()
		return nil
	})
	return written, disk, failed
}

// staged is one chunk of the write in progress: its address, the nodes its
// records are bound for in shard order, the length of each record, and when
// the writer's CPU was done with it.
type staged struct {
	sum   string
	nodes []*fleetNode
	rec   int
	ready vtime.Time
}

// writeLanes is a Put's write on the virtual clock, the read's pipeline run
// the other way. The CPU lane is the writer's clock, which compresses and
// encodes chunk by chunk. A chunk's records go onto the writer's one link,
// in chunk order, once the CPU is done with it. Every node's disk is a lane
// of its own: it writes and reads back a pack once the node's last record
// of the round is there and its previous pack is done — a pack is one
// immutable verified file, so no disk starts on it before its last record
// has arrived. The lanes are arithmetic on durations: what is written, in
// what order, and every tick of the fault plan are the serial write's.
type writeLanes struct {
	link  vtime.Time  // when the link has carried every record so far
	packs []packStamp // every pack that landed, in the order written
}

// packStamp is one pack on its node's disk lane: when the node's last
// record of the round was there, and when the pack was written and verified.
type packStamp struct {
	node, path       string
	arrived, written vtime.Time
}

// free is when node's disk is done with the packs written so far.
func (l *writeLanes) free(node string) vtime.Time {
	for i := len(l.packs) - 1; i >= 0; i-- {
		if l.packs[i].node == node {
			return l.packs[i].written
		}
	}
	return 0
}

// end is the latest instant the link and the disks have reached.
func (l *writeLanes) end() vtime.Time {
	t := l.link
	for _, p := range l.packs {
		t = vtime.Max(t, p.written)
	}
	return t
}

// carry places the round just written at path on the Put's lanes. disk
// holds the nodes whose packs landed and what each took; records bound for
// any other node are not charged to the link, as the serial write does not
// charge them. A node that is not remote has its records when the CPU is
// done with them.
func (f *Fleet) carry(path string, disk map[string]vtime.Duration) {
	l := f.lanes
	arrived := map[string]vtime.Time{}
	for _, c := range f.round {
		var linked int64
		for _, n := range c.nodes {
			if _, ok := disk[n.name]; ok {
				linked += n.linkBytes(c.rec)
			}
		}
		l.link = vtime.Max(l.link, c.ready).Add(fleetLink.Transfer(linked))
		for _, n := range c.nodes {
			arrived[n.name] = c.ready
			if n.remote {
				arrived[n.name] = l.link
			}
		}
	}
	for _, name := range f.names {
		if d, ok := disk[name]; ok {
			at := arrived[name]
			l.packs = append(l.packs, packStamp{node: name, path: path, arrived: at, written: vtime.Max(l.free(name), at).Add(d)})
		}
	}
}

// beginWrite starts writing checkpoint job@seq: nothing staged yet, and
// its packs are <Dir>/packs/<job>/<seq>.<part>. With lanes, its rounds
// are placed on them (a Put); without, each is charged serially to the
// writer's clock (a Replicate).
func (f *Fleet) beginWrite(job string, seq uint64, lanes *writeLanes) {
	f.indexNodes()
	f.stem, f.part, f.round, f.lanes = fmt.Sprintf("%s%s/%08d.", f.packPrefix(), job, seq), 0, f.round[:0], lanes
	for _, buf := range f.wbufs {
		buf.reset()
	}
}

// stage queues one record of chunk c on each of its placement nodes
// (c.nodes) and charges c's encode to clock; a chunk that is not sealed yet
// (Replicate's, and a Put's that no worker sealed) is sealed here. Nothing
// reaches a disk until a node's queue passes packPartSize, when every queue
// is written out as the next part.
func (f *Fleet) stage(clock *vtime.Clock, c *outChunk) (int64, error) {
	clock.Advance(fleetCoding.EncodeTime(int64(len(c.blob)), f.cfg.DataShards, f.cfg.ParityShards))
	if !c.sealed {
		c.seal(f)
	}
	full := false
	for i, n := range c.nodes {
		buf := f.wbufs[n.name]
		buf.addDigested(f.header(c.sum, i, len(c.blob)), c.addr[:], c.shards[i], c.digests[i])
		full = full || len(buf.data) >= packPartSize
	}
	f.round = append(f.round, staged{sum: c.sum, nodes: c.nodes, rec: shardHeaderSize + len(c.shards[0]), ready: clock.Now()})
	if !full {
		return 0, nil
	}
	return f.flush(clock)
}

// flush writes the queued records out as one pack per node and requires
// every chunk among them to have landed on at least k nodes. Packs are
// never overwritten: a part number some node already holds (an earlier,
// failed Put of the same checkpoint) is skipped. A Put's round goes on its
// lanes and moves no clock; any other write's is charged to clock.
func (f *Fleet) flush(clock *vtime.Clock) (int64, error) {
	if len(f.round) == 0 {
		return 0, nil
	}
	path := f.stem + strconv.Itoa(f.part)
	for f.packExists(path) {
		f.part++
		path = f.stem + strconv.Itoa(f.part)
	}
	f.part++
	written, disk, failed := f.writePacks(path, f.wbufs)
	if f.lanes != nil {
		f.carry(path, disk)
	} else {
		clock.Advance(f.serially(disk, func(name string) int { return len(f.wbufs[name].data) }))
	}
	var err error
	if len(failed) > 0 {
		err = f.underwritten(failed)
	}
	for _, buf := range f.wbufs {
		buf.reset()
	}
	f.round = f.round[:0]
	return written, err
}

// underwritten reports the first chunk of the round that the failed nodes
// leave with fewer than k records.
func (f *Fleet) underwritten(failed map[string]error) error {
	k := f.cfg.DataShards
	for _, c := range f.round {
		ok := len(c.nodes)
		var firstErr error
		for _, n := range c.nodes {
			if e := failed[n.name]; e != nil {
				ok--
				if firstErr == nil {
					firstErr = e
				}
			}
		}
		if ok < k {
			return fmt.Errorf("store: fleet: chunk %s: only %d of %d shards written (need %d): %w",
				c.sum[:12], ok, len(c.nodes), k, firstErr)
		}
	}
	return nil
}

// packExists reports whether any node holds a file at path.
func (f *Fleet) packExists(path string) bool {
	for _, n := range f.nodes {
		if n.fs.Exists(path) {
			return true
		}
	}
	return false
}

// fleetRead is a read session: the packs it has pulled from the nodes, and
// the repaired records it owes them. Get opens one per manifest; Scrub
// runs its repair through one. A session moves no clock while
// it reads: a pack is stamped with the instant its node's disk was done
// with it, and what a chunk waits for and takes of the link and of the
// reader's CPU is left in the lanes its caller names — a landing's, for
// readChunks to charge in the order the link takes the chunks (charge).
type fleetRead struct {
	f     *Fleet
	clock *vtime.Clock // the reader's: every node's disk lane forks from it
	heal  bool         // write reconstructed records back to their home nodes
	packs map[packAt]pack
	// homes holds the placement of every chunk the session has met: worked
	// out once, asked for by prepare, gather and owe.
	homes map[string][]*fleetNode
	heals map[string]*packBuf // node name -> reconstructed records to write back
	owed  map[recKey]bool     // records already queued in heals
}

// packAt names one pack on one node. pack is what it read as — nil when it
// could not be read — and the instant it was off its node's disk; zero for
// a pack read late, whose disk time the chunk that asked for it paid.
type packAt struct{ node, path string }
type pack struct {
	data    []byte
	arrived vtime.Time
}

// newRead opens a read session and loads the packs the healthy path of
// every ref needs; a caller hands each address once (readChunks, its
// landings' distinct refs; Replicate, the chunks missing at the other end).
// The degraded read is the only read path there is; without heal it just
// writes nothing back.
func (f *Fleet) newRead(clock *vtime.Clock, refs []ChunkRef, heal bool) *fleetRead {
	f.indexNodes()
	r := &fleetRead{f: f, clock: clock, heal: heal, packs: map[packAt]pack{},
		homes: map[string][]*fleetNode{}, heals: map[string]*packBuf{}, owed: map[recKey]bool{}}
	sums := make([]string, len(refs))
	for i, ref := range refs {
		sums[i] = ref.Sum
	}
	r.prepare(sums, false)
	return r
}

// nodes is Fleet.placement, remembered for the length of the session.
func (r *fleetRead) nodes(sum string) []*fleetNode {
	nodes, ok := r.homes[sum]
	if !ok {
		nodes = r.f.placement(sum)
		r.homes[sum] = nodes
	}
	return nodes
}

// prepare loads the packs holding k records of each chunk — the data
// shards, with a parity shard standing in for every one whose node is down
// or has no record of it — each pack once. Every node's disk is a lane of
// its own, forked from the reader's clock, which does not move: the node
// reads its packs one after the other in the order the chunk list first
// needs them (a chunk asks a node for one record, so that order has no
// ties), and each pack keeps the instant it arrived. With trim set, what
// the session holds that none of these chunks need is let go first.
func (r *fleetRead) prepare(sums []string, trim bool) {
	f := r.f
	if trim {
		r.homes = map[string][]*fleetNode{}
	}
	want := map[packAt]bool{}
	queue := map[string][]string{} // node name -> the packs to read, in order
	for _, sum := range sums {
		got := 0
		for i, n := range r.nodes(sum) {
			if got == f.cfg.DataShards {
				break
			}
			if loc, ok := f.lookup(n, sum, i); ok && n.alive() {
				at := packAt{n.name, loc.pack}
				if _, loaded := r.packs[at]; !loaded && !want[at] {
					queue[n.name] = append(queue[n.name], loc.pack)
				}
				want[at] = true
				got++
			}
		}
	}
	if trim {
		for at := range r.packs {
			if !want[at] {
				delete(r.packs, at)
			}
		}
	}
	for _, name := range f.names {
		if len(queue[name]) == 0 {
			continue
		}
		disk := r.clock.Fork()
		for _, path := range queue[name] {
			r.packs[packAt{name, path}] = pack{r.readPack(disk, f.nodes[name], path), disk.Now()}
		}
	}
}

// readPack pulls one pack off a node's disk, on the disk's clock.
func (r *fleetRead) readPack(disk *vtime.Clock, n *fleetNode, path string) []byte {
	r.f.tick()
	if !n.alive() {
		return nil
	}
	data, _ := readRetry(disk, n.fs, path)
	return data
}

// locate returns the bytes node n's index says are shard idx of the chunk
// at sum, as they lie in the pack and not yet verified; t waits for the
// pack. A pack prepare did not load is read now and stays serial: its disk
// time is the chunk's own, ahead of its link time, charged where the read
// reaches the chunk — as is whatever a second try (refetch) adds to t.
func (r *fleetRead) locate(n *fleetNode, sum string, idx int, t *lanes) (rec []byte, loc recLoc, ok bool) {
	if !n.alive() {
		return nil, loc, false
	}
	if loc, ok = r.f.lookup(n, sum, idx); !ok {
		return nil, loc, false
	}
	at := packAt{n.name, loc.pack}
	p, loaded := r.packs[at]
	if !loaded {
		disk := vtime.NewClock()
		p = pack{data: r.readPack(disk, n, loc.pack)}
		r.packs[at] = p
		t.link += disk.Now().Sub(0)
	}
	t.after = vtime.Max(t.after, p.arrived)
	if p.data == nil {
		return nil, loc, false
	}
	if loc.off < 0 || loc.n < 0 || loc.off+loc.n > len(p.data) {
		r.f.forget(n, recKey{sum, idx}, loc)
		return nil, loc, false
	}
	return p.data[loc.off : loc.off+loc.n], loc, true
}

// gather collects up to k verified shards of one chunk — sum is its
// address, addr the same in raw bytes — keyed by index, in index order. It
// also returns the original blob length and the indices examined that are
// missing, corrupt or on a down node; a record that fails verification
// leaves the index. Link time, added to t, covers the records actually
// pulled.
func (r *fleetRead) gather(sum string, addr *[sha256.Size]byte, t *lanes) (have map[int][]byte, origLen int, bad []int) {
	f := r.f
	have = map[int][]byte{}
	origLen = -1
	var pulled int64
	for i, n := range r.nodes(sum) {
		if len(have) >= f.cfg.DataShards {
			break
		}
		rec, loc, ok := r.locate(n, sum, i, t)
		if !ok {
			bad = append(bad, i)
			continue
		}
		payload, blobLen, ok := shardAt(rec, addr, i)
		if !ok {
			f.forget(n, recKey{sum, i}, loc)
			bad = append(bad, i)
			continue
		}
		have[i], origLen = payload, blobLen
		pulled += n.linkBytes(len(rec))
	}
	t.link += fleetLink.Transfer(pulled)
	return have, origLen, bad
}

// solve turns k or more gathered shards into the chunk's data shards, plus
// the parity shards among owed — the indices about to be written back —
// that are missing and whose node is there to take them; the other missing
// parity stays nil. The coding model's time is added to t's CPU share when a
// data shard has to be solved for (regenerating parity from intact data
// shards rides along uncharged).
func (r *fleetRead) solve(sum string, have map[int][]byte, origLen int, owed []int, t *lanes) ([][]byte, error) {
	f := r.f
	k := f.cfg.DataShards
	if len(have) < k {
		return nil, fmt.Errorf("store: fleet: chunk %s lost: %d of %d shards survive, need %d",
			sum[:12], len(have), k+f.cfg.ParityShards, k)
	}
	lost := 0
	for i := 0; i < k; i++ {
		if _, ok := have[i]; !ok {
			lost++
		}
	}
	t.cpu += fleetCoding.ReconstructTime(int64(origLen), k, lost)
	var parity []int
	for _, i := range owed {
		if i >= k && r.nodes(sum)[i].alive() {
			parity = append(parity, i)
		}
	}
	shards, err := f.coder.reconstruct(have, parity)
	if err != nil {
		return nil, fmt.Errorf("store: fleet: chunk %s: %w", sum[:12], err)
	}
	return shards, nil
}

// errBadRecord is what a chunk's pure half returns when a record the index
// pointed it at does not verify: the one failure the session's second try,
// with the other records, can do something about.
var errBadRecord = errors.New("store: fleet: shard record fails verification")

// fetch plans one chunk's read. The caller's half only locates k records,
// in index order, where the index says they are: the data records when
// every one is there, and a parity record standing in for each that is an
// erasure already — down node, no record, unreadable pack. Their digests,
// and the solve when a data record is among the erasures, are the pure
// half's. A chunk with fewer than k records to be found, or whose erasures
// owe an alive node a heal, is read degraded here and now, in chunk order.
func (r *fleetRead) fetch(l *landing) (func() error, error) {
	k := r.f.cfg.DataShards
	recs := make([][]byte, 0, k)
	var idxs []int // each record's shard index, once one is not its position
	var pulled int64
	for i, n := range r.nodes(l.ref.Sum) {
		if len(recs) == k {
			break
		}
		rec, _, ok := r.locate(n, l.ref.Sum, i, &l.lanes)
		if !ok {
			if r.heal && n.alive() {
				return r.fetchDegraded(l) // the chunk owes n a heal
			}
			if idxs == nil {
				idxs = make([]int, len(recs), k)
				for j := range idxs {
					idxs[j] = j
				}
			}
			continue
		}
		if idxs != nil {
			idxs = append(idxs, i)
		}
		recs = append(recs, rec)
		pulled += n.linkBytes(len(rec))
	}
	if len(recs) < k {
		return r.fetchDegraded(l)
	}
	return func() error { return r.landRecords(l, idxs, recs, pulled) }, nil
}

// landRecords is the pure half of a read: it verifies the k records fetch
// located — shards idxs, or 0..k-1 when idxs is nil — counts the link time
// of the pulled bytes of them that crossed it, solves for the data shards
// that are not among them, and lands the blob the data shards hold between
// them. recs is overwritten with the records' payloads. What it charges is
// what gather and solve charge for the same records.
func (r *fleetRead) landRecords(l *landing, idxs []int, recs [][]byte, pulled int64) error {
	k := r.f.cfg.DataShards
	origLen, lost := -1, 0
	for j, rec := range recs {
		i := j
		if idxs != nil {
			i = idxs[j]
		}
		ok := false
		if recs[j], origLen, ok = shardAt(rec, &l.addr, i); !ok {
			return errBadRecord
		}
		if i >= k {
			lost++
		}
	}
	l.link += fleetLink.Transfer(pulled)
	if lost == 0 {
		return r.landShards(l, recs, origLen)
	}
	have := make(map[int][]byte, k)
	for j, i := range idxs {
		have[i] = recs[j]
	}
	l.cpu += fleetCoding.ReconstructTime(int64(origLen), k, lost)
	shards, err := r.f.coder.reconstruct(have, nil)
	if err != nil {
		return fmt.Errorf("store: fleet: chunk %s: %w", l.ref.Sum[:12], err)
	}
	return r.landShards(l, shards[:k], origLen)
}

// landShards lands the blob of origLen bytes that the data shards hold
// between them. shards is trimmed to it in place.
func (r *fleetRead) landShards(l *landing, shards [][]byte, origLen int) error {
	if held := len(shards) * len(shards[0]); origLen > held {
		return fmt.Errorf("store: fleet: chunk %s: shards hold %d bytes, records say %d",
			l.ref.Sum[:12], held, origLen)
	}
	for i, shard := range shards {
		shards[i] = shard[:max(0, min(len(shard), origLen))]
		origLen -= len(shard)
	}
	return verifyParts(shards, l)
}

// readDegraded reads one chunk's data shards from any k survivors, their
// record digests verified: the parity shards join the gather and the chunk
// reconstructs; the shards that were missing are owed to their alive home
// nodes and written back when the session closes, so a degraded read heals
// the fleet as a side effect.
func (r *fleetRead) readDegraded(l *landing) (shards [][]byte, origLen int, err error) {
	sum := l.ref.Sum
	have, origLen, bad := r.gather(sum, &l.addr, &l.lanes)
	if shards, err = r.solve(sum, have, origLen, bad, &l.lanes); err != nil {
		return nil, 0, err
	}
	r.owe(sum, origLen, shards, bad)
	return shards[:r.f.cfg.DataShards], origLen, nil
}

// fetchDegraded is fetch by way of readDegraded, all of whose work —
// records, digests, solve, heals owed — happens here, in chunk order; what
// is returned is the pure rest.
func (r *fleetRead) fetchDegraded(l *landing) (func() error, error) {
	shards, origLen, err := r.readDegraded(l)
	if err != nil {
		return nil, err
	}
	return func() error { return r.landShards(l, shards, origLen) }, nil
}

// blob reads one chunk in its stored form, for a caller that moves it
// rather than restores it: verified end to end — records, inflate, content
// address — before it is returned. The caller takes chunks one at a time,
// so the session's clock pays for this one here, also when it fails.
func (r *fleetRead) blob(ref ChunkRef) ([]byte, error) {
	l, err := r.f.newLanding(ref)
	if err != nil {
		return nil, err
	}
	defer func() { l.pay(r.clock) }()
	shards, origLen, err := r.readDegraded(l)
	if err != nil {
		return nil, err
	}
	if err := r.landShards(l, shards, origLen); err != nil {
		return nil, err
	}
	return bytes.Join(shards, nil), nil
}

// refetch is the degraded read of a chunk one of whose records failed its
// digest. Any other failure stands: the shards verified, so what they hold
// is what was stored.
func (r *fleetRead) refetch(l *landing, cause error) error {
	if cause != errBadRecord {
		return cause
	}
	land, err := r.fetchDegraded(l)
	if err != nil {
		return err
	}
	return land()
}

// owe queues the given shard indices for write-back to their alive home
// nodes. A parity shard solve left out, its node being down, is skipped; a
// session opened without heal owes nothing.
func (r *fleetRead) owe(sum string, origLen int, shards [][]byte, idxs []int) {
	nodes := r.nodes(sum)
	for _, i := range idxs {
		n, key := nodes[i], recKey{sum, i}
		if !r.heal || shards[i] == nil || !n.alive() || r.owed[key] {
			continue
		}
		if r.heals[n.name] == nil {
			r.heals[n.name] = &packBuf{}
		}
		if r.heals[n.name].add(r.f.header(sum, i, origLen), shards[i]) == nil {
			r.owed[key] = true
		}
	}
}

// settle writes what the session owes as one heal pack per node and
// reports the records and bytes that landed. Counted in HealStats.
func (r *fleetRead) settle(clock *vtime.Clock) (int, int64) {
	if len(r.owed) == 0 {
		return 0, 0
	}
	written, disk, failed := r.f.writePacks(r.f.repairPack("heal"), r.heals)
	clock.Advance(r.f.serially(disk, func(name string) int { return len(r.heals[name].data) }))
	healed := 0
	for name, buf := range r.heals {
		if failed[name] == nil {
			healed += len(buf.recs)
		}
	}
	r.heals, r.owed = map[string]*packBuf{}, map[recKey]bool{}
	if healed > 0 {
		r.f.recordShardHeal(healed, written)
	}
	return healed, written
}

// close settles best effort on a scratch clock: repair is background work a
// degraded read should not also pay for.
func (r *fleetRead) close() { r.settle(vtime.NewClock()) }

// publishManifest writes the manifest frame to every alive node and
// reports how many copies landed. At most m copies may be missing,
// otherwise the commit fails: the manifest is then on as many nodes as a
// degraded chunk has records to spare for, and no more. How many further
// losses a degraded commit survives before Scrub has restored the
// missing copies depends on the geometry — n-2m copies outlive another
// m losses, which is 2 of them for 4+2 over six nodes and none for a
// mirror: a 1+1 Put with one node down stands on the other node alone.
func (f *Fleet) publishManifest(clock *vtime.Clock, job string, seq uint64, frame []byte) (int, error) {
	path := f.nodes[f.names[0]].manifestPath(job, seq) // every node has the same layout
	disk, failed := f.writeRound(f.names, path, func(n *fleetNode, d *vtime.Clock) error {
		return n.writeVerifiedMeta(d, path, frame)
	})
	clock.Advance(f.serially(disk, func(string) int { return len(frame) }))
	if published := len(disk); published < len(f.names)-f.cfg.ParityShards {
		var firstErr error
		for _, name := range f.names {
			firstErr = cmp.Or(firstErr, failed[name])
		}
		return published, fmt.Errorf("store: fleet: manifest %s published to only %d of %d nodes (tolerate at most %d missing): %w",
			manifestID(job, seq), published, len(f.names), f.cfg.ParityShards, firstErr)
	}
	return len(disk), nil
}

// loadManifest resolves one manifest from the first node holding a
// decodable copy, walking sorted names. When an earlier node failed (lost
// or corrupt frame) and a later one served, with heal set the good frame
// is re-published to the failed alive nodes best effort: manifest reads
// self-heal like chunk reads do.
func (f *Fleet) loadManifest(job string, seq uint64, heal bool) (Manifest, error) {
	var failed []*fleetNode
	var lastErr error
	for _, name := range f.names {
		n := f.nodes[name]
		if !n.alive() {
			continue
		}
		if !n.fs.Exists(n.manifestPath(job, seq)) {
			failed = append(failed, n)
			continue
		}
		m, err := n.readManifest(job, seq)
		if err != nil {
			lastErr = err
			failed = append(failed, n)
			continue
		}
		if heal && len(failed) > 0 {
			if frame, ferr := encodeManifest(m); ferr == nil {
				healed := 0
				for _, fn := range failed {
					if werr := fn.writeVerifiedMeta(vtime.NewClock(), fn.manifestPath(job, seq), frame); werr == nil {
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
		for _, k := range n.manifestFiles() {
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
// parity, mirrored manifests, quarantine: the number a durability-per-byte
// comparison between geometries uses.
func (f *Fleet) TotalStoredBytes() int64 {
	var n int64
	for _, name := range f.names {
		n += f.nodes[name].storedBytes()
	}
	return n
}
