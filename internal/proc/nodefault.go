package proc

// Node-level fault injection for store fleets. Where DiskFaultPlan makes
// individual filesystem operations fail the way disks fail, NodeFaultPlan
// makes whole storage nodes fail the way cluster nodes fail: a node
// crashes (every operation on its filesystem errors until it revives or
// is replaced), a node goes slow (every operation charges a multiple of
// its modelled time for a while), a shard at rest rots (one bit of one
// stored file flips in place, silently), or a shard write tears. The two
// injectors compose: an FS may carry a per-operation FaultInjector and a
// NodeState from a NodeFaultInjector at the same time.

import (
	"fmt"
	"sort"
	"sync"

	"checl/internal/fault"
)

// NodeFaultKind selects how an injected node fault manifests.
type NodeFaultKind int

const (
	// NodeFaultNone leaves the fleet alone.
	NodeFaultNone NodeFaultKind = iota
	// NodeFaultCrash takes one node down: every subsequent operation on
	// its filesystem fails with *ErrNodeDown until the plan's
	// ReviveAfter elapses (0 = the node stays down until replaced).
	NodeFaultCrash
	// NodeFaultSlow makes one node slow: its next SlowFor operations
	// charge SlowFactor times their modelled duration.
	NodeFaultSlow
	// NodeFaultShardRot flips one bit of one stored file on the victim
	// node, in place and silently — at-rest decay a later read observes.
	NodeFaultShardRot
	// NodeFaultTornWrite arms the victim so its next write persists only
	// a prefix and fails with *ErrIO.
	NodeFaultTornWrite
)

func (k NodeFaultKind) String() string {
	switch k {
	case NodeFaultNone:
		return "none"
	case NodeFaultCrash:
		return "node-crash"
	case NodeFaultSlow:
		return "slow-node"
	case NodeFaultShardRot:
		return "shard-rot"
	case NodeFaultTornWrite:
		return "torn-shard-write"
	default:
		return fmt.Sprintf("node-fault(%d)", int(k))
	}
}

// nodeKillKinds is the default mix: every failure mode a k+m erasure
// fleet must absorb without losing a byte.
var nodeKillKinds = []NodeFaultKind{
	NodeFaultCrash,
	NodeFaultSlow,
	NodeFaultShardRot,
	NodeFaultTornWrite,
}

// ErrNodeDown reports an operation against a crashed store node. It is
// not transient: retrying against the same node cannot succeed — the
// caller must read elsewhere (degraded read) or wait for a rebuild.
type ErrNodeDown struct {
	Node string
	Op   string
	Path string
}

func (e *ErrNodeDown) Error() string {
	return fmt.Sprintf("node %s: down (%s %s)", e.Node, e.Op, e.Path)
}

// NodeFaultPlan is a deterministic schedule of injected node faults.
type NodeFaultPlan struct {
	Seed      uint64          // drives victim and kind choice; same seed, same faults
	EveryN    int             // inject on every Nth fleet operation; <= 0 disables
	SkipFirst int             // leave the first SkipFirst operations alone
	Max       int             // stop injecting after Max faults; 0 = unlimited
	Kinds     []NodeFaultKind // candidate kinds; nil means nodeKillKinds

	// ReviveAfter brings a crashed node back after that many further
	// fleet operations; 0 keeps it down until SetDown(false) or a
	// replacement. Rebuild-style tests keep it 0.
	ReviveAfter int
	// MaxDown caps how many registered nodes may be crashed at once; a
	// crash drawn beyond the cap is dropped. 0 keeps one node alive
	// (never crash the last registered node); an erasure-fleet soak sets
	// it to the parity count m so the plan stays within what the coding
	// tolerates.
	MaxDown int
	// SlowFor / SlowFactor parameterise NodeFaultSlow: the victim's next
	// SlowFor filesystem operations charge SlowFactor times their
	// modelled duration. Defaults 64 ops at 8x.
	SlowFor    int
	SlowFactor float64
}

// NodeFaultEvent records one injected node fault for reporting.
type NodeFaultEvent struct {
	Op   int // 1-based index of the faulted fleet operation
	Kind NodeFaultKind
	Node string
	Path string // the file a shard-rot landed on, if any
}

// NodeState is the injectable node-level condition of one filesystem:
// down, slow, or armed for a torn write. An FS consults its NodeState
// (WithNodeState/SetNodeState) on every operation. Safe for concurrent
// use.
type NodeState struct {
	mu       sync.Mutex
	node     string
	down     bool
	slowFor  int
	slowBy   float64
	tornNext int
}

// NewNodeState builds a standalone healthy state (tests; the usual path
// is NodeFaultInjector.Register).
func NewNodeState(node string) *NodeState { return &NodeState{node: node} }

// Node reports the node name the state belongs to.
func (ns *NodeState) Node() string { return ns.node }

// SetDown crashes (true) or revives (false) the node.
func (ns *NodeState) SetDown(down bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.down = down
}

// Down reports whether the node is currently crashed. A nil state is a
// healthy node, so callers can ask an FS with no node state attached.
func (ns *NodeState) Down() bool {
	if ns == nil {
		return false
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.down
}

// Slow makes the node's next forOps operations charge factor times their
// modelled duration.
func (ns *NodeState) Slow(factor float64, forOps int) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.slowBy, ns.slowFor = factor, forOps
}

// ArmTornWrite makes the node's next write tear (persist a prefix, fail
// with *ErrIO).
func (ns *NodeState) ArmTornWrite() {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.tornNext++
}

// gate is consulted by the FS at the top of every operation: reports
// whether the node is down and the time-scale factor for this operation.
func (ns *NodeState) gate() (down bool, scale float64) {
	if ns == nil {
		return false, 1
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.down {
		return true, 1
	}
	scale = 1
	if ns.slowFor > 0 {
		ns.slowFor--
		scale = ns.slowBy
	}
	return false, scale
}

// takeTorn consumes one armed torn write, if any.
func (ns *NodeState) takeTorn() bool {
	if ns == nil {
		return false
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.tornNext > 0 {
		ns.tornNext--
		return true
	}
	return false
}

// NodeFaultInjector owns a node fault plan's mutable state across a set
// of registered store nodes. The fleet ticks it once per shard-level
// operation; when the plan fires, a seeded RNG picks the victim node and
// the fault kind. Deterministic per seed: same registrations in the same
// order, same tick sequence, same faults. Scrub sweeps hold its
// Suspend while they repair the fleet.
type NodeFaultInjector struct {
	fault.Schedule[NodeFaultEvent]
	plan      NodeFaultPlan
	targets   []*nodeTarget
	shardData func(path string) bool // which files hold shard data; nil = none known
	revive    map[*nodeTarget]int    // target -> op count at which it comes back
}

type nodeTarget struct {
	name  string
	fs    *FS
	state *NodeState
}

// NewNodeFaultInjector builds an injector for plan.
func NewNodeFaultInjector(plan NodeFaultPlan) *NodeFaultInjector {
	if plan.SlowFor <= 0 {
		plan.SlowFor = 64
	}
	if plan.SlowFactor <= 1 {
		plan.SlowFactor = 8
	}
	if len(plan.Kinds) == 0 {
		plan.Kinds = nodeKillKinds
	}
	f := &NodeFaultInjector{plan: plan, revive: map[*nodeTarget]int{}}
	f.Init(plan.Seed, plan.EveryN, plan.SkipFirst, plan.Max)
	return f
}

// Register adds one store node to the victim pool, attaches a fresh
// NodeState to its filesystem, and returns the state (so callers can
// also crash or revive the node by hand).
func (f *NodeFaultInjector) Register(name string, fs *FS) *NodeState {
	f.Lock()
	defer f.Unlock()
	st := &NodeState{node: name}
	fs.SetNodeState(st)
	f.targets = append(f.targets, &nodeTarget{name: name, fs: fs, state: st})
	return st
}

// SetShardData tells the injector which files on the registered nodes hold
// shard data, so NodeFaultShardRot lands on them rather than on metadata.
// The store that owns the layout calls this; the injector knows no paths.
func (f *NodeFaultInjector) SetShardData(isShard func(path string) bool) {
	f.Lock()
	defer f.Unlock()
	f.shardData = isShard
}

// Down lists the names of currently crashed nodes, sorted.
func (f *NodeFaultInjector) Down() []string {
	f.Lock()
	targets := append([]*nodeTarget(nil), f.targets...)
	f.Unlock()
	var out []string
	for _, t := range targets {
		if t.state.Down() {
			out = append(out, t.name)
		}
	}
	sort.Strings(out)
	return out
}

// Tick counts one fleet-level operation, revives crashed nodes whose
// time has come, and — when the plan fires — picks a victim and injects
// one fault. Crashes respect the plan's MaxDown cap (by default the last
// registered node is never taken down: an erasure fleet with every node
// dead is not a robustness scenario, it is a power cut).
func (f *NodeFaultInjector) Tick() {
	f.Lock()
	defer f.Unlock()
	op, fire := f.Due()
	for t, at := range f.revive {
		if op >= at {
			t.state.SetDown(false)
			delete(f.revive, t)
		}
	}
	if !fire || len(f.targets) == 0 {
		return
	}
	z := f.Draw()
	kind := f.plan.Kinds[z%uint64(len(f.plan.Kinds))]
	victim := f.targets[(z>>16)%uint64(len(f.targets))]
	ev := NodeFaultEvent{Op: op, Kind: kind, Node: victim.name}
	switch kind {
	case NodeFaultCrash:
		down := 0
		for _, t := range f.targets {
			if t.state.Down() {
				down++
			}
		}
		cap := f.plan.MaxDown
		if cap <= 0 {
			cap = len(f.targets) - 1
		}
		if down >= cap || victim.state.Down() {
			return // cap reached; a dead victim is a no-op
		}
		victim.state.SetDown(true)
		if f.plan.ReviveAfter > 0 {
			f.revive[victim] = op + f.plan.ReviveAfter
		}
	case NodeFaultSlow:
		victim.state.Slow(f.plan.SlowFactor, f.plan.SlowFor)
	case NodeFaultShardRot:
		path, ok := pickRotTarget(victim.fs, f.shardData, f.Draw())
		if !ok {
			return // empty node: nothing at rest to rot
		}
		victim.fs.FlipBit(path, f.Draw())
		ev.Path = path
	case NodeFaultTornWrite:
		victim.state.ArmTornWrite()
	}
	f.Record(ev)
}

// pickRotTarget chooses the file a shard-rot lands on: a seeded pick
// among the node's shard-data files (any file when it has none yet, or
// when nobody said which they are).
func pickRotTarget(fs *FS, isShard func(path string) bool, bits uint64) (string, bool) {
	paths := fs.List()
	if len(paths) == 0 {
		return "", false
	}
	if isShard != nil {
		var shards []string
		for _, p := range paths {
			if isShard(p) {
				shards = append(shards, p)
			}
		}
		if len(shards) > 0 {
			paths = shards
		}
	}
	return paths[bits%uint64(len(paths))], true
}
