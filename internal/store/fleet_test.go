package store

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"checl/internal/hw"
	"checl/internal/proc"
	"checl/internal/vtime"
)

// testFleet builds an n-node fleet with per-node NodeStates already
// attached (so tests can take nodes down directly) and fine chunking so
// modest payloads still spread over many chunks.
func testFleet(t *testing.T, n int, cfg FleetConfig) (*Fleet, map[string]*proc.NodeState) {
	t.Helper()
	if cfg.Store.MinChunk == 0 {
		cfg.Store = Config{MinChunk: 1 << 10, AvgChunk: 4 << 10, MaxChunk: 16 << 10}
	}
	nodes := make([]FleetNode, n)
	states := map[string]*proc.NodeState{}
	for i := range nodes {
		name := fmt.Sprintf("fn-%02d", i)
		fs := proc.NewFS(name, hw.TableISpec().LocalDisk)
		ns := proc.NewNodeState(name)
		fs.SetNodeState(ns)
		nodes[i] = FleetNode{Name: name, FS: fs}
		states[name] = ns
	}
	f, err := NewFleet(nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, states
}

// nodeFS is the filesystem behind one member.
func nodeFS(f *Fleet, name string) *proc.FS { return f.nodes[name].fs }

func allUp(states map[string]*proc.NodeState) {
	for _, ns := range states {
		ns.SetDown(false)
	}
}

// TestFleetDegradedGetEveryLossPattern takes every subset of up to m
// nodes down and requires a bit-identical restore each time; one node
// beyond m must fail loudly, never fabricate.
func TestFleetDegradedGetEveryLossPattern(t *testing.T) {
	f, states := testFleet(t, 6, FleetConfig{})
	clock := vtime.NewClock()
	data := payload(11, 256<<10)
	if _, _, err := f.Put(clock, "job", data); err != nil {
		t.Fatal(err)
	}
	names := f.Nodes()
	m := f.Config().ParityShards

	for lost := 1; lost <= m; lost++ {
		for _, downSet := range combinations(len(names), lost) {
			allUp(states)
			for _, di := range downSet {
				states[names[di]].SetDown(true)
			}
			got, _, err := f.Get(clock, "job")
			if err != nil {
				t.Fatalf("down=%v: %v", downSet, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("down=%v: degraded restore differs", downSet)
			}
		}
	}

	// m+1 nodes down: with 6 nodes and 4+2 coding every chunk has a shard
	// on every node, so every chunk is 3 shards short and must fail.
	allUp(states)
	for _, name := range names[:m+1] {
		states[name].SetDown(true)
	}
	if _, _, err := f.Get(clock, "job"); err == nil {
		t.Fatalf("%d nodes down but Get succeeded", m+1)
	}
	allUp(states)
}

// TestNodeKillPositionSweep kills every node (and every node pair, up to
// m=2) at every shard-operation position of a degraded read and requires
// the restore to stay bit-identical regardless of when the loss lands.
func TestNodeKillPositionSweep(t *testing.T) {
	f, states := testFleet(t, 6, FleetConfig{})
	clock := vtime.NewClock()
	data := payload(12, 128<<10)
	if _, _, err := f.Put(clock, "job", data); err != nil {
		t.Fatal(err)
	}
	names := f.Nodes()

	// Calibrate: how many injector ticks does one healthy Get take?
	probe := proc.NewNodeFaultInjector(proc.NodeFaultPlan{})
	f.SetFaultInjector(probe)
	if _, _, err := f.Get(clock, "job"); err != nil {
		t.Fatal(err)
	}
	ops := probe.Ops()
	if ops == 0 {
		t.Fatal("Get ticked the injector zero times")
	}

	pairs := combinations(len(names), 1)
	pairs = append(pairs, combinations(len(names), 2)...)
	for _, victims := range pairs {
		for p := 0; p < ops; p++ {
			allUp(states)
			inj := proc.NewNodeFaultInjector(proc.NodeFaultPlan{
				Seed: uint64(p), EveryN: 1, SkipFirst: p, Max: len(victims),
				Kinds:   []proc.NodeFaultKind{proc.NodeFaultCrash},
				MaxDown: len(victims),
			})
			// Only the victims register, so the sweep controls exactly
			// which nodes the crashes land on.
			for _, vi := range victims {
				states[names[vi]] = inj.Register(names[vi], nodeFS(f, names[vi]))
			}
			f.SetFaultInjector(inj)
			got, _, err := f.Get(clock, "job")
			if err != nil {
				t.Fatalf("victims=%v pos=%d: %v", victims, p, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("victims=%v pos=%d: restore differs", victims, p)
			}
		}
	}
	f.SetFaultInjector(nil)
	allUp(states)
}

func TestFleetRebuildRestoresRedundancy(t *testing.T) {
	f, states := testFleet(t, 6, FleetConfig{})
	clock := vtime.NewClock()
	data := payload(13, 512<<10)
	if _, _, err := f.Put(clock, "alpha", data); err != nil {
		t.Fatal(err)
	}
	data2 := payload(14, 256<<10)
	if _, _, err := f.Put(clock, "beta", data2); err != nil {
		t.Fatal(err)
	}
	names := f.Nodes()

	// Node 0 dies for good and is replaced by an empty filesystem.
	victim := names[0]
	freshFS := proc.NewFS(victim, hw.TableISpec().LocalDisk)
	freshNS := proc.NewNodeState(victim)
	freshFS.SetNodeState(freshNS)
	if err := f.ReplaceNode(victim, freshFS); err != nil {
		t.Fatal(err)
	}
	states[victim] = freshNS

	st, err := f.Rebuild(clock)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsRebuilt == 0 || st.BytesRebuilt == 0 {
		t.Fatalf("replacement node got no shards: %+v", st)
	}
	// Manifest copies reach the replacement either through Rebuild's sync
	// or through the read path's self-heal when Rebuild listed manifests.
	if st.ManifestsRepaired == 0 && f.Heals().ManifestsHealed == 0 {
		t.Fatalf("replacement node got no manifest copies: %+v", st)
	}
	for _, job := range []string{"alpha", "beta"} {
		onVictim := 0
		for _, k := range f.nodes[victim].manifestFiles() {
			if k.Job == job {
				onVictim++
			}
		}
		if onVictim == 0 {
			t.Fatalf("replacement node holds no %s manifests after rebuild", job)
		}
	}
	if st.Batches == 0 || st.Time <= 0 {
		t.Fatalf("rebuild pacing did not engage: %+v", st)
	}

	// Full redundancy is back: the replacement node plus any other node
	// can now drop simultaneously and everything still restores.
	states[victim].SetDown(true)
	states[names[3]].SetDown(true)
	for job, want := range map[string][]byte{"alpha": data, "beta": data2} {
		got, _, gerr := f.Get(clock, job)
		if gerr != nil {
			t.Fatalf("%s after rebuild with 2 nodes down: %v", job, gerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs after rebuild", job)
		}
	}
	allUp(states)

	// A second Rebuild is a no-op: redundancy is already full.
	st2, err := f.Rebuild(clock)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ShardsRebuilt != 0 {
		t.Fatalf("idle rebuild wrote %d shards", st2.ShardsRebuilt)
	}
}

func TestFleetScrubHealsRotAndSweepsOrphans(t *testing.T) {
	f, states := testFleet(t, 6, FleetConfig{})
	clock := vtime.NewClock()
	data := payload(15, 256<<10)
	if _, _, err := f.Put(clock, "job", data); err != nil {
		t.Fatal(err)
	}

	// Rot shards at rest on two nodes and drop an orphan on a third.
	names := f.Nodes()
	rotted := 0
	for _, name := range names[:2] {
		st := nodeFS(f, name)
		for _, p := range st.List() {
			if strings.Contains(p, "/packs/") && rotted < 3 {
				if st.FlipBit(p, uint64(rotted)*131) {
					rotted++
				}
			}
		}
	}
	if rotted == 0 {
		t.Fatal("found no packs to rot")
	}
	orphanSum := strings.Repeat("ab", 32)
	ost := nodeFS(f, names[3])
	orphan := f.packPrefix() + orphanSum + "/00000001.0"
	if err := ost.WriteFile(vtime.NewClock(), orphan, []byte("junk")); err != nil {
		t.Fatal(err)
	}

	rep, err := f.Scrub(clock)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scrub findings: %v", rep.Findings)
	}
	bad := 0
	for _, prog := range rep.PerNode {
		bad += prog.ShardsBad
	}
	if bad < rotted+1 {
		t.Fatalf("scrub flagged %d bad shards, want >= %d (rot) + 1 (orphan)", bad, rotted+1)
	}
	if rep.ShardsRebuilt < rotted {
		t.Fatalf("scrub rebuilt %d shards, rotted %d", rep.ShardsRebuilt, rotted)
	}
	if ost.Exists(orphan) {
		t.Fatal("orphan pack survived the scrub")
	}
	if f.Heals().ShardsHealed == 0 {
		t.Fatal("heal ledger recorded nothing")
	}

	// Post-scrub the fleet is back at full redundancy.
	states[names[0]].SetDown(true)
	states[names[1]].SetDown(true)
	got, _, err := f.Get(clock, "job")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("restore after scrub with rotted nodes down: %v", err)
	}
	allUp(states)
}

func TestFleetScrubQuarantinesUnrepairable(t *testing.T) {
	f, _ := testFleet(t, 6, FleetConfig{})
	clock := vtime.NewClock()
	if _, _, err := f.Put(clock, "doomed", payload(16, 64<<10)); err != nil {
		t.Fatal(err)
	}
	// Destroy its chunks beyond repair: remove the packs of m+1 nodes.
	man, err := f.Resolve("doomed")
	if err != nil {
		t.Fatal(err)
	}
	killed := 0
	for _, name := range f.Nodes() {
		st := nodeFS(f, name)
		for _, p := range st.List() {
			if strings.Contains(p, "/packs/") && killed < 3 {
				if err := st.Remove(p); err != nil {
					t.Fatal(err)
				}
				killed++
			}
		}
	}
	if killed != 3 {
		t.Fatalf("killed %d packs, want 3", killed)
	}

	rep, err := f.Scrub(clock)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("scrub reported OK with an unrepairable chunk")
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != man.ID() {
		t.Fatalf("quarantined %v, want [%s]", rep.Quarantined, man.ID())
	}
	if _, err := f.Resolve("doomed"); err == nil {
		t.Fatal("quarantined manifest still resolves")
	}
}

func TestFleetTornShardWriteAbsorbed(t *testing.T) {
	f, states := testFleet(t, 6, FleetConfig{})
	clock := vtime.NewClock()
	for _, name := range f.Nodes()[:2] {
		states[name].ArmTornWrite()
	}
	data := payload(31, 128<<10)
	if _, _, err := f.Put(clock, "job", data); err != nil {
		t.Fatalf("put with torn shard writes: %v", err)
	}
	got, _, err := f.Get(clock, "job")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("restore after torn shard writes: %v", err)
	}
}

func TestFleetPutTolERatesDownNodesUpToM(t *testing.T) {
	f, states := testFleet(t, 6, FleetConfig{})
	clock := vtime.NewClock()
	names := f.Nodes()
	states[names[1]].SetDown(true)
	states[names[4]].SetDown(true)

	data := payload(32, 128<<10)
	if _, _, err := f.Put(clock, "job", data); err != nil {
		t.Fatalf("put with m nodes down: %v", err)
	}
	allUp(states)
	got, _, err := f.Get(clock, "job")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("restore of degraded-commit checkpoint: %v", err)
	}
	// Rebuild tops the under-replicated chunks back up.
	st, err := f.Rebuild(clock)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsRebuilt == 0 {
		t.Fatal("rebuild found nothing to top up after a degraded commit")
	}

	// One node too many refuses the commit.
	states[names[0]].SetDown(true)
	states[names[2]].SetDown(true)
	states[names[3]].SetDown(true)
	if _, _, err := f.Put(clock, "job2", data); err == nil {
		t.Fatal("put committed with m+1 nodes down")
	}
	allUp(states)
}

func TestFleetRejectsBadGeometry(t *testing.T) {
	mk := func(n int) []FleetNode {
		out := make([]FleetNode, n)
		for i := range out {
			name := fmt.Sprintf("x-%d", i)
			out[i] = FleetNode{Name: name, FS: proc.NewFS(name, hw.TableISpec().LocalDisk)}
		}
		return out
	}
	if _, err := NewFleet(mk(5), FleetConfig{}); err == nil {
		t.Fatal("5 nodes accepted for 4+2 coding")
	}
	nodes := mk(6)
	nodes[3].Name = nodes[2].Name
	if _, err := NewFleet(nodes, FleetConfig{}); err == nil {
		t.Fatal("duplicate node name accepted")
	}
	nodes = mk(6)
	nodes[0].Name = "bad/name"
	if _, err := NewFleet(nodes, FleetConfig{}); err == nil {
		t.Fatal("slash in node name accepted")
	}
}

// TestFleetSoakSeededFaults drives many generations of puts and gets
// through a full fault mix — crashes (with revival), slow nodes, at-rest
// rot, torn writes — and requires every read to come back bit-identical
// and the ledger to show actual self-healing.
func TestFleetSoakSeededFaults(t *testing.T) {
	f, _ := testFleet(t, 8, FleetConfig{})
	clock := vtime.NewClock()
	inj := proc.NewNodeFaultInjector(proc.NodeFaultPlan{
		Seed: 7, EveryN: 13, ReviveAfter: 40, MaxDown: 1,
	})
	f.AttachFaults(inj)

	gens := map[string][]byte{}
	for g := 0; g < 12; g++ {
		job := fmt.Sprintf("soak-%d", g%3)
		data := payload(int64(100+g), 96<<10)
		if _, _, err := f.Put(clock, job, data); err != nil {
			t.Fatalf("gen %d: put: %v", g, err)
		}
		gens[job] = data
		// The repair daemon runs between checkpoints: it tops degraded
		// commits back up to k+m and re-codes rotted shards, so the fault
		// mix never accumulates past the coding's tolerance.
		if _, err := f.Rebuild(clock); err != nil {
			t.Fatalf("gen %d: rebuild: %v", g, err)
		}
		for job, want := range gens {
			got, _, err := f.Get(clock, job)
			if err != nil {
				t.Fatalf("gen %d: get %s: %v", g, job, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("gen %d: %s differs", g, job)
			}
		}
	}
	if inj.Injected() == 0 {
		t.Fatal("soak injected no faults")
	}
	if f.Heals() == (HealStats{}) {
		t.Log("soak healed nothing (plan may have missed the read paths)")
	}
}
