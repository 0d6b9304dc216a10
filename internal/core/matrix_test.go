package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"checl/internal/apps"
	"checl/internal/hw"
	"checl/internal/ipc"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/proxy"
	"checl/internal/store"
)

// matrixRow is one way to run an app; its name is its non-empty axes
// joined with "-".
type matrixRow struct {
	transport string // "framed" or "ring"
	depth     string // "batched" (the full queue) or "unbatched" (queueDepth = 1)
	ckpt      string // "" (none), "full", "incr" or "spec" (incr with a speculative epoch)
	store     string // "" (none), "disk" (1+0), "mirror" (1+1, the primary under a disk fault plan) or "fleet" (4+2, read with nodes down)
	plan      string // "clean", "kill" (faultKillPlan) or "ringkinds" (the kill plan plus ipc.RingFaultKinds)
}

func (r matrixRow) name() string {
	axes := []string{r.transport, r.depth, r.ckpt, r.store, r.plan}
	return strings.Join(strings.Fields(strings.Join(axes, " ")), "-")
}

// matrixReference is the run every row is compared with: the transport
// the paper's figures run on, the full queue, no checkpoint, no faults.
var matrixReference = matrixRow{"framed", "batched", "", "", "clean"}

// matrixRun is what one run of a row leaves: the buffers when the app
// ended, the buffers after mutate (live, or one set per restore when the
// row checkpoints), and the proxy's counters when the app ended.
type matrixRun struct {
	ended   map[Handle]string
	mutated []map[Handle]string
	stats   proxy.Stats
}

// matrixRefs holds each app's reference run, made once per test process by
// the first row that needs it and shared by every row after it.
var matrixRefs sync.Map // app name -> *matrixRef

type matrixRef struct {
	once sync.Once
	run  matrixRun
	ok   bool
}

func matrixReferenceRun(t *testing.T, a apps.App, ai int) matrixRun {
	t.Helper()
	v, _ := matrixRefs.LoadOrStore(a.Name, &matrixRef{})
	ref := v.(*matrixRef)
	ref.once.Do(func() {
		ref.run = runMatrixRow(t, a, ai, matrixReference, nil)
		ref.ok = true
	})
	if !ref.ok {
		t.Fatalf("the reference run of %s failed", a.Name)
	}
	return ref.run
}

// TestTransportParitySoak: the ring is observationally the framed stream,
// clean at both queue depths and under the kill plan on the framed stream.
// The framed, batched, clean row is the reference run again, so that every
// repeat of the test runs it.
func TestTransportParitySoak(t *testing.T) {
	runMatrix(t, []matrixRow{
		{"framed", "unbatched", "", "", "clean"},
		{"ring", "unbatched", "", "", "clean"},
		{"framed", "unbatched", "", "", "kill"},
		{"framed", "batched", "", "", "clean"},
		{"ring", "batched", "", "", "clean"},
		{"framed", "batched", "", "", "kill"},
	})
}

// TestFaultAppsBitIdentical: failover on the ring under the kill plan, at
// both queue depths.
func TestFaultAppsBitIdentical(t *testing.T) {
	runMatrix(t, []matrixRow{
		{"ring", "unbatched", "", "", "kill"},
		{"ring", "batched", "", "", "kill"},
	})
}

// TestTransportParityRingFaultKinds: the kill plan plus the ring-only
// kinds (torn slots, stalled consumers, arena poison), at both depths.
func TestTransportParityRingFaultKinds(t *testing.T) {
	runMatrix(t, []matrixRow{
		{"ring", "unbatched", "", "", "ringkinds"},
		{"ring", "batched", "", "", "ringkinds"},
	})
}

// TestFaultAppsIncrementalBitIdentical: full, incremental and speculative
// checkpoints, the last two under the kill plan into a mirror whose
// primary disk faults, restore the mutated state.
func TestFaultAppsIncrementalBitIdentical(t *testing.T) {
	runMatrix(t, []matrixRow{
		{"ring", "batched", "full", "disk", "clean"},
		{"ring", "batched", "incr", "mirror", "kill"},
		{"ring", "batched", "spec", "mirror", "kill"},
	})
}

// TestFleetStoreAppsDegradedBitIdentical: an incremental checkpoint into a
// 4+2 fleet restores with any one or two of its nodes down. The first app
// sweeps all 21 patterns of up to two nodes down, the others take two.
func TestFleetStoreAppsDegradedBitIdentical(t *testing.T) {
	runMatrix(t, []matrixRow{{"ring", "batched", "incr", "fleet", "clean"}})
}

// runMatrix holds the restart contract of §III-C, extended to failover,
// incremental and store restores: every benchmark app, run along each of
// rows at scale 0.2 (the apps in parallel), ends bit-identical to its
// reference run, as <test>[/<depth>]/<app>/<row>. A faulted row's plan
// fires about three times in the reference run's calls and must fire at
// least once in every app. When rows hold both queue depths, each depth
// runs as a subtest.
func runMatrix(t *testing.T, rows []matrixRow) {
	var depths []string
	byDepth := map[string][]matrixRow{}
	for _, row := range rows {
		if byDepth[row.depth] == nil {
			depths = append(depths, row.depth)
		}
		byDepth[row.depth] = append(byDepth[row.depth], row)
	}
	runApps := func(t *testing.T, rows []matrixRow) {
		for ai, a := range apps.All() {
			t.Run(a.Name, func(t *testing.T) {
				t.Parallel()
				ref := matrixReferenceRun(t, a, ai)
				for _, row := range rows {
					t.Run(row.name(), func(t *testing.T) { checkMatrixRow(t, a, ai, row, ref) })
				}
			})
		}
	}
	if len(depths) == 1 {
		runApps(t, rows)
		return
	}
	for _, depth := range depths {
		t.Run(depth, func(t *testing.T) { runApps(t, byDepth[depth]) })
	}
}

// checkMatrixRow runs app a along row and compares the run with ref.
func checkMatrixRow(t *testing.T, a apps.App, ai int, row matrixRow, ref matrixRun) {
	var inj *ipc.FaultInjector
	if row.plan != "clean" {
		plan := faultKillPlan(2026, max(1, int(ref.stats.Calls-4)/3))
		if row.plan == "ringkinds" {
			plan.Kinds = append(plan.Kinds, ipc.RingFaultKinds...)
		}
		inj = ipc.NewFaultInjector(plan)
	}
	got := runMatrixRow(t, a, ai, row, inj)
	diffDigests(t, "ended", ref.ended, got.ended)
	for i, m := range got.mutated {
		diffDigests(t, fmt.Sprintf("mutated %d", i), ref.mutated[0], m)
	}
	if inj == nil && (ref.stats.Batched == 0) != (got.stats.Batched == 0) {
		t.Errorf("only one run used the queue: reference Batched=%d, this row %d", ref.stats.Batched, got.stats.Batched)
	}
	if inj != nil && inj.Injected() == 0 {
		t.Errorf("the %s plan injected nothing in %d calls", row.plan, inj.Ops())
	}
}

// runMatrixRow runs app a, the ai-th app, along row's axes with inj's
// faults on the proxy connection.
func runMatrixRow(t *testing.T, a apps.App, ai int, row matrixRow, inj *ipc.FaultInjector) matrixRun {
	t.Helper()
	opts := Options{AutoFailover: inj != nil, Fault: inj, Incremental: row.ckpt == "incr" || row.ckpt == "spec"}
	if row.transport == "framed" {
		opts.Transport = proxy.TransportPipe
	}
	_, c := attach(t, newNodeNV("pc0"), opts)
	if row.depth == "unbatched" {
		c.queueDepth = 1 // every command in a frame of its own
	}
	if _, err := a.Run(&apps.Env{API: c, DeviceMask: ocl.DeviceTypeGPU, Scale: 0.2}); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	run := matrixRun{stats: c.Proxy().Client.Stats(), ended: memDigests(t, c)}
	if row.ckpt == "" {
		mutate(t, c)
		run.mutated = append(run.mutated, memDigests(t, c))
		return run
	}
	disk := hw.TableISpec().LocalDisk
	var st *store.Fleet
	var nodes map[string]*proc.NodeState
	var err error
	downs := [][]string{nil}
	switch row.store {
	case "disk":
		st = store.New(proc.NewFS("ckpt-disk", disk), fineChunks)
	case "mirror":
		// The mirror absorbs every fault of its primary's plan (verified
		// writes, retries, healing from the replica), so no checkpoint fails.
		dinj := proc.NewFaultInjector(proc.DiskFaultPlan{Seed: 2027, EveryN: 8})
		defer func() {
			if dinj.Injected() == 0 {
				t.Errorf("the disk plan injected nothing in %d operations", dinj.Ops())
			}
		}()
		faulty := proc.NewFS("ckpt-disk", disk, proc.WithFault(dinj))
		if st, err = store.NewMirror(faulty, proc.NewFS("replica-disk", disk), fineChunks); err != nil {
			t.Fatal(err)
		}
	case "fleet":
		st, nodes = newTestFleet(t)
		if downs = lossSubsets(st.Nodes()); ai > 0 {
			downs = [][]string{downs[ai%len(downs)], downs[(ai*7+3)%len(downs)]}
		}
	}
	ckpt := func() CheckpointStats {
		stats, err := c.CheckpointToStore(st, a.Name)
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if stats.FSName != st.Name() {
			t.Fatalf("checkpoint recorded destination %q, want %q", stats.FSName, st.Name())
		}
		return stats
	}
	if opts.Incremental {
		ckpt() // generation 1: everything dirty
		if row.ckpt == "spec" {
			// The epoch opens before the mutation, which lands mid-epoch and
			// must violate the in-flight speculative copy. A proxy fault may
			// abort the begin; the checkpoint then stop-drains.
			c.BeginCheckpointEpoch() //nolint:errcheck // an abort is the contract under test
		}
	}
	mutate(t, c)
	if last := ckpt(); opts.Incremental && len(ordered(c.db.mems)) > 1 && last.CleanBuffers == 0 {
		t.Errorf("generation 2 re-staged every buffer; incremental tracking proved nothing")
	}
	c.App().Kill()

	for i, down := range downs {
		for name, ns := range nodes {
			ns.SetDown(slices.Contains(down, name))
		}
		rc, rst, err := RestoreFromStore(newNodeNV(fmt.Sprintf("tgt-%d", i)), st, a.Name, Options{})
		if err != nil || rst.Degraded != nil {
			t.Fatalf("restore with %v down: %v (fell back a generation: %v)", down, err, rst.Degraded)
		}
		run.mutated = append(run.mutated, memDigests(t, rc))
		rc.App().Kill()
		rc.Detach()
	}
	return run
}

// mutate overwrites the app's first buffer with a fixed pattern, so that
// an incremental checkpoint has exactly one buffer to re-stage.
func mutate(t *testing.T, c *CheCL) {
	t.Helper()
	mems := ordered(c.db.mems)
	if len(mems) == 0 {
		return
	}
	m := mems[0]
	q := c.anyQueueFor(m.Ctx)
	if q == nil {
		return
	}
	junk := make([]byte, m.Size)
	for i := range junk {
		junk[i] = byte(i*11 + 5)
	}
	if _, err := c.EnqueueWriteBuffer(ocl.CommandQueue(q.H), ocl.Mem(m.H), true, 0, junk, nil); err != nil {
		t.Fatal(err)
	}
}

// memDigests reads back every live buffer (injection suspended) and hashes
// its contents, keyed by the stable CheCL handle.
func memDigests(t *testing.T, c *CheCL) map[Handle]string {
	t.Helper()
	// The reads below go straight to the proxy client, bypassing the batch
	// queue — flush any deferred enqueues first so they are visible.
	if err := c.Drain(); err != nil {
		t.Fatalf("draining batch before digest: %v", err)
	}
	if c.opts.Fault != nil {
		c.opts.Fault.Suspend()
		defer c.opts.Fault.Resume()
	}
	out := map[Handle]string{}
	for _, m := range ordered(c.db.mems) {
		q := c.anyQueueFor(m.Ctx)
		if q == nil {
			out[m.H] = fmt.Sprintf("unreadable:%d", m.Size)
			continue
		}
		data, _, err := c.px.Client.EnqueueReadBuffer(q.real, m.real, true, 0, m.Size, nil)
		if err != nil {
			t.Fatalf("reading back %v: %v", m.H, err)
		}
		sum := sha256.Sum256(data)
		out[m.H] = hex.EncodeToString(sum[:8])
	}
	return out
}

// diffDigests fails t unless got holds exactly want's buffers and digests.
func diffDigests(t *testing.T, arm string, want, got map[Handle]string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: buffers diverged:\nwant %v\n got %v", arm, want, got)
	}
}

// newTestFleet builds a 6-node 4+2 erasure-coded checkpoint fleet with
// per-node states attached so the tests can take nodes down.
func newTestFleet(t *testing.T) (*store.Fleet, map[string]*proc.NodeState) {
	t.Helper()
	var nodes []store.FleetNode
	states := map[string]*proc.NodeState{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("ck-%02d", i)
		fs := proc.NewFS(name, hw.TableISpec().LocalDisk)
		states[name] = proc.NewNodeState(name)
		fs.SetNodeState(states[name])
		nodes = append(nodes, store.FleetNode{Name: name, FS: fs})
	}
	fl, err := store.NewFleet(nodes, store.FleetConfig{Store: fineChunks})
	if err != nil {
		t.Fatal(err)
	}
	return fl, states
}

// lossSubsets enumerates every subset of one or two of the node names.
func lossSubsets(names []string) [][]string {
	var singles, pairs [][]string
	for i, a := range names {
		singles = append(singles, []string{a})
		for _, b := range names[i+1:] {
			pairs = append(pairs, []string{a, b})
		}
	}
	return append(singles, pairs...)
}
