package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"

	"checl/internal/apps"
	"checl/internal/core"
	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/store"
	"checl/internal/vtime"
)

// storeFleetCmd demonstrates the erasure-coded checkpoint fleet: the demo
// app checkpoints twice into a 6-node 4+2 fleet (the second generation
// deduplicates against the first), -node-faults N injects a node-level
// fault every N fleet operations (pack and manifest I/Os) while it fills,
// and the report walks the operational story — a scrub and the per-node
// occupancy it verified (packs, and the shard records inside them), a
// degraded read with m nodes down verified bit-identical, a node
// replacement brought back to full redundancy by Scrub, and the
// cumulative self-heal ledger.
func storeFleetCmd(appName string, scale float64, nodeFaults int) {
	app, ok := apps.ByName(appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "checl-inspect: unknown app %q\n", appName)
		os.Exit(2)
	}
	node := proc.NewNode("pc0", hw.TableISpec(), ocl.NVIDIA())
	p := node.Spawn(app.Name)
	c, err := core.Attach(p, core.Options{Incremental: true})
	if err != nil {
		fatal(err)
	}
	defer c.Detach()
	env := &apps.Env{API: c, DeviceMask: ocl.DeviceTypeGPU, Scale: scale}
	if _, err := app.Run(env); err != nil {
		fatal(err)
	}

	nodes := make([]store.FleetNode, 6)
	states := make([]*proc.NodeState, 6)
	for i := range nodes {
		name := fmt.Sprintf("ckpt-%02d", i)
		fs := proc.NewFS(name, hw.TableISpec().LocalDisk)
		states[i] = proc.NewNodeState(name)
		fs.SetNodeState(states[i])
		nodes[i] = store.FleetNode{Name: name, FS: fs}
	}
	fl, err := store.NewFleet(nodes, store.FleetConfig{})
	if err != nil {
		fatal(err)
	}
	var inj *proc.NodeFaultInjector
	if nodeFaults > 0 {
		inj = proc.NewNodeFaultInjector(proc.NodeFaultPlan{
			Seed: 2026, EveryN: nodeFaults, ReviveAfter: 50,
			MaxDown: fl.Config().ParityShards,
		})
		fl.AttachFaults(inj)
	}

	var ckpt core.CheckpointStats
	for i := 0; i < 2; i++ {
		var perr error
		for attempt := 0; attempt < 5; attempt++ {
			if ckpt, perr = c.CheckpointToStore(fl, app.Name); perr == nil {
				break
			}
			// A finding about a manifest whose only copies are on a down
			// node is not worth stopping for; a quarantine is.
			rep, rerr := fl.Scrub(vtime.NewClock())
			if rerr != nil {
				fatal(rerr)
			}
			if len(rep.Quarantined) > 0 {
				fatal(fmt.Errorf("scrub between attempts quarantined %v", rep.Quarantined))
			}
		}
		if perr != nil {
			fatal(perr)
		}
	}
	cfg := fl.Config()
	fmt.Printf("erasure-coded checkpoint fleet %q (app %s, 2 generations)\n", fl.Name(), app.Name)
	fmt.Printf("  coding:        %d data + %d parity shards per chunk, %.2fx storage overhead\n",
		cfg.DataShards, cfg.ParityShards, float64(cfg.DataShards+cfg.ParityShards)/float64(cfg.DataShards))
	if put := ckpt.StorePut; put != nil {
		fmt.Printf("  generation 2:  %d chunks, %d new (%.3f MB new data) — dedup against generation 1\n",
			put.TotalChunks, put.NewChunks, float64(put.NewBytes)/1e6)
	}
	if inj != nil {
		fmt.Printf("  node faults:   %d injected over %d fleet ops (seed 2026, every %d); down now: %v\n",
			inj.Injected(), inj.Ops(), nodeFaults, inj.Down())
	}

	// Scrub verifies every record on every node that is up (and repairs
	// what the faults broke); its per-node progress is the record count.
	scrub, err := fl.Scrub(vtime.NewClock())
	if err != nil {
		fatal(err)
	}
	printScrub(fl, nodes, scrub)

	// Degraded read: any m nodes down, the checkpoint must still restore.
	// Each Get returns a payload of its own, which the caller owns: the two
	// are compared, never written.
	clock := vtime.NewClock()
	healthy, _, err := fl.Get(clock, app.Name)
	if err != nil {
		fatal(err)
	}
	for i := 0; i < cfg.ParityShards; i++ {
		states[i].SetDown(true)
	}
	sw := vtime.NewStopwatch(clock)
	degraded, man, err := fl.Get(clock, app.Name)
	if err != nil {
		fatal(fmt.Errorf("degraded read with %d nodes down: %w", cfg.ParityShards, err))
	}
	if !bytes.Equal(degraded, healthy) {
		fatal(fmt.Errorf("degraded read of %s is not bit-identical", man.ID()))
	}
	fmt.Printf("  degraded read: %s with %d nodes down: bit-identical, %s\n",
		man.ID(), cfg.ParityShards, sw.Elapsed())
	for i := 0; i < cfg.ParityShards; i++ {
		states[i].SetDown(false)
	}

	// Replace a node with an empty one and rebuild it.
	victim := fl.Nodes()[0]
	freshFS := proc.NewFS(victim, hw.TableISpec().LocalDisk)
	freshNS := proc.NewNodeState(victim)
	freshFS.SetNodeState(freshNS)
	if err := fl.ReplaceNode(victim, freshFS); err != nil {
		fatal(err)
	}
	if inj != nil {
		inj.Register(victim, freshFS)
	}
	sw = vtime.NewStopwatch(clock)
	rst, err := fl.Scrub(clock)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  rebuild:       replaced %s; %d shards re-coded (%.3f MB) across %d chunks in %s (%d paced batches)\n",
		victim, rst.ShardsRebuilt, float64(rst.BytesRebuilt)/1e6, rst.ChunksChecked, sw.Elapsed(), rst.Batches)

	printHeals(fl)

	jobs := fl.Jobs()
	sort.Strings(jobs)
	fmt.Printf("  jobs:          %v\n", jobs)
}

// printScrub reports one scrub pass and the per-node occupancy it verified:
// packs, the shard records inside them, and bytes. nodes are the store's
// members and the filesystems behind them.
func printScrub(fl *store.Fleet, nodes []store.FleetNode, scrub store.FleetScrubReport) {
	fmt.Printf("  scrub:         %d chunks checked, %d shards re-coded, %d findings\n",
		scrub.ChunksChecked, scrub.ShardsRebuilt, len(scrub.Findings))
	fmt.Println("  per-node occupancy:")
	prefix := store.Dir + "/"
	total := int64(0)
	for _, n := range nodes {
		packs, stored := 0, int64(0)
		for _, path := range n.FS.List() {
			if !strings.HasPrefix(path, prefix) {
				continue
			}
			if strings.HasPrefix(path, prefix+"packs/") {
				packs++
			}
			size, _ := n.FS.Size(path)
			stored += size
		}
		records := fmt.Sprintf("%6d records", scrub.PerNode[n.Name].ShardsChecked)
		if scrub.PerNode[n.Name].Down {
			records = "   (down)     "
		}
		fmt.Printf("    %-9s %4d packs  %s  %8.3f MB\n", n.Name, packs, records, float64(stored)/1e6)
		total += stored
	}
	fmt.Printf("    %-9s %28s %8.3f MB\n", "total", "", float64(total)/1e6)
}

// printHeals reports the store's cumulative self-heal ledger.
func printHeals(fl *store.Fleet) {
	heals := fl.Heals()
	fmt.Printf("  heal ledger:   %d shards (%.3f MB) re-coded, %d manifest copies re-published\n",
		heals.ShardsHealed, float64(heals.ShardBytesHealed)/1e6, heals.ManifestsHealed)
}
