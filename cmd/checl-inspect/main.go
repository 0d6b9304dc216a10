// checl-inspect creates a demonstration checkpoint and prints what a
// CheCL checkpoint file contains: the process memory image regions and
// the object database (per-class object counts, buffer sizes, program
// sources, recorded kernel arguments). It is the debugging view a CheCL
// operator would use to understand a snapshot.
//
// Usage:
//
//	checl-inspect [-app name] [-scale f]             inspect a flat checkpoint file
//	checl-inspect [-faults N] ...                    crash the proxy every N calls while the
//	                                                 app runs; print fault-tolerance counters
//	checl-inspect [flags] store ls                   list a demo store's manifests and chunks
//	checl-inspect [flags] store fsck                 verify every chunk and manifest
//	checl-inspect [flags] store scrub                repair the store from its mirror
//	checl-inspect [-disk-faults N] store ...         inject a disk fault every N filesystem
//	                                                 operations while the store fills
//	checl-inspect [flags] store fleet                checkpoint into a 6-node 4+2 erasure-coded
//	                                                 fleet; show placement, a degraded read with
//	                                                 m nodes down, and a node-replacement rebuild
//	                                                 (-node-faults N injects node-level faults)
//	checl-inspect [flags] fleet                      run a bursty fleet-scheduler scenario and
//	                                                 render utilization, queueing, migrations,
//	                                                 evictions and the latency histogram
//	checl-inspect [flags] mpi                        kill one rank of an MPI job mid-epoch and
//	                                                 partial-restart it from its segment of the
//	                                                 committed generation; print the per-rank
//	                                                 log/replay/stall accounting
//
// The store subcommands checkpoint the demo app twice into a
// content-addressed store on a disk with a mirror (1+1), so `ls` shows
// dedup at work, `fsck` walks a non-trivial chunk set, and `scrub` under
// -disk-faults repairs what the faults left behind. fsck and scrub exit
// non-zero when findings remain, so CI can gate on them.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"checl/internal/apps"
	"checl/internal/core"
	"checl/internal/cpr"
	"checl/internal/hw"
	"checl/internal/ipc"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/proxy"
	"checl/internal/store"
	"checl/internal/vtime"
)

func main() {
	appName := flag.String("app", "oclMatrixMul", "application to checkpoint and inspect")
	scale := flag.Float64("scale", 0.5, "problem-size multiplier")
	transport := flag.String("transport", "ring",
		"app<->proxy transport: \"ring\" (shared-memory ring) or \"framed\" (length-prefixed stream)")
	faults := flag.Int("faults", 0, "crash the API proxy every N calls (0 disables fault injection)")
	diskFaults := flag.Int("disk-faults", 0, "inject a disk fault every N store filesystem operations (0 disables)")
	nodeFaults := flag.Int("node-faults", 0, "store fleet: inject a node fault (crash/slow/rot/torn write) every N fleet operations (0 disables)")
	incremental := flag.Bool("incremental", false,
		"attach with incremental checkpointing and show the per-generation dirty/clean split")
	speculative := flag.Bool("speculative", false,
		"open a speculative (stop-free) checkpoint epoch before each checkpoint and show the per-generation STALL split")
	fleetJobs := flag.Int("fleet-jobs", 400, "fleet: number of jobs in the bursty workload")
	fleetSeed := flag.Int64("fleet-seed", 42, "fleet: traffic seed")
	fleetGPUs := flag.Int("fleet-gpus", 4, "fleet: GPU nodes in the inventory")
	fleetCPUs := flag.Int("fleet-cpus", 2, "fleet: CPU-only nodes in the inventory")
	fleetSample := flag.Int("fleet-sample", 0, "fleet: run every Nth job through the real core+store checkpoint path (0 disables)")
	fleetNoMig := flag.Bool("fleet-no-migration", false, "fleet: disable rebalancing migrations")
	fleetNoPre := flag.Bool("fleet-no-preemption", false, "fleet: disable checkpoint-evict preemption")
	mpiRanks := flag.Int("mpi-ranks", 4, "mpi: world size (one rank per node)")
	mpiEpochs := flag.Int("mpi-epochs", 3, "mpi: compute/checkpoint epochs")
	mpiKillRank := flag.Int("mpi-kill-rank", 2, "mpi: rank to kill (-1 picks a seeded victim)")
	mpiKillOp := flag.Int("mpi-kill-op", 10, "mpi: kill the victim at its Nth MPI operation")
	flag.Parse()

	if args := flag.Args(); len(args) > 0 {
		if args[0] == "fleet" && len(args) == 1 {
			fleetCmd(*fleetJobs, *fleetSeed, *fleetGPUs, *fleetCPUs, *fleetSample, !*fleetNoMig, !*fleetNoPre)
			return
		}
		if args[0] == "mpi" && len(args) == 1 {
			mpiCmd(*mpiRanks, *mpiEpochs, *mpiKillRank, *mpiKillOp)
			return
		}
		if args[0] != "store" || len(args) != 2 ||
			(args[1] != "ls" && args[1] != "fsck" && args[1] != "scrub" && args[1] != "fleet") {
			fmt.Fprintf(os.Stderr, "checl-inspect: unknown command %q (want \"store ls\", \"store fsck\", \"store scrub\", \"store fleet\", \"fleet\" or \"mpi\")\n", args)
			os.Exit(2)
		}
		if args[1] == "fleet" {
			storeFleetCmd(*appName, *scale, *nodeFaults)
			return
		}
		storeCmd(*appName, *scale, args[1], *diskFaults)
		return
	}

	app, ok := apps.ByName(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "checl-inspect: unknown app %q\n", *appName)
		os.Exit(2)
	}

	node := proc.NewNode("pc0", hw.TableISpec(), ocl.NVIDIA())
	p := node.Spawn(app.Name)
	opts := core.Options{Incremental: *incremental}
	switch *transport {
	case "ring":
		// The default transport; opts.Transport zero value.
	case "framed":
		opts.Transport = proxy.TransportPipe
	default:
		fmt.Fprintf(os.Stderr, "checl-inspect: unknown transport %q (want \"ring\" or \"framed\")\n", *transport)
		os.Exit(2)
	}
	var inj *ipc.FaultInjector
	if *faults > 0 {
		// Seeded kill-every-N mix: connection kills at every frame position
		// plus full proxy crashes. AutoFailover, with the shadow copies it
		// keeps, makes the run indistinguishable from a fault-free one,
		// minus the recovery time.
		inj = ipc.NewFaultInjector(ipc.FaultPlan{
			Seed:      2026,
			EveryN:    *faults,
			SkipFirst: 4,
			Kinds: []ipc.FaultKind{
				ipc.FaultKillBeforeRequest,
				ipc.FaultKillMidRequest,
				ipc.FaultKillBeforeResponse,
				ipc.FaultKillBetween,
				ipc.FaultKillMidResponse,
				ipc.FaultCrashServer,
			},
		})
		opts.AutoFailover = true
		opts.Fault = inj
	}
	c, err := core.Attach(p, opts)
	if err != nil {
		fatal(err)
	}
	defer c.Detach()
	env := &apps.Env{API: c, DeviceMask: ocl.DeviceTypeGPU, Scale: *scale}
	if _, err := app.Run(env); err != nil {
		fatal(err)
	}
	runStats := c.Proxy().Client.Stats()
	if inj != nil {
		fs := c.FailoverStats()
		cs := c.Proxy().Client.Stats()
		fmt.Printf("fault injection (kill/crash every %d calls, seed 2026):\n", *faults)
		fmt.Printf("  injected:      %d faults over %d proxied calls\n", inj.Injected(), inj.Ops())
		fmt.Printf("  retries:       %d call retries, %d reconnects (current proxy)\n", cs.Retries, cs.Reconnects)
		fmt.Printf("  dedupe:        %d responses replayed from the seq cache\n", c.Proxy().Replayed())
		fmt.Printf("  failovers:     %d proxy respawns, %d calls replayed to rebind\n", fs.Failovers, fs.ReplayedCalls)
		fmt.Printf("  recovery:      last %s, total %s\n\n", fs.LastRecovery, fs.TotalRecovery)
	}
	if *speculative {
		// The epoch would normally open at a checkpoint signal; the
		// inspector opens it explicitly so the drain below is overlapped.
		if err := c.BeginCheckpointEpoch(); err != nil {
			fatal(err)
		}
	}
	st, err := c.Checkpoint(node.LocalDisk, app.Name+".ckpt")
	if err != nil {
		fatal(err)
	}
	printTransport(*transport, runStats, c.Proxy().Client.Stats())

	fmt.Printf("checkpoint %s (%s mode, %s filesystem)\n", st.Path, c.Options().Mode, st.FSName)
	fmt.Printf("  file size:     %.3f MB\n", float64(st.FileSize)/1e6)
	fmt.Printf("  staged:        %d buffers, %.3f MB device data\n",
		st.DirtyBuffers, float64(st.DirtyBytes)/1e6)
	printDrain(st)
	fmt.Printf("  phases:        sync %s | preprocess %s | write %s | postprocess %s\n",
		st.Phases.Sync, st.Phases.Preprocess, st.Phases.Write, st.Phases.Postprocess)

	if *incremental {
		// A second generation of the idle application: every buffer is
		// clean, so the drain copies nothing and the store/file payload is
		// all parent reuse.
		if *speculative {
			if err := c.BeginCheckpointEpoch(); err != nil {
				fatal(err)
			}
		}
		st2, err := c.Checkpoint(node.LocalDisk, app.Name+".ckpt")
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nincremental generation 2 (application idle since generation 1):")
		printDrain(st2)
		fmt.Printf("  phases:        sync %s | preprocess %s | write %s | postprocess %s\n",
			st2.Phases.Sync, st2.Phases.Preprocess, st2.Phases.Write, st2.Phases.Postprocess)
		labels := c.Stall().ByLabel()
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("  stall split:  ")
		for _, k := range keys {
			fmt.Printf(" %s=%s", k, labels[k])
		}
		fmt.Printf(" (total %s over %d events)\n", c.Stall().Total(), c.Stall().Events())
	}

	img, err := cpr.ReadImage(vtime.NewClock(), node.LocalDisk, st.Path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nprocess image of %q:\n", img.ProcessName)
	names := make([]string, 0, len(img.Regions))
	for name := range img.Regions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  region %-12s %10d bytes\n", name, len(img.Regions[name]))
	}

	fmt.Println("\nobject database (live CheCL objects per class, restore order):")
	counts := c.ObjectCounts()
	for _, class := range core.RestoreOrder {
		fmt.Printf("  %-10s %d\n", class, counts[class])
	}

	fmt.Println("\nwhat a restart will do:")
	fmt.Println("  1. restore the host image with the conventional CPR backend")
	fmt.Println("  2. fork a fresh API proxy (new OpenCL handle generation)")
	fmt.Println("  3. recreate objects in the order above; re-upload buffer data;")
	fmt.Println("     recompile programs; replay clSetKernelArg; mint dummy events")
}

// storeCmd builds a demonstration store with two checkpoints of the app
// (the second deduplicates against the first) and runs the ls, fsck or
// scrub view over it. The store lives on its own disk with a mirror (1+1);
// -disk-faults N makes that disk fail every Nth operation, so the
// checkpoints only land because of write verification and retries, and
// scrub repairs what those left behind.
func storeCmd(appName string, scale float64, sub string, diskFaults int) {
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

	var inj *proc.FaultInjector
	ckptDisk := node.LocalDisk
	if diskFaults > 0 {
		inj = proc.NewFaultInjector(proc.DiskFaultPlan{
			Seed:   2026,
			EveryN: diskFaults,
			Kinds: []proc.DiskFaultKind{
				proc.DiskFaultTornWrite,
				proc.DiskFaultLostWrite,
				proc.DiskFaultBitRot,
				proc.DiskFaultEIO,
			},
		})
		ckptDisk = proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk, proc.WithFault(inj))
	}
	mirror := proc.NewFS("replica-disk", hw.TableISpec().LocalDisk)
	st, err := store.NewMirror(ckptDisk, mirror, store.Config{})
	if err != nil {
		fatal(err)
	}
	for i := 0; i < 2; i++ {
		// A failed Put is a simulated crash; what it leaves behind is
		// scrub's to collect, and the checkpoint is simply taken again.
		var perr error
		for attempt := 0; attempt < 5; attempt++ {
			if _, perr = c.CheckpointToStore(st, app.Name); perr == nil {
				break
			}
		}
		if perr != nil {
			fatal(perr)
		}
	}
	if inj != nil {
		fmt.Printf("disk faults: injected %d over %d operations (seed 2026, every %d)\n",
			inj.Injected(), inj.Ops(), diskFaults)
	}

	switch sub {
	case "ls":
		storeLs(st)
	case "fsck":
		storeFsck(node, st)
	case "scrub":
		storeScrub(node, st, []store.FleetNode{{Name: ckptDisk.Name(), FS: ckptDisk}, {Name: mirror.Name(), FS: mirror}})
	}
}

// printTransport renders the per-phase proxy traffic on the selected
// transport: round trips, the commands that shared them inside batch
// frames, and the wire/modelled bytes.
// The checkpoint row is the delta the checkpoint itself added on top of
// the application run (zeroed if a failover swapped the proxy between
// the samples, since client stats are per-connection-generation).
func printTransport(name string, run, after proxy.Stats) {
	row := func(phase string, s proxy.Stats) {
		fmt.Printf("  %-11s %-8s %12d %8d %10.3f MB\n",
			phase, name, s.Calls, s.Batched, float64(s.Bytes)/1e6)
	}
	ckpt := proxy.Stats{
		Calls:   after.Calls - run.Calls,
		Batched: after.Batched - run.Batched,
		Bytes:   after.Bytes - run.Bytes,
	}
	if ckpt.Calls < 0 || ckpt.Bytes < 0 {
		ckpt = proxy.Stats{}
	}
	fmt.Printf("proxy traffic by phase:\n")
	fmt.Printf("  %-11s %-8s %12s %8s %13s\n",
		"PHASE", "TRANSPORT", "ROUNDTRIPS", "QUEUED", "BYTES")
	row("run", run)
	row("checkpoint", ckpt)
	fmt.Println()
}

// printDrain summarises a checkpoint's dirty/clean buffer split: what the
// preprocess phase actually copied off the device versus what rode on the
// parent generation's chunks.
func printDrain(st core.CheckpointStats) {
	fmt.Printf("  drained:       %d dirty (%.3f MB copied), %d clean reused (%.3f MB), %d released skipped\n",
		st.DirtyBuffers, float64(st.DirtyBytes)/1e6,
		st.CleanBuffers, float64(st.CleanBytes)/1e6,
		st.SkippedReleased)
	if st.Speculative {
		fmt.Printf("  STALL:         %s app-visible | speculated %d (%.3f MB), violated %d, recopied %.3f MB, overlap %s\n",
			st.StallTime, st.SpeculatedBuffers, float64(st.SpeculatedBytes)/1e6,
			st.ViolatedBuffers, float64(st.RecopiedBytes)/1e6, st.Overlap)
	} else {
		fmt.Printf("  STALL:         %s app-visible (stop-drain)\n", st.StallTime)
	}
	if st.EpochAborted != "" {
		fmt.Printf("  epoch aborted: %s\n", st.EpochAborted)
	}
}

func storeLs(st *store.Fleet) {
	mans, issues := st.Manifests()
	fmt.Printf("checkpoint store on %q: %d manifests, %d jobs, %.3f MB stored\n",
		st.Name(), len(mans), len(st.Jobs()), float64(st.TotalStoredBytes())/1e6)
	for _, iss := range issues {
		fmt.Printf("  UNREADABLE %s: %v\n", iss.ID(), iss.Err)
	}
	byID := make(map[string]store.Manifest, len(mans))
	for _, m := range mans {
		byID[m.ID()] = m
	}
	fmt.Printf("  %-20s %-20s %8s %12s %12s\n", "MANIFEST", "PARENT", "CHUNKS", "SIZE", "DELTA")
	for _, m := range mans {
		parent := m.Parent
		var pm *store.Manifest
		if p, ok := byID[m.Parent]; ok {
			pm = &p
		}
		if parent == "" {
			parent = "-"
		}
		fmt.Printf("  %-20s %-20s %8d %12d %12d\n",
			m.ID(), parent, len(m.Chunks), m.Size, m.DeltaSize(pm))
	}
}

func storeFsck(node *proc.Node, st *store.Fleet) {
	rep, err := st.Fsck(node.Clock)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fsck: %d manifests, %d chunks checked, %d errors\n",
		rep.Manifests, rep.ChunksChecked, len(rep.Errors))
	for _, e := range rep.Errors {
		fmt.Printf("  ERROR %s\n", e)
	}
	if !rep.OK() {
		os.Exit(1)
	}
	fmt.Println("  store is consistent")
}

func storeScrub(node *proc.Node, st *store.Fleet, nodes []store.FleetNode) {
	rep, err := st.Scrub(node.Clock)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scrub of %q: %d manifests\n", st.Name(), rep.Manifests)
	printScrub(st, nodes, rep)
	printHeals(st)
	fmt.Printf("  quarantined:   %d manifests\n", len(rep.Quarantined))
	for _, f := range rep.Findings {
		fmt.Printf("  FINDING %s\n", f)
	}
	if !rep.OK() {
		os.Exit(1)
	}
	fmt.Println("  store is fully healed")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "checl-inspect: %v\n", err)
	os.Exit(1)
}
