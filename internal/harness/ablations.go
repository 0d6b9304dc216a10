package harness

import (
	"fmt"
	"io"
	"strings"

	"checl/internal/apps"
	"checl/internal/core"
	"checl/internal/hw"
	"checl/internal/ipc"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/store"
	"checl/internal/vtime"
)

// Ablations of the design decisions listed in DESIGN.md §5, runnable from
// cmd/checl-bench ("ablations") and mirrored by the root benchmarks.

// AblationVariant is one measured arm of an ablation.
type AblationVariant struct {
	Name   string
	Metric string
	Value  vtime.Duration
}

// AblationResult is one complete ablation.
type AblationResult struct {
	Name     string
	Claim    string
	Variants []AblationVariant
}

// Ablations runs all eight ablations and returns their measurements.
func Ablations(scale float64) ([]AblationResult, error) {
	var out []AblationResult

	mode, err := ablationCheckpointMode()
	if err != nil {
		return nil, err
	}
	out = append(out, mode)

	destr, err := ablationDestructive(scale)
	if err != nil {
		return nil, err
	}
	out = append(out, destr)

	inc, err := ablationIncremental(scale)
	if err != nil {
		return nil, err
	}
	out = append(out, inc)

	storage, err := ablationStorage(scale)
	if err != nil {
		return nil, err
	}
	out = append(out, storage)

	cas, err := ablationStore(scale)
	if err != nil {
		return nil, err
	}
	out = append(out, cas)

	crash, err := ablationProxyCrash(scale)
	if err != nil {
		return nil, err
	}
	out = append(out, crash)

	disk, err := ablationDiskFaults(scale)
	if err != nil {
		return nil, err
	}
	out = append(out, disk)

	spec, err := ablationSpeculative(scale)
	if err != nil {
		return nil, err
	}
	out = append(out, spec)
	return out, nil
}

// runAppUnderCheCL attaches CheCL on a fresh NVIDIA node and runs appName.
func runAppUnderCheCL(appName string, scale float64, opts core.Options) (*proc.Node, *core.CheCL, error) {
	node := proc.NewNode("ablation", hw.TableISpec(), ocl.NVIDIA())
	p := node.Spawn(appName)
	c, err := core.Attach(p, opts)
	if err != nil {
		return nil, nil, err
	}
	app, ok := apps.ByName(appName)
	if !ok {
		c.Detach()
		return nil, nil, fmt.Errorf("harness: unknown app %q", appName)
	}
	env := &apps.Env{API: c, DeviceMask: ocl.DeviceTypeGPU, Scale: scale}
	if _, err := app.Run(env); err != nil {
		c.Detach()
		return nil, nil, err
	}
	return node, c, nil
}

// ablationCheckpointMode: immediate vs delayed with a 16 MB transfer in
// flight when the signal arrives (§III-C).
func ablationCheckpointMode() (AblationResult, error) {
	res := AblationResult{
		Name:  "checkpoint-mode",
		Claim: "delayed mode avoids the forced synchronisation of in-flight commands",
	}
	for _, mode := range []core.Mode{core.Immediate, core.Delayed} {
		node := proc.NewNode("ablation", hw.TableISpec(), ocl.NVIDIA())
		p := node.Spawn("async-writer")
		c, err := core.Attach(p, core.Options{
			Mode: mode, CkptFS: node.RAMDisk, CkptPath: "mode.ckpt",
		})
		if err != nil {
			return res, err
		}
		plats, _ := c.GetPlatformIDs()
		devs, _ := c.GetDeviceIDs(plats[0], ocl.DeviceTypeGPU)
		ctx, _ := c.CreateContext(devs)
		q, _ := c.CreateCommandQueue(ctx, devs[0], 0)
		m, err := c.CreateBuffer(ctx, ocl.MemReadWrite, 16<<20, nil)
		if err != nil {
			c.Detach()
			return res, err
		}
		if _, err := c.EnqueueWriteBuffer(q, m, false, 0, make([]byte, 16<<20), nil); err != nil {
			c.Detach()
			return res, err
		}
		p.Signal(proc.SIGUSR1)
		if _, err := c.GetDeviceInfo(devs[0]); err != nil {
			c.Detach()
			return res, err
		}
		if err := c.Finish(q); err != nil {
			c.Detach()
			return res, err
		}
		st := c.LastCheckpoint()
		if st == nil {
			c.Detach()
			return res, fmt.Errorf("harness: %s-mode checkpoint did not fire", mode)
		}
		res.Variants = append(res.Variants, AblationVariant{
			Name: mode.String(), Metric: "sync phase", Value: st.Phases.Sync,
		})
		c.Detach()
	}
	return res, nil
}

// ablationDestructive: API-proxy (keep objects) vs CheCUDA-style
// delete-and-recreate (§IV-B).
func ablationDestructive(scale float64) (AblationResult, error) {
	res := AblationResult{
		Name:  "destructive-checkpoint",
		Claim: "keeping OpenCL objects alive makes postprocessing negligible (vs CheCUDA)",
	}
	for _, destructive := range []bool{false, true} {
		name := "api-proxy"
		if destructive {
			name = "checuda-destructive"
		}
		node, c, err := runAppUnderCheCL("oclMatrixMul", scale, core.Options{Destructive: destructive})
		if err != nil {
			return res, err
		}
		st, err := c.Checkpoint(node.LocalDisk, "d.ckpt")
		if err != nil {
			c.Detach()
			return res, err
		}
		res.Variants = append(res.Variants, AblationVariant{
			Name: name, Metric: "postprocess phase", Value: st.Phases.Postprocess,
		})
		c.Detach()
	}
	return res, nil
}

// ablationIncremental: full vs incremental object checkpointing (the
// §III-D future-work feature).
func ablationIncremental(scale float64) (AblationResult, error) {
	res := AblationResult{
		Name:  "incremental-checkpoint",
		Claim: "a second checkpoint with no intervening kernel stages nothing",
	}
	for _, inc := range []bool{false, true} {
		name := "full"
		if inc {
			name = "incremental"
		}
		node, c, err := runAppUnderCheCL("oclVectorAdd", scale, core.Options{Incremental: inc})
		if err != nil {
			return res, err
		}
		if _, err := c.Checkpoint(node.LocalDisk, "i1.ckpt"); err != nil {
			c.Detach()
			return res, err
		}
		st, err := c.Checkpoint(node.LocalDisk, "i2.ckpt")
		if err != nil {
			c.Detach()
			return res, err
		}
		res.Variants = append(res.Variants, AblationVariant{
			Name: name, Metric: "2nd-checkpoint preprocess", Value: st.Phases.Preprocess,
		})
		c.Detach()
	}
	return res, nil
}

// ablationStorage: checkpoint target local disk vs NFS vs RAM disk
// (§IV-C: the RAM disk enables cheap runtime processor selection).
func ablationStorage(scale float64) (AblationResult, error) {
	res := AblationResult{
		Name:  "checkpoint-storage",
		Claim: "RAM-disk checkpoints are orders of magnitude cheaper than disk/NFS",
	}
	type target struct {
		name string
		fs   func(n *proc.Node) *proc.FS
	}
	targets := []target{
		{"local-disk", func(n *proc.Node) *proc.FS { return n.LocalDisk }},
		{"nfs", func(n *proc.Node) *proc.FS {
			if n.NFS == nil {
				n.NFS = proc.NewFS("nfs", n.Spec.NFS)
			}
			return n.NFS
		}},
		{"ramdisk", func(n *proc.Node) *proc.FS { return n.RAMDisk }},
	}
	for _, tgt := range targets {
		node, c, err := runAppUnderCheCL("oclFDTD3d", scale, core.Options{})
		if err != nil {
			return res, err
		}
		st, err := c.Checkpoint(tgt.fs(node), "s.ckpt")
		if err != nil {
			c.Detach()
			return res, err
		}
		res.Variants = append(res.Variants, AblationVariant{
			Name: tgt.name, Metric: "write phase", Value: st.Phases.Write,
		})
		c.Detach()
	}
	return res, nil
}

// ablationStore: flat NFS checkpoint files vs the content-addressed
// checkpoint store, on the phase the store changes — the 2nd checkpoint's
// write (dedup skips unchanged chunks) — plus restart read time from the
// NFS store vs a local-disk replica.
func ablationStore(scale float64) (AblationResult, error) {
	res := AblationResult{
		Name:  "checkpoint-store",
		Claim: "chunk dedup makes repeat checkpoints cheap; replicas make restarts local",
	}

	// Both arms run incremental so re-staging does not churn the object
	// database between otherwise-identical checkpoints; the store arm also
	// chunks finely so metadata edits dirty little data. The problem is
	// scaled up so image bandwidth dominates NFS's fixed per-op latency —
	// dedup saves bandwidth, not the manifest write's open/close cost.
	scale *= 8
	chunks := store.Config{MinChunk: 1 << 10, AvgChunk: 4 << 10, MaxChunk: 16 << 10}

	// Arm 1: flat files — the 2nd checkpoint rewrites the full image.
	node, c, err := runAppUnderCheCL("oclVectorAdd", scale, core.Options{Incremental: true})
	if err != nil {
		return res, err
	}
	nfs := proc.NewFS("nfs", node.Spec.NFS)
	if _, err := c.Checkpoint(nfs, "f1.ckpt"); err != nil {
		c.Detach()
		return res, err
	}
	st, err := c.Checkpoint(nfs, "f2.ckpt")
	if err != nil {
		c.Detach()
		return res, err
	}
	res.Variants = append(res.Variants, AblationVariant{
		Name: "flat-nfs", Metric: "2nd-checkpoint write", Value: st.Phases.Write,
	})
	c.Detach()

	// Arm 2: store — the 2nd checkpoint's chunks all deduplicate.
	node, c, err = runAppUnderCheCL("oclVectorAdd", scale, core.Options{Incremental: true})
	if err != nil {
		return res, err
	}
	defer c.Detach()
	nfsStore := store.New(proc.NewFS("nfs", node.Spec.NFS), chunks)
	if _, err := c.CheckpointToStore(nfsStore, "abl"); err != nil {
		return res, err
	}
	st, err = c.CheckpointToStore(nfsStore, "abl")
	if err != nil {
		return res, err
	}
	res.Variants = append(res.Variants, AblationVariant{
		Name: "store-nfs", Metric: "2nd-checkpoint write", Value: st.Phases.Write,
	})

	// Restart arms: read the checkpoint back from the NFS store vs from a
	// replica on the node's local disk.
	rc, rst, err := core.RestoreFromStore(node, nfsStore, "abl", core.Options{})
	if err != nil {
		return res, err
	}
	rc.Detach()
	res.Variants = append(res.Variants, AblationVariant{
		Name: "restore-nfs-store", Metric: "image read", Value: rst.ReadTime,
	})

	localStore := store.New(node.LocalDisk, chunks)
	if _, _, err := nfsStore.Replicate(node.Clock, "abl", localStore, node.Spec.Inter.NIC); err != nil {
		return res, err
	}
	rc, rst, err = core.RestoreFromStore(node, localStore, "abl", core.Options{})
	if err != nil {
		return res, err
	}
	rc.Detach()
	res.Variants = append(res.Variants, AblationVariant{
		Name: "restore-local-replica", Metric: "image read", Value: rst.ReadTime,
	})
	return res, nil
}

// ablationProxyCrash: the fault-tolerance arms. A fault-free run with no
// shadowing is the baseline; shadow-full shows the per-launch readback
// overhead that makes failover lossless; the crash arm runs the same app
// while a seeded plan crashes the proxy process every N calls, with
// AutoFailover absorbing each crash. The last variant isolates the pure
// recovery cost (respawn + rebind + re-upload) out of the crash arm.
func ablationProxyCrash(scale float64) (AblationResult, error) {
	res := AblationResult{
		Name:  "proxy-crash",
		Claim: "failover bounds a proxy crash to rebind + re-upload; shadow-full is the price of losing nothing",
	}
	run := func(opts core.Options) (vtime.Duration, core.FailoverStats, error) {
		node := proc.NewNode("ablation", hw.TableISpec(), ocl.NVIDIA())
		p := node.Spawn("oclMatrixMul")
		c, err := core.Attach(p, opts)
		if err != nil {
			return 0, core.FailoverStats{}, err
		}
		defer c.Detach()
		app, _ := apps.ByName("oclMatrixMul")
		sw := vtime.NewStopwatch(node.Clock)
		env := &apps.Env{API: c, DeviceMask: ocl.DeviceTypeGPU, Scale: scale}
		if _, err := app.Run(env); err != nil {
			return 0, core.FailoverStats{}, err
		}
		return sw.Elapsed(), c.FailoverStats(), nil
	}

	base, _, err := run(core.Options{})
	if err != nil {
		return res, err
	}
	res.Variants = append(res.Variants, AblationVariant{
		Name: "no-fault", Metric: "app runtime", Value: base,
	})

	shadowed, _, err := run(core.Options{Shadow: core.ShadowFull})
	if err != nil {
		return res, err
	}
	res.Variants = append(res.Variants, AblationVariant{
		Name: "shadow-full", Metric: "app runtime", Value: shadowed,
	})

	const everyN = 6
	inj := ipc.NewFaultInjector(ipc.FaultPlan{
		Seed:      2026,
		EveryN:    everyN,
		SkipFirst: 5,
		Kinds:     []ipc.FaultKind{ipc.FaultCrashServer},
	})
	crashed, fs, err := run(core.Options{
		AutoFailover: true,
		Shadow:       core.ShadowFull,
		Fault:        inj,
	})
	if err != nil {
		return res, err
	}
	if fs.Failovers == 0 {
		return res, fmt.Errorf("harness: proxy-crash arm absorbed no failovers")
	}
	res.Variants = append(res.Variants, AblationVariant{
		Name: fmt.Sprintf("crash-every-%d", everyN), Metric: "app runtime", Value: crashed,
	})
	res.Variants = append(res.Variants, AblationVariant{
		Name: fmt.Sprintf("recovery-x%d", fs.Failovers), Metric: "total rebind time", Value: fs.TotalRecovery,
	})
	return res, nil
}

// ablationDiskFaults: the checkpoint-durability arms. The baseline
// restores from a clean checkpoint disk; the faulty arm checkpoints and
// restores through a seeded every-5th-operation disk fault plan with a
// clean mirror (the restore must come back undegraded — the difference is
// the price of retries and healing reads); the scrub arm rots a batch of
// records at rest and measures one repair pass.
func ablationDiskFaults(scale float64) (AblationResult, error) {
	res := AblationResult{
		Name:  "disk-faults",
		Claim: "verified writes + mirror healing turn disk faults into latency, never data loss",
	}
	chunks := store.Config{MinChunk: 1 << 10, AvgChunk: 4 << 10, MaxChunk: 16 << 10}

	// Arm 1: clean disk baseline.
	node, c, err := runAppUnderCheCL("oclVectorAdd", scale, core.Options{})
	if err != nil {
		return res, err
	}
	cleanStore := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), chunks)
	if _, err := c.CheckpointToStore(cleanStore, "abl"); err != nil {
		c.Detach()
		return res, err
	}
	rc, rst, err := core.RestoreFromStore(node, cleanStore, "abl", core.Options{})
	if err != nil {
		c.Detach()
		return res, err
	}
	rc.Detach()
	c.Detach()
	res.Variants = append(res.Variants, AblationVariant{
		Name: "no-fault", Metric: "image read", Value: rst.ReadTime,
	})

	// Arm 2: the same flow through a disk faulting every 5th operation,
	// with a clean mirror absorbing what retries cannot.
	node, c, err = runAppUnderCheCL("oclVectorAdd", scale, core.Options{})
	if err != nil {
		return res, err
	}
	defer c.Detach()
	inj := proc.NewFaultInjector(proc.DiskFaultPlan{Seed: 2026, EveryN: 5})
	ckptDisk := proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk, proc.WithFault(inj))
	st, err := store.NewMirror(ckptDisk, proc.NewFS("replica-disk", hw.TableISpec().LocalDisk), chunks)
	if err != nil {
		return res, err
	}
	committed := false
	for attempt := 0; attempt < 5 && !committed; attempt++ {
		if _, err = c.CheckpointToStore(st, "abl"); err == nil {
			committed = true
		}
	}
	if !committed {
		return res, fmt.Errorf("harness: disk-fault checkpoint failed every attempt: %w", err)
	}
	rc, rst, err = core.RestoreFromStore(node, st, "abl", core.Options{})
	if err != nil {
		return res, err
	}
	rc.Detach()
	if rst.Degraded != nil {
		return res, fmt.Errorf("harness: disk-fault restore degraded despite the mirror: %v", rst.Degraded)
	}
	res.Variants = append(res.Variants, AblationVariant{
		Name: "faults-healed", Metric: "image read", Value: rst.ReadTime,
	})

	// Arm 3: rot a batch of the primary's records and measure one scrub
	// pass repairing them from the mirror. A record is at most a chunk and
	// its header long, so flips a stride apart land in different records.
	inj.Suspend()
	const stride = 17 << 10
	rotted := 0
	for _, p := range ckptDisk.List() {
		if !strings.Contains(p, "/packs/") {
			continue
		}
		size, _ := ckptDisk.Size(p)
		for off := int64(stride / 2); off < size && rotted < 16; off += stride {
			ckptDisk.FlipBit(p, uint64(off)*8)
			rotted++
		}
	}
	sw := vtime.NewStopwatch(node.Clock)
	rep, err := st.Scrub(node.Clock)
	if err != nil {
		return res, err
	}
	if !rep.OK() || rotted < 16 || rep.ShardsRebuilt < rotted {
		return res, fmt.Errorf("harness: scrub healed %d of %d rotted records, findings %v",
			rep.ShardsRebuilt, rotted, rep.Findings)
	}
	res.Variants = append(res.Variants, AblationVariant{
		Name: fmt.Sprintf("scrub-heal-x%d", rep.ShardsRebuilt), Metric: "scrub pass", Value: sw.Elapsed(),
	})
	return res, nil
}

// ablationSpeculative: stop-drain vs speculative stop-free checkpointing
// (DESIGN.md §9). Both arms checkpoint the app's working set to a store
// in delayed mode, so the write goes behind; they differ only in that the
// speculative arm begins the epoch first and lets the app keep running (a
// second pass of the same app) while the drain proceeds on speculation,
// so only the validation residue is application-visible.
func ablationSpeculative(scale float64) (AblationResult, error) {
	res := AblationResult{
		Name:  "speculative-checkpoint",
		Claim: "write-set speculation hides the drain behind continued execution",
	}
	for _, speculative := range []bool{false, true} {
		name := "stop-drain"
		if speculative {
			name = "speculative"
		}
		_, c, err := runAppUnderCheCL("oclVectorAdd", scale, core.Options{Mode: core.Delayed, Incremental: true})
		if err != nil {
			return res, err
		}
		st := store.New(proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk), store.Config{})
		if speculative {
			if err := c.BeginCheckpointEpoch(); err != nil {
				c.Detach()
				return res, err
			}
		}
		// The application keeps computing while the epoch drains.
		app, _ := apps.ByName("oclVectorAdd")
		env := &apps.Env{API: c, DeviceMask: ocl.DeviceTypeGPU, Scale: scale}
		if _, err := app.Run(env); err != nil {
			c.Detach()
			return res, err
		}
		cst, err := c.CheckpointToStore(st, "abl")
		if err != nil {
			c.Detach()
			return res, err
		}
		if err := c.WaitBackgroundWrite(); err != nil {
			c.Detach()
			return res, err
		}
		res.Variants = append(res.Variants, AblationVariant{
			Name: name, Metric: "app-visible stall", Value: cst.StallTime,
		})
		c.Detach()
	}
	return res, nil
}

// RenderAblations prints the ablation table.
func RenderAblations(w io.Writer, results []AblationResult) {
	fmt.Fprintln(w, "Design-decision ablations (DESIGN.md §5)")
	for _, r := range results {
		fmt.Fprintf(w, "  %s — %s\n", r.Name, r.Claim)
		for _, v := range r.Variants {
			fmt.Fprintf(w, "    %-22s %-26s %12s\n", v.Name, v.Metric, v.Value)
		}
	}
}
