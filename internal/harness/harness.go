// Package harness drives the paper's experiments end to end and returns
// typed rows for each table and figure of the evaluation section:
//
//	Table I — system specifications (hw.TableISpec)
//	Fig. 4  — CheCL runtime overhead vs native OpenCL, per benchmark
//	Fig. 5  — checkpoint-phase breakdown + checkpoint file size
//	Fig. 6  — MPI MD checkpoint time vs problem size and node count
//	Fig. 7  — restart-time breakdown by OpenCL object class
//	Fig. 8  — migration-cost prediction (Tm = α·M + Tr + β) vs measured
//
// cmd/checl-bench renders these rows as text tables; the root-level Go
// benchmarks wrap them with testing.B metrics.
package harness

import (
	"fmt"

	"checl/internal/apps"
	"checl/internal/core"
	"checl/internal/hw"
	"checl/internal/mpi"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/vtime"
)

// Config is one of the paper's three evaluation configurations.
type Config struct {
	Key        string // short id: nvidia-gpu, amd-gpu, amd-cpu
	Name       string // display name
	Vendor     func() *ocl.Vendor
	VendorName string
	Mask       ocl.DeviceTypeMask
	Prefer     hw.DeviceType
}

// Configs returns the three configurations of Figs. 4, 5, 7 and 8.
func Configs() []Config {
	return []Config{
		{
			Key: "nvidia-gpu", Name: "NVIDIA OpenCL / Tesla C1060",
			Vendor: ocl.NVIDIA, VendorName: "NVIDIA Corporation",
			Mask: ocl.DeviceTypeGPU, Prefer: hw.DeviceGPU,
		},
		{
			Key: "amd-gpu", Name: "AMD OpenCL / Radeon HD5870",
			Vendor: ocl.AMD, VendorName: "Advanced Micro Devices, Inc.",
			Mask: ocl.DeviceTypeGPU, Prefer: hw.DeviceGPU,
		},
		{
			Key: "amd-cpu", Name: "AMD OpenCL / Intel Core i7",
			Vendor: ocl.AMD, VendorName: "Advanced Micro Devices, Inc.",
			Mask: ocl.DeviceTypeCPU, Prefer: hw.DeviceCPU,
		},
	}
}

// ConfigByKey resolves a configuration by its short id.
func ConfigByKey(key string) (Config, bool) {
	for _, c := range Configs() {
		if c.Key == key {
			return c, true
		}
	}
	return Config{}, false
}

func (c Config) newNode(name string) *proc.Node {
	return proc.NewNode(name, hw.TableISpec(), c.Vendor())
}

// portableOn reports whether the app's widest work-group fits the
// configuration's first device.
func portableOn(cfg Config, app apps.App) bool {
	node := cfg.newNode("probe")
	rt := ocl.NewRuntime(node.Vendors[0], node.Spec, node.Clock)
	plats, _ := rt.GetPlatformIDs()
	devs, err := rt.GetDeviceIDs(plats[0], cfg.Mask)
	if err != nil || len(devs) == 0 {
		return false
	}
	info, err := rt.GetDeviceInfo(devs[0])
	if err != nil {
		return false
	}
	return app.WorkGroupX <= info.MaxWorkItemSizes[0]
}

// ---- Fig. 4: runtime overhead ----

// Fig4Row is one bar of Fig. 4.
type Fig4Row struct {
	App      string
	Suite    string
	Portable bool
	Native   vtime.Duration
	CheCL    vtime.Duration
	// Ratio is CheCL time normalised by native time (the figure's y-axis).
	Ratio float64
}

// Fig4Summary aggregates one configuration.
type Fig4Summary struct {
	Config          string
	AverageOverhead float64 // percent, over portable apps
	Apps            int
	// InitOverhead is the one-time proxy fork + library-load cost
	// (~0.08 s in the paper). The per-app ratios exclude it — our
	// simulated benchmark runs are shorter than the originals', so
	// folding a fixed 80 ms into every ratio would swamp the per-call
	// overheads Fig. 4 actually characterises; the paper itself notes
	// the init cost is "usually negligible in a practical long-running
	// application" (§IV-A).
	InitOverhead vtime.Duration
}

// Fig4 measures every benchmark's execution time with native OpenCL and
// with CheCL interposed (no checkpoint taken), on one configuration.
func Fig4(cfg Config, scale float64) ([]Fig4Row, Fig4Summary, error) {
	var rows []Fig4Row
	sum := Fig4Summary{Config: cfg.Name}
	var ratioSum float64
	for _, app := range apps.All() {
		row := Fig4Row{App: app.Name, Suite: app.Suite, Portable: portableOn(cfg, app)}
		if !row.Portable {
			rows = append(rows, row)
			continue
		}
		native, err := runNative(cfg, app, scale)
		if err != nil {
			return nil, sum, fmt.Errorf("fig4: %s native on %s: %w", app.Name, cfg.Key, err)
		}
		checl, init, err := runUnderCheCL(cfg, app, scale)
		if err != nil {
			return nil, sum, fmt.Errorf("fig4: %s under CheCL on %s: %w", app.Name, cfg.Key, err)
		}
		sum.InitOverhead = init
		row.Native = native
		row.CheCL = checl
		if native > 0 {
			row.Ratio = float64(checl) / float64(native)
		}
		ratioSum += row.Ratio
		sum.Apps++
		rows = append(rows, row)
	}
	if sum.Apps > 0 {
		sum.AverageOverhead = (ratioSum/float64(sum.Apps) - 1) * 100
	}
	return rows, sum, nil
}

func runNative(cfg Config, app apps.App, scale float64) (vtime.Duration, error) {
	node := cfg.newNode("native")
	p := node.Spawn(app.Name)
	rt := ocl.NewRuntime(node.Vendors[0], node.Spec, node.Clock)
	p.MapDevice() // the native app loads the vendor library itself
	env := &apps.Env{API: rt, DeviceMask: cfg.Mask, Scale: scale}
	sw := vtime.NewStopwatch(node.Clock)
	if _, err := app.Run(env); err != nil {
		return 0, err
	}
	return sw.Elapsed(), nil
}

func runUnderCheCL(cfg Config, app apps.App, scale float64) (run, init vtime.Duration, err error) {
	node := cfg.newNode("checl")
	p := node.Spawn(app.Name)
	initSW := vtime.NewStopwatch(node.Clock)
	c, err := core.Attach(p, core.Options{VendorName: cfg.VendorName})
	if err != nil {
		return 0, 0, err
	}
	defer c.Detach()
	init = initSW.Elapsed()
	env := &apps.Env{API: c, DeviceMask: cfg.Mask, Scale: scale}
	sw := vtime.NewStopwatch(node.Clock)
	if _, err := app.Run(env); err != nil {
		return 0, 0, err
	}
	return sw.Elapsed(), init, nil
}

// ---- Fig. 5: checkpoint overheads ----

// Fig5Row is one benchmark's averaged checkpoint-phase breakdown.
type Fig5Row struct {
	App         string
	Checkpoints int
	Sync        vtime.Duration
	Preprocess  vtime.Duration
	Write       vtime.Duration
	Postprocess vtime.Duration
	FileSize    int64
}

// Total is the averaged whole-checkpoint time.
func (r Fig5Row) Total() vtime.Duration {
	return r.Sync + r.Preprocess + r.Write + r.Postprocess
}

// Fig5Result is the full figure for one configuration.
type Fig5Result struct {
	Config string
	Rows   []Fig5Row
	// SizeTimeCorrelation reproduces the paper's r ≈ 0.99 observation.
	SizeTimeCorrelation float64
}

// maxCheckpointsPerApp caps how many per-launch checkpoints Fig5 takes for
// call-heavy programs (the paper checkpoints after every kernel; with
// QueueDelay's hundreds of launches a cap keeps the sweep tractable, and
// the row reports the average so the cap does not bias it).
const maxCheckpointsPerApp = 6

// Fig5 runs every kernel-executing benchmark under CheCL, checkpointing
// after kernel launches (with at least one uncompleted command in the
// queue, as in §IV-B), and reports the averaged phase breakdown and file
// size.
func Fig5(cfg Config, scale float64) (Fig5Result, error) {
	out := Fig5Result{Config: cfg.Name}
	for _, app := range apps.All() {
		if !app.HasKernel {
			continue // oclBandwidthTest, BusSpeed*, KernelCompile (§IV-B)
		}
		if !portableOn(cfg, app) {
			continue
		}
		node := cfg.newNode("fig5")
		p := node.Spawn(app.Name)
		c, err := core.Attach(p, core.Options{VendorName: cfg.VendorName})
		if err != nil {
			return out, err
		}
		row := Fig5Row{App: app.Name}
		var totPhases core.PhaseTimes
		env := &apps.Env{API: c, DeviceMask: cfg.Mask, Scale: scale}
		env.AfterLaunch = func(q ocl.CommandQueue) error {
			if row.Checkpoints >= maxCheckpointsPerApp {
				return nil
			}
			st, err := c.Checkpoint(node.LocalDisk, fmt.Sprintf("%s.ckpt", app.Name))
			if err != nil {
				return err
			}
			row.Checkpoints++
			totPhases.Sync += st.Phases.Sync
			totPhases.Preprocess += st.Phases.Preprocess
			totPhases.Write += st.Phases.Write
			totPhases.Postprocess += st.Phases.Postprocess
			row.FileSize += st.FileSize
			return nil
		}
		if _, err := app.Run(env); err != nil {
			c.Detach()
			return out, fmt.Errorf("fig5: %s on %s: %w", app.Name, cfg.Key, err)
		}
		c.Detach()
		if row.Checkpoints == 0 {
			continue
		}
		n := vtime.Duration(row.Checkpoints)
		row.Sync = totPhases.Sync / n
		row.Preprocess = totPhases.Preprocess / n
		row.Write = totPhases.Write / n
		row.Postprocess = totPhases.Postprocess / n
		row.FileSize /= int64(row.Checkpoints)
		out.Rows = append(out.Rows, row)
	}
	// Correlation between total checkpoint time and file size.
	var sizes, times []float64
	for _, r := range out.Rows {
		sizes = append(sizes, float64(r.FileSize))
		times = append(times, r.Total().Seconds())
	}
	if len(sizes) >= 2 {
		if r, err := core.Correlation(sizes, times); err == nil {
			out.SizeTimeCorrelation = r
		}
	}
	return out, nil
}

// ---- Fig. 6: MPI MD checkpointing ----

// Fig6Row is one (problem size, node count) point.
type Fig6Row struct {
	ProblemScale   float64
	Nodes          int
	GlobalSize     int64
	CheckpointTime vtime.Duration
}

// Fig6 sweeps the MPI-version MD program over problem sizes and node
// counts, taking one coordinated global snapshot per run (§IV-B, Fig. 6).
func Fig6(scales []float64, nodeCounts []int) ([]Fig6Row, error) {
	md, ok := apps.ByName("MD")
	if !ok {
		return nil, fmt.Errorf("fig6: MD app not registered")
	}
	var rows []Fig6Row
	for _, scale := range scales {
		for _, nodes := range nodeCounts {
			cluster := proc.NewCluster("pc", nodes, hw.TableISpec(), func(int) []*ocl.Vendor {
				return []*ocl.Vendor{ocl.NVIDIA()}
			})
			world, err := mpi.NewWorld(cluster, nodes)
			if err != nil {
				return nil, err
			}
			var stats mpi.GlobalSnapshotStats
			err = world.Run(func(r *mpi.Rank) error {
				c, err := core.Attach(r.Process(), core.Options{})
				if err != nil {
					return err
				}
				defer c.Detach()
				env := &apps.Env{API: c, DeviceMask: ocl.DeviceTypeGPU, Scale: scale}
				if _, err := md.Run(env); err != nil {
					return err
				}
				st, err := r.CoordinatedCheckpoint(c, fmt.Sprintf("md-%v-%d.global", scale, nodes))
				if err != nil {
					return err
				}
				if r.Rank() == 0 {
					stats = st
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("fig6 scale=%v nodes=%d: %w", scale, nodes, err)
			}
			rows = append(rows, Fig6Row{
				ProblemScale:   scale,
				Nodes:          nodes,
				GlobalSize:     stats.GlobalSize,
				CheckpointTime: stats.Total,
			})
		}
	}
	return rows, nil
}

// ---- Fig. 7: restart breakdown ----

// Fig7Row is one benchmark's object-recreation breakdown.
type Fig7Row struct {
	App      string
	PerClass map[string]vtime.Duration
	Total    vtime.Duration
}

// Fig7 checkpoints each kernel-executing benchmark after its run and
// restarts it on the same configuration, reporting the per-class object
// recreation time (§IV-C, Fig. 7).
func Fig7(cfg Config, scale float64) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, app := range apps.All() {
		if !app.HasKernel || !portableOn(cfg, app) {
			continue
		}
		node := cfg.newNode("fig7")
		p := node.Spawn(app.Name)
		c, err := core.Attach(p, core.Options{VendorName: cfg.VendorName})
		if err != nil {
			return nil, err
		}
		env := &apps.Env{API: c, DeviceMask: cfg.Mask, Scale: scale}
		if _, err := app.Run(env); err != nil {
			c.Detach()
			return nil, fmt.Errorf("fig7: %s on %s: %w", app.Name, cfg.Key, err)
		}
		if _, err := c.Checkpoint(node.LocalDisk, "fig7.ckpt"); err != nil {
			c.Detach()
			return nil, err
		}
		c.Proxy().Kill()
		c.App().Kill()
		rc, rst, err := core.Restore(node, node.LocalDisk, "fig7.ckpt",
			core.Options{VendorName: cfg.VendorName, PreferDeviceType: cfg.Prefer})
		if err != nil {
			return nil, fmt.Errorf("fig7: restoring %s on %s: %w", app.Name, cfg.Key, err)
		}
		rc.Detach()
		// The figure's bars stack object-recreation time only; the file
		// read and proxy fork are not part of the breakdown.
		var objTotal vtime.Duration
		for _, class := range core.RestoreOrder {
			objTotal += rst.PerClass[class]
		}
		rows = append(rows, Fig7Row{App: app.Name, PerClass: rst.PerClass, Total: objTotal})
	}
	return rows, nil
}

// ---- Fig. 8: migration-cost prediction ----

// Fig8Row is one benchmark's measured and predicted migration time.
type Fig8Row struct {
	App       string
	FileSize  int64
	Recompile vtime.Duration
	Actual    vtime.Duration
	Predicted vtime.Duration
}

// Fig8Result carries the rows, the fitted model, and the prediction error.
type Fig8Result struct {
	Config string
	Rows   []Fig8Row
	Model  core.CostModel
	MAPE   float64
}

// Fig8 migrates each kernel-executing benchmark between two nodes of the
// same configuration, fits Tm = α·M + Tr + β over all benchmarks, and
// reports predicted vs actual migration time (§IV-C, Fig. 8).
func Fig8(cfg Config, scale float64) (Fig8Result, error) {
	out := Fig8Result{Config: cfg.Name}
	var samples []core.CostSample
	for _, app := range apps.All() {
		if !app.HasKernel || !portableOn(cfg, app) {
			continue
		}
		src := cfg.newNode("fig8-src")
		dst := cfg.newNode("fig8-dst")
		p := src.Spawn(app.Name)
		c, err := core.Attach(p, core.Options{VendorName: cfg.VendorName})
		if err != nil {
			return out, err
		}
		env := &apps.Env{API: c, DeviceMask: cfg.Mask, Scale: scale}
		if _, err := app.Run(env); err != nil {
			c.Detach()
			return out, fmt.Errorf("fig8: %s on %s: %w", app.Name, cfg.Key, err)
		}
		rc, ms, err := core.Migrate(c, src.LocalDisk, "fig8.ckpt", dst,
			core.Options{VendorName: cfg.VendorName, PreferDeviceType: cfg.Prefer})
		if err != nil {
			return out, fmt.Errorf("fig8: migrating %s on %s: %w", app.Name, cfg.Key, err)
		}
		rc.Detach()
		out.Rows = append(out.Rows, Fig8Row{
			App:       app.Name,
			FileSize:  ms.Checkpoint.FileSize,
			Recompile: ms.Restart.Recompile,
			Actual:    ms.Total,
		})
		samples = append(samples, core.CostSample{
			FileSize:  ms.Checkpoint.FileSize,
			Recompile: ms.Restart.Recompile,
			Measured:  ms.Total,
		})
	}
	model, err := core.FitCostModel(samples)
	if err != nil {
		return out, err
	}
	out.Model = model
	var preds, acts []vtime.Duration
	for i := range out.Rows {
		out.Rows[i].Predicted = model.Predict(out.Rows[i].FileSize, out.Rows[i].Recompile)
		preds = append(preds, out.Rows[i].Predicted)
		acts = append(acts, out.Rows[i].Actual)
	}
	if mape, err := core.MeanAbsolutePercentError(preds, acts); err == nil {
		out.MAPE = mape
	}
	return out, nil
}
