// checl-run executes one benchmark application, natively or under CheCL,
// optionally taking a mid-run checkpoint and restarting from it — a
// command-line demonstration of the full CheCL lifecycle.
//
// Usage:
//
//	checl-run [-config key] [-native] [-checkpoint] [-mode delayed] [-list] [app]
package main

import (
	"flag"
	"fmt"
	"os"

	"checl/internal/apps"
	"checl/internal/core"
	"checl/internal/harness"
	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/vtime"
)

func main() {
	configKey := flag.String("config", "nvidia-gpu", "configuration: nvidia-gpu, amd-gpu, amd-cpu")
	native := flag.Bool("native", false, "run against the vendor OpenCL directly (no CheCL)")
	checkpoint := flag.Bool("checkpoint", false, "signal a checkpoint during the run and restart from it")
	mode := flag.String("mode", "immediate", "checkpoint mode: immediate or delayed")
	scale := flag.Float64("scale", 1.0, "problem-size multiplier")
	list := flag.Bool("list", false, "list available applications")
	flag.Parse()

	if *list {
		for _, a := range apps.All() {
			fmt.Printf("%-26s %s\n", a.Name, a.Suite)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: checl-run [flags] <app>   (try -list)")
		os.Exit(2)
	}
	app, ok := apps.ByName(flag.Arg(0))
	if !ok {
		fmt.Fprintf(os.Stderr, "checl-run: unknown app %q (try -list)\n", flag.Arg(0))
		os.Exit(2)
	}
	cfg, ok := harness.ConfigByKey(*configKey)
	if !ok {
		fmt.Fprintf(os.Stderr, "checl-run: unknown config %q\n", *configKey)
		os.Exit(2)
	}

	node := proc.NewNode("pc0", hw.TableISpec(), cfg.Vendor())
	p := node.Spawn(app.Name)

	if *native {
		rt := ocl.NewRuntime(node.Vendors[0], node.Spec, node.Clock)
		p.MapDevice()
		env := &apps.Env{API: rt, DeviceMask: cfg.Mask, Verify: true, Scale: *scale}
		sw := vtime.NewStopwatch(node.Clock)
		res, err := app.Run(env)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s (native, %s): %s virtual time, %d kernel launches, verified=%v\n",
			app.Name, cfg.Name, sw.Elapsed(), res.Launches, res.Verified)
		return
	}

	opts := core.Options{
		VendorName: cfg.VendorName,
		CkptFS:     node.LocalDisk,
		CkptPath:   app.Name + ".ckpt",
	}
	if *mode == "delayed" {
		opts.Mode = core.Delayed
	}
	c, err := core.Attach(p, opts)
	if err != nil {
		fatal(err)
	}
	env := &apps.Env{API: c, DeviceMask: cfg.Mask, Verify: true, Scale: *scale}
	if *checkpoint {
		fired := false
		env.AfterLaunch = func(q ocl.CommandQueue) error {
			if !fired {
				fired = true
				p.Signal(proc.SIGUSR1) // delivered at the next API call
			}
			return nil
		}
	}
	sw := vtime.NewStopwatch(node.Clock)
	res, err := app.Run(env)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s (CheCL %s, %s): %s virtual time, %d kernel launches, verified=%v\n",
		app.Name, opts.Mode, cfg.Name, sw.Elapsed(), res.Launches, res.Verified)

	if st := c.LastCheckpoint(); st != nil {
		fmt.Printf("checkpoint: file=%s size=%.2f MB sync=%s preprocess=%s write=%s postprocess=%s\n",
			st.Path, float64(st.FileSize)/1e6,
			st.Phases.Sync, st.Phases.Preprocess, st.Phases.Write, st.Phases.Postprocess)
		// Restart the snapshot to prove it is valid.
		c.Proxy().Kill()
		c.App().Kill()
		rc, rst, err := core.Restore(node, node.LocalDisk, st.Path,
			core.Options{VendorName: cfg.VendorName})
		if err != nil {
			fatal(err)
		}
		defer rc.Detach()
		fmt.Printf("restart: %s objects=%v\n", rst, rc.ObjectCounts())
	} else if *checkpoint {
		fmt.Println("checkpoint requested but never fired (no kernel launch?)")
	}
	c.Detach()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "checl-run: %v\n", err)
	os.Exit(1)
}
