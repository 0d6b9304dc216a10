// checl-migrate demonstrates process migration of an OpenCL application:
// an app starts under CheCL on a source node (optionally with a different
// GPU vendor than the destination), is checkpointed, and resumes on the
// destination node — or switches compute device kind on the same node
// (runtime processor selection via a RAM-disk checkpoint).
//
// Usage:
//
//	checl-migrate [-app name] [-from nvidia|amd] [-to nvidia|amd] [-procsel]
package main

import (
	"flag"
	"fmt"
	"os"

	"checl/internal/apps"
	"checl/internal/core"
	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
)

func vendorByName(name string) (*ocl.Vendor, string) {
	switch name {
	case "nvidia":
		return ocl.NVIDIA(), "NVIDIA Corporation"
	case "amd":
		return ocl.AMD(), "Advanced Micro Devices, Inc."
	default:
		fmt.Fprintf(os.Stderr, "checl-migrate: unknown vendor %q (nvidia|amd)\n", name)
		os.Exit(2)
		return nil, ""
	}
}

func main() {
	appName := flag.String("app", "oclVectorAdd", "application to migrate")
	from := flag.String("from", "nvidia", "source node vendor: nvidia or amd")
	to := flag.String("to", "amd", "destination node vendor: nvidia or amd")
	procsel := flag.Bool("procsel", false, "demonstrate GPU<->CPU runtime processor selection on one AMD node")
	scale := flag.Float64("scale", 1.0, "problem-size multiplier")
	flag.Parse()

	app, ok := apps.ByName(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "checl-migrate: unknown app %q\n", *appName)
		os.Exit(2)
	}

	if *procsel {
		runProcSel(app, *scale)
		return
	}

	srcVendor, srcName := vendorByName(*from)
	dstVendor, dstName := vendorByName(*to)
	cluster := proc.NewCluster("pc", 2, hw.TableISpec(), func(i int) []*ocl.Vendor {
		if i == 0 {
			return []*ocl.Vendor{srcVendor}
		}
		return []*ocl.Vendor{dstVendor}
	})
	src, dst := cluster.Nodes[0], cluster.Nodes[1]

	p := src.Spawn(app.Name)
	c, err := core.Attach(p, core.Options{VendorName: srcName})
	if err != nil {
		fatal(err)
	}
	env := &apps.Env{API: c, DeviceMask: ocl.DeviceTypeAll, Verify: true, Scale: *scale}
	if _, err := app.Run(env); err != nil {
		fatal(err)
	}
	fmt.Printf("%s ran on %s (%s OpenCL)\n", app.Name, src.Name, *from)

	rc, ms, err := core.Migrate(c, cluster.NFS, app.Name+".ckpt", dst,
		core.Options{VendorName: dstName})
	if err != nil {
		fatal(err)
	}
	defer rc.Detach()
	fmt.Printf("migrated %s -> %s over NFS\n", src.Name, dst.Name)
	fmt.Printf("  checkpoint: %s (file %.2f MB on %s)\n",
		ms.Checkpoint.Phases.Total(), float64(ms.Checkpoint.FileSize)/1e6, ms.Checkpoint.FSName)
	fmt.Printf("  restart:    %s\n", ms.Restart)
	fmt.Printf("  total Tm:   %s\n", ms.Total)
	fmt.Printf("live objects after restore: %v\n", rc.ObjectCounts())
}

func runProcSel(app apps.App, scale float64) {
	node := proc.NewNode("pc0", hw.TableISpec(), ocl.AMD())
	p := node.Spawn(app.Name)
	c, err := core.Attach(p, core.Options{VendorName: "Advanced Micro Devices, Inc."})
	if err != nil {
		fatal(err)
	}
	env := &apps.Env{API: c, DeviceMask: ocl.DeviceTypeGPU, Verify: true, Scale: scale}
	if _, err := app.Run(env); err != nil {
		fatal(err)
	}
	fmt.Printf("%s ran on the Radeon HD5870 (GPU)\n", app.Name)

	rc, ms, err := core.SelectProcessor(c, hw.DeviceCPU)
	if err != nil {
		fatal(err)
	}
	defer rc.Detach()
	fmt.Printf("switched compute device GPU -> CPU via a %s checkpoint in %s\n",
		ms.Checkpoint.FSName, ms.Total)
	env2 := &apps.Env{API: rc, DeviceMask: ocl.DeviceTypeCPU, Verify: true, Scale: scale}
	if _, err := app.Run(env2); err != nil {
		fatal(err)
	}
	fmt.Printf("%s re-ran on the Core i7 (CPU device) with the same process state\n", app.Name)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "checl-migrate: %v\n", err)
	os.Exit(1)
}
