// Migration: moving a running OpenCL process between heterogeneous nodes.
//
// A Black-Scholes pricing job starts on a node with the NVIDIA-like OpenCL
// implementation (Tesla C1060) and is live-migrated — checkpoint on the
// shared NFS, restart — to a node that only has the AMD-like
// implementation (Radeon HD5870 + CPU). Because the application only ever
// held CheCL handles, it resumes under the other vendor's OpenCL without
// noticing (§IV-C of the paper).
package main

import (
	"fmt"
	"log"

	"checl/internal/apps"
	"checl/internal/core"
	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
)

func main() {
	cluster := proc.NewCluster("pc", 2, hw.TableISpec(), func(i int) []*ocl.Vendor {
		if i == 0 {
			return []*ocl.Vendor{ocl.NVIDIA()}
		}
		return []*ocl.Vendor{ocl.AMD()}
	})
	src, dst := cluster.Nodes[0], cluster.Nodes[1]

	app, _ := apps.ByName("oclBlackScholes")
	p := src.Spawn(app.Name)
	cl, err := core.Attach(p, core.Options{VendorName: "NVIDIA Corporation"})
	if err != nil {
		log.Fatal(err)
	}

	env := &apps.Env{API: cl, DeviceMask: ocl.DeviceTypeGPU, Verify: true}
	if _, err := app.Run(env); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s priced its portfolio on %s (Tesla C1060)\n", app.Name, src.Name)

	// Migrate: checkpoint on NFS, kill the source incarnation, restore on
	// the AMD node. The cost model inputs (file size M, recompile Tr) are
	// reported alongside the measured Tm.
	rc, ms, err := core.Migrate(cl, cluster.NFS, "bs.ckpt", dst,
		core.Options{VendorName: "Advanced Micro Devices, Inc."})
	if err != nil {
		log.Fatal(err)
	}
	defer rc.Detach()

	fmt.Printf("migrated to %s under AMD OpenCL:\n", dst.Name)
	fmt.Printf("  checkpoint %s  (file %.2f MB)\n", ms.Checkpoint.Phases.Total(), float64(ms.Checkpoint.FileSize)/1e6)
	fmt.Printf("  restart    %s\n", ms.Restart)
	fmt.Printf("  Tm         %s\n", ms.Total)

	// Predict the same migration with the Eq. 1 cost model fitted from
	// two calibration points, and compare.
	samples := []core.CostSample{
		{FileSize: ms.Checkpoint.FileSize, Recompile: ms.Restart.Recompile, Measured: ms.Total},
		{FileSize: ms.Checkpoint.FileSize * 2, Recompile: ms.Restart.Recompile,
			Measured: ms.Total + ms.Checkpoint.Phases.Write},
	}
	model, err := core.FitCostModel(samples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  fitted model: %s\n", model)
	fmt.Printf("  predicted Tm: %s\n", model.Predict(ms.Checkpoint.FileSize, ms.Restart.Recompile))

	// The migrated process keeps computing, now on AMD hardware.
	env2 := &apps.Env{API: rc, DeviceMask: ocl.DeviceTypeGPU, Verify: true}
	if _, err := app.Run(env2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified: the job re-priced correctly on the destination GPU")
}
