package core

import (
	"math"
	"testing"

	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/vtime"
)

func TestMigrateAcrossNodesSharedNFS(t *testing.T) {
	// NVIDIA node -> AMD node over the cluster NFS: the checkpoint taken
	// under one vendor's OpenCL restarts under the other's (§IV-C).
	cluster := proc.NewCluster("pc", 2, hw.TableISpec(), func(i int) []*ocl.Vendor {
		if i == 0 {
			return []*ocl.Vendor{ocl.NVIDIA()}
		}
		return []*ocl.Vendor{ocl.AMD()}
	})
	src, dst := cluster.Nodes[0], cluster.Nodes[1]

	_, c := attach(t, src, Options{})
	app := setupVaddApp(t, c, 1<<12)
	app.launch(t)
	c.Finish(app.q)

	rc, ms, err := Migrate(c, cluster.NFS, "mig.ckpt", dst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Detach()

	if ms.Transfer != 0 {
		t.Errorf("shared NFS migration should not pay a transfer: %v", ms.Transfer)
	}
	if ms.Total <= 0 || ms.Total != ms.Checkpoint.Phases.Total()+ms.Restart.Total {
		t.Errorf("migration total inconsistent: %+v", ms)
	}
	// Source incarnation is gone; the restored app runs on the AMD node.
	if len(src.Processes()) != 0 {
		t.Errorf("source node still has %d processes", len(src.Processes()))
	}
	if rc.App().Node() != dst {
		t.Error("restored app on wrong node")
	}
	app.api = rc
	app.verify(t)
	// The restored device really is an AMD-platform device.
	info, err := rc.GetDeviceInfo(app.dev)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name == "Tesla C1060" {
		t.Error("device not remapped to the destination vendor")
	}
}

func TestMigrateUnsharedDiskPaysTransfer(t *testing.T) {
	nvA := proc.NewNode("a", hw.TableISpec(), ocl.NVIDIA())
	nvB := proc.NewNode("b", hw.TableISpec(), ocl.NVIDIA())
	_, c := attach(t, nvA, Options{})
	app := setupVaddApp(t, c, 1<<14)
	app.launch(t)
	c.Finish(app.q)
	rc, ms, err := Migrate(c, nvA.LocalDisk, "mig.ckpt", nvB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Detach()
	if ms.Transfer <= 0 {
		t.Error("unshared-disk migration must pay a NIC transfer")
	}
	app.api = rc
	app.verify(t)
}

func TestRuntimeProcessorSelectionGPUtoCPU(t *testing.T) {
	// §IV-C: with AMD OpenCL the compute device can be changed CPU<->GPU
	// at runtime via a RAM-disk checkpoint.
	node := newNodeAMD("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 1<<10) // first device = HD5870 (GPU)
	app.launch(t)
	c.Finish(app.q)

	before, err := c.GetDeviceInfo(app.dev)
	if err != nil || before.Type != hw.DeviceGPU {
		t.Fatalf("initial device = %+v, %v", before, err)
	}

	rc, ms, err := SelectProcessor(c, hw.DeviceCPU)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Detach()
	app.api = rc
	after, err := rc.GetDeviceInfo(app.dev)
	if err != nil {
		t.Fatal(err)
	}
	if after.Type != hw.DeviceCPU {
		t.Fatalf("device after processor selection = %+v, want CPU", after)
	}
	app.launch(t)
	app.verify(t)

	// And back to the GPU.
	rc2, _, err := SelectProcessor(rc, hw.DeviceGPU)
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Detach()
	app.api = rc2
	if info, _ := rc2.GetDeviceInfo(app.dev); info.Type != hw.DeviceGPU {
		t.Fatalf("device after second selection = %+v, want GPU", info)
	}
	app.launch(t)
	app.verify(t)

	// RAM-disk checkpointing keeps the switch cost far below a disk
	// migration of the same image.
	if ms.Checkpoint.FSName != "ramdisk" {
		t.Errorf("processor selection used %q, want ramdisk", ms.Checkpoint.FSName)
	}
}

func TestCrossVendorBinaryProgramFailsToMigrate(t *testing.T) {
	// A program created via clCreateProgramWithBinary on NVIDIA cannot be
	// restored on an AMD node — why the paper deprecates binaries (§III-D).
	cluster := proc.NewCluster("pc", 2, hw.TableISpec(), func(i int) []*ocl.Vendor {
		if i == 0 {
			return []*ocl.Vendor{ocl.NVIDIA()}
		}
		return []*ocl.Vendor{ocl.AMD()}
	})
	src, dst := cluster.Nodes[0], cluster.Nodes[1]
	_, c := attach(t, src, Options{})
	app := setupVaddApp(t, c, 64)
	bin, err := c.GetProgramBinary(app.prog)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := c.CreateProgramWithBinary(app.ctx, app.dev, bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BuildProgram(prog2, ""); err != nil {
		t.Fatal(err)
	}
	_, _, err = Migrate(c, cluster.NFS, "bad.ckpt", dst, Options{})
	if err == nil {
		t.Fatal("migration with a cross-vendor binary program should fail")
	}
	// The failed restore leaves nothing running on the target: neither the
	// process it brought back nor the proxy it forked for it.
	for _, p := range dst.Processes() {
		t.Errorf("the failed migration left %s (pid %d) on %s", p.Name, p.PID, dst.Name)
	}
}

func TestMigrationCostModelFitAndPredict(t *testing.T) {
	// Collect migration samples at several problem sizes, fit Eq. 1, and
	// check the prediction tracks the measurements (Fig. 8).
	var samples []CostSample
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16, 1 << 18} {
		nvA := proc.NewNode("a", hw.TableISpec(), ocl.NVIDIA())
		nvB := proc.NewNode("b", hw.TableISpec(), ocl.NVIDIA())
		nvB.NFS = nvA.NFS // no shared NFS; use local+transfer instead
		_, c := attach(t, nvA, Options{})
		app := setupVaddApp(t, c, n)
		app.launch(t)
		c.Finish(app.q)
		rc, ms, err := Migrate(c, nvA.LocalDisk, "m.ckpt", nvB, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rc.Detach()
		samples = append(samples, CostSample{
			FileSize:  ms.Checkpoint.FileSize,
			Recompile: ms.Restart.Recompile,
			Measured:  ms.Total,
		})
	}
	model, err := FitCostModel(samples)
	if err != nil {
		t.Fatal(err)
	}
	if model.Alpha <= 0 {
		t.Errorf("alpha = %v, want > 0 (cost grows with file size)", model.Alpha)
	}
	var preds, acts []vtime.Duration
	for _, s := range samples {
		preds = append(preds, model.Predict(s.FileSize, s.Recompile))
		acts = append(acts, s.Measured)
	}
	mape, err := MeanAbsolutePercentError(preds, acts)
	if err != nil {
		t.Fatal(err)
	}
	if mape > 15 {
		t.Errorf("cost-model MAPE = %.1f%%, want <= 15%%", mape)
	}
}

func TestFitCostModelErrors(t *testing.T) {
	if _, err := FitCostModel(nil); err == nil {
		t.Error("empty fit should fail")
	}
	same := []CostSample{
		{FileSize: 100, Measured: vtime.Second},
		{FileSize: 100, Measured: vtime.Second},
	}
	if _, err := FitCostModel(same); err == nil {
		t.Error("degenerate fit should fail")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1}
	r, err := Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.99 {
		t.Errorf("r = %v, want >= 0.99 for a near-linear relation", r)
	}
	inv := []float64{10, 8, 6, 4, 2}
	r2, _ := Correlation(xs, inv)
	if r2 > -0.999 {
		t.Errorf("r = %v, want -1 for a perfectly inverse relation", r2)
	}
	if _, err := Correlation(xs, xs[:2]); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Correlation([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("constant series should fail")
	}
}

func TestMAPE(t *testing.T) {
	p := []vtime.Duration{2 * vtime.Second}
	a := []vtime.Duration{1 * vtime.Second}
	mape, err := MeanAbsolutePercentError(p, a)
	if err != nil || math.Abs(mape-100) > 1e-9 {
		t.Errorf("MAPE = %v, %v; want 100", mape, err)
	}
	if _, err := MeanAbsolutePercentError(nil, nil); err == nil {
		t.Error("empty MAPE should fail")
	}
}

func TestCheckpointTimeCorrelatesWithFileSize(t *testing.T) {
	// §IV-B: corr(total checkpoint time, checkpoint file size) ~ 0.99.
	var sizes, times []float64
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18} {
		node := newNodeNV("pc")
		_, c := attach(t, node, Options{})
		app := setupVaddApp(t, c, n)
		app.launch(t)
		st, err := c.Checkpoint(node.LocalDisk, "s.ckpt")
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, float64(st.FileSize))
		times = append(times, st.Phases.Total().Seconds())
		c.Detach()
	}
	r, err := Correlation(sizes, times)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.98 {
		t.Errorf("corr(checkpoint time, file size) = %.3f, want >= 0.98", r)
	}
}
