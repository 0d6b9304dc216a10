package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"checl/internal/core"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/store"
	"checl/internal/vtime"
)

// TestCoordinatedCheckpointToStore takes two successive store-backed
// global snapshots of a 2-rank job and restores both ranks from the
// second. Successive snapshots of the unchanged job must deduplicate.
func TestCoordinatedCheckpointToStore(t *testing.T) {
	cl := cluster(2)
	st := store.New(cl.NFS, store.Config{})
	w, _ := NewWorld(cl, 2)
	const src = `
__kernel void fill(__global float* x, float v, uint n) {
    size_t i = get_global_id(0);
    if (i < n) x[i] = v + (float)i;
}`
	type rankState struct {
		q   ocl.CommandQueue
		buf ocl.Mem
	}
	states := make([]rankState, 2)
	var mu sync.Mutex
	puts := make([]*store.PutStats, 0, 2)
	err := w.Run(func(r *Rank) error {
		c, err := core.Attach(r.Process(), core.Options{Incremental: true})
		if err != nil {
			return err
		}
		plats, _ := c.GetPlatformIDs()
		devs, _ := c.GetDeviceIDs(plats[0], ocl.DeviceTypeGPU)
		ctx, _ := c.CreateContext(devs)
		q, _ := c.CreateCommandQueue(ctx, devs[0], 0)
		prog, _ := c.CreateProgramWithSource(ctx, src)
		if err := c.BuildProgram(prog, ""); err != nil {
			return err
		}
		k, _ := c.CreateKernel(prog, "fill")
		buf, _ := c.CreateBuffer(ctx, ocl.MemReadWrite, 4*1024, nil)
		h := make([]byte, 8)
		binary.LittleEndian.PutUint64(h, uint64(buf))
		if err := c.SetKernelArg(k, 0, 8, h); err != nil {
			return err
		}
		v := make([]byte, 4)
		binary.LittleEndian.PutUint32(v, math.Float32bits(float32(100*(r.Rank()+1))))
		if err := c.SetKernelArg(k, 1, 4, v); err != nil {
			return err
		}
		n := make([]byte, 4)
		binary.LittleEndian.PutUint32(n, 1024)
		if err := c.SetKernelArg(k, 2, 4, n); err != nil {
			return err
		}
		if _, err := c.EnqueueNDRangeKernel(q, k, 1, [3]int{}, [3]int{1024}, [3]int{64}, nil); err != nil {
			return err
		}
		if err := c.Finish(q); err != nil {
			return err
		}
		states[r.Rank()] = rankState{q: q, buf: buf}

		gs1, err := r.CoordinatedCheckpointToStore(c, st, "mpijob")
		if err != nil {
			return err
		}
		gs2, err := r.CoordinatedCheckpointToStore(c, st, "mpijob")
		if err != nil {
			return err
		}
		if r.Rank() == 0 {
			mu.Lock()
			puts = append(puts, gs1.StorePut, gs2.StorePut)
			mu.Unlock()
		}
		c.Proxy().Kill()
		r.Process().Kill()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(puts) != 2 || puts[0] == nil || puts[1] == nil {
		t.Fatalf("rank 0 store puts = %v", puts)
	}
	if puts[0].Manifest != "mpijob@1" || puts[1].Manifest != "mpijob@2" {
		t.Errorf("manifests = %s, %s", puts[0].Manifest, puts[1].Manifest)
	}
	if puts[1].NewBytes > puts[0].NewBytes/2 {
		t.Errorf("2nd global snapshot uploaded %d new bytes, 1st uploaded %d — dedup below 50%%",
			puts[1].NewBytes, puts[0].NewBytes)
	}

	restored, deg, err := RestoreGlobalFromStore(cl, st, "mpijob", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if deg != nil {
		t.Fatalf("clean restore reported degradation: %v", deg)
	}
	if len(restored) != 2 {
		t.Fatalf("restored %d ranks, want 2", len(restored))
	}
	for rank, c := range restored {
		data, _, err := c.EnqueueReadBuffer(states[rank].q, states[rank].buf, true, 0, 4*1024, nil)
		if err != nil {
			t.Fatalf("rank %d read after restore: %v", rank, err)
		}
		for i := 0; i < 1024; i++ {
			got := math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			want := float32(100*(rank+1)) + float32(i)
			if got != want {
				t.Fatalf("rank %d: buf[%d] = %v, want %v", rank, i, got, want)
			}
		}
		c.Detach()
	}
}

// fillJob runs a one-rank job whose buffer holds 100+i at index i and
// takes gens coordinated store snapshots of it under job. The returned
// check fails t unless a restored rank's buffer holds the same.
func fillJob(t *testing.T, cl *proc.Cluster, st store.Backend, job string, gens int) (check func(c *core.CheCL)) {
	t.Helper()
	w, _ := NewWorld(cl, 1)
	const src = `
__kernel void fill(__global float* x, float v, uint n) {
    size_t i = get_global_id(0);
    if (i < n) x[i] = v + (float)i;
}`
	var q ocl.CommandQueue
	var buf ocl.Mem
	err := w.Run(func(r *Rank) error {
		c, err := core.Attach(r.Process(), core.Options{})
		if err != nil {
			return err
		}
		plats, _ := c.GetPlatformIDs()
		devs, _ := c.GetDeviceIDs(plats[0], ocl.DeviceTypeGPU)
		ctx, _ := c.CreateContext(devs)
		cq, _ := c.CreateCommandQueue(ctx, devs[0], 0)
		prog, _ := c.CreateProgramWithSource(ctx, src)
		if err := c.BuildProgram(prog, ""); err != nil {
			return err
		}
		k, _ := c.CreateKernel(prog, "fill")
		b, _ := c.CreateBuffer(ctx, ocl.MemReadWrite, 4*1024, nil)
		h := make([]byte, 8)
		binary.LittleEndian.PutUint64(h, uint64(b))
		if err := c.SetKernelArg(k, 0, 8, h); err != nil {
			return err
		}
		v := make([]byte, 4)
		binary.LittleEndian.PutUint32(v, math.Float32bits(100))
		if err := c.SetKernelArg(k, 1, 4, v); err != nil {
			return err
		}
		n := make([]byte, 4)
		binary.LittleEndian.PutUint32(n, 1024)
		if err := c.SetKernelArg(k, 2, 4, n); err != nil {
			return err
		}
		if _, err := c.EnqueueNDRangeKernel(cq, k, 1, [3]int{}, [3]int{1024}, [3]int{64}, nil); err != nil {
			return err
		}
		if err := c.Finish(cq); err != nil {
			return err
		}
		q, buf = cq, b
		for i := 0; i < gens; i++ {
			if _, err := r.CoordinatedCheckpointToStore(c, st, job); err != nil {
				return err
			}
		}
		c.Proxy().Kill()
		r.Process().Kill()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return func(c *core.CheCL) {
		t.Helper()
		data, _, err := c.EnqueueReadBuffer(q, buf, true, 0, 4*1024, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1024; i++ {
			got := math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			if want := 100 + float32(i); got != want {
				t.Fatalf("buf[%d] = %v, want %v", i, got, want)
			}
		}
	}
}

// TestRestoreGlobalFromStoreDegraded damages the newest global snapshot
// past repair (no replicas) and checks the restore walks back to the
// previous generation with a typed report — a globally consistent older
// state, never a partial or silently wrong one.
func TestRestoreGlobalFromStoreDegraded(t *testing.T) {
	cl := cluster(1)
	st := store.New(cl.NFS, store.Config{})
	check := fillJob(t, cl, st, "dmj", 2)

	// Rot the newest generation's manifest frame in place.
	clock := cl.Nodes[0].Clock
	const manPath = "ckptstore/manifests/dmj/00000002"
	frame, err := cl.NFS.ReadFile(clock, manPath)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)/2] ^= 0xFF
	if err := cl.NFS.WriteFile(clock, manPath, frame); err != nil {
		t.Fatal(err)
	}

	restored, deg, err := RestoreGlobalFromStore(cl, st, "dmj", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if deg == nil || deg.Restored != "dmj@1" || len(deg.Skipped) != 1 || deg.Skipped[0].ID != "dmj@2" {
		t.Fatalf("degradation report = %+v", deg)
	}
	if len(restored) != 1 {
		t.Fatalf("restored %d ranks, want 1", len(restored))
	}
	check(restored[0])
	restored[0].Detach()
}

// TestRestoreGlobalSkipsSegmentlessGeneration: a generation a plain
// store.Put wrote under the job has no rank segments. It is not a global
// snapshot — not one of zero ranks — so the restore skips it, says why, and
// restores the coordinated snapshot under it.
func TestRestoreGlobalSkipsSegmentlessGeneration(t *testing.T) {
	cl := cluster(1)
	st := store.New(cl.NFS, store.Config{})
	check := fillJob(t, cl, st, "dmj", 1)
	if _, _, err := st.Put(cl.Nodes[0].Clock, "dmj", nil); err != nil {
		t.Fatal(err)
	}

	restored, deg, err := RestoreGlobalFromStore(cl, st, "dmj", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if deg == nil || deg.Restored != "dmj@1" || len(deg.Skipped) != 1 || deg.Skipped[0].ID != "dmj@2" ||
		!strings.Contains(deg.Skipped[0].Reason, "no rank segments") {
		t.Fatalf("degradation report = %+v", deg)
	}
	if len(restored) != 1 {
		t.Fatalf("restored %d ranks, want 1", len(restored))
	}
	check(restored[0])
	restored[0].Detach()
}

func TestRestoreGlobalFromStoreErrors(t *testing.T) {
	cl := cluster(1)
	st := store.New(cl.NFS, store.Config{})
	if _, _, err := RestoreGlobalFromStore(cl, st, "missing", core.Options{}); err == nil {
		t.Error("restore from missing snapshot should fail")
	}
}

// TestCoordinatedSpeculativeCheckpoint takes a store-backed global
// snapshot of a 2-rank job whose ranks each open a speculative epoch
// before their last kernel: the coordinated checkpoint commits the open
// epoch (the kernel violated the in-flight copy, so it is re-drained), the
// per-rank stall lands in LocalStalls, and the restored ranks are
// bit-identical.
func TestCoordinatedSpeculativeCheckpoint(t *testing.T) {
	cl := cluster(2)
	st := store.New(cl.NFS, store.Config{})
	w, _ := NewWorld(cl, 2)
	const src = `
__kernel void fill(__global float* x, float v, uint n) {
    size_t i = get_global_id(0);
    if (i < n) x[i] = v + (float)i;
}`
	type rankState struct {
		q   ocl.CommandQueue
		buf ocl.Mem
	}
	states := make([]rankState, 2)
	var mu sync.Mutex
	stalls := make([]vtime.Duration, 0, 2)
	err := w.Run(func(r *Rank) error {
		c, err := core.Attach(r.Process(), core.Options{Incremental: true})
		if err != nil {
			return err
		}
		plats, _ := c.GetPlatformIDs()
		devs, _ := c.GetDeviceIDs(plats[0], ocl.DeviceTypeGPU)
		ctx, _ := c.CreateContext(devs)
		q, _ := c.CreateCommandQueue(ctx, devs[0], 0)
		prog, _ := c.CreateProgramWithSource(ctx, src)
		if err := c.BuildProgram(prog, ""); err != nil {
			return err
		}
		k, _ := c.CreateKernel(prog, "fill")
		buf, _ := c.CreateBuffer(ctx, ocl.MemReadWrite, 4*1024, nil)
		h := make([]byte, 8)
		binary.LittleEndian.PutUint64(h, uint64(buf))
		if err := c.SetKernelArg(k, 0, 8, h); err != nil {
			return err
		}
		n := make([]byte, 4)
		binary.LittleEndian.PutUint32(n, 1024)
		if err := c.SetKernelArg(k, 2, 4, n); err != nil {
			return err
		}
		fill := func(base float32) error {
			v := make([]byte, 4)
			binary.LittleEndian.PutUint32(v, math.Float32bits(base))
			if err := c.SetKernelArg(k, 1, 4, v); err != nil {
				return err
			}
			if _, err := c.EnqueueNDRangeKernel(q, k, 1, [3]int{}, [3]int{1024}, [3]int{64}, nil); err != nil {
				return err
			}
			return c.Finish(q)
		}
		if err := fill(-1); err != nil {
			return err
		}
		// The rank has work left to overlap: it opens the epoch itself,
		// and its last kernel lands mid-epoch.
		if err := c.BeginCheckpointEpoch(); err != nil {
			return err
		}
		if err := fill(float32(100 * (r.Rank() + 1))); err != nil {
			return err
		}
		states[r.Rank()] = rankState{q: q, buf: buf}

		gs, err := r.CoordinatedCheckpointToStore(c, st, "specjob")
		if err != nil {
			return err
		}
		if lc := c.LastCheckpoint(); lc == nil || !lc.Speculative || lc.ViolatedBuffers != 1 {
			return fmt.Errorf("rank %d: the snapshot did not commit the open epoch: %+v", r.Rank(), lc)
		}
		mu.Lock()
		stalls = append(stalls, gs.LocalStalls...)
		mu.Unlock()
		c.Proxy().Kill()
		r.Process().Kill()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(stalls) != 2 {
		t.Fatalf("collected %d rank stalls, want 2", len(stalls))
	}
	for i, s := range stalls {
		if s <= 0 {
			t.Errorf("rank stall %d = %s, want > 0 (write phase is app-visible)", i, s)
		}
	}

	restored, deg, err := RestoreGlobalFromStore(cl, st, "specjob", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if deg != nil {
		t.Fatalf("clean restore reported degradation: %v", deg)
	}
	for rank, c := range restored {
		data, _, err := c.EnqueueReadBuffer(states[rank].q, states[rank].buf, true, 0, 4*1024, nil)
		if err != nil {
			t.Fatalf("rank %d read after restore: %v", rank, err)
		}
		for i := 0; i < 1024; i++ {
			got := math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			want := float32(100*(rank+1)) + float32(i)
			if got != want {
				t.Fatalf("rank %d: buf[%d] = %v, want %v", rank, i, got, want)
			}
		}
		c.Detach()
	}
}
