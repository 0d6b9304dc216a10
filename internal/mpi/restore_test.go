package mpi

import (
	"encoding/binary"
	"math"
	"testing"

	"checl/internal/core"
	"checl/internal/ocl"
)

// TestRestoreGlobalRoundtrip checkpoints a 2-rank CheCL job into a global
// snapshot and restores both ranks from it, verifying each rank's device
// state survived.
func TestRestoreGlobalRoundtrip(t *testing.T) {
	cl := cluster(2)
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
	err := w.Run(func(r *Rank) error {
		c, err := core.Attach(r.Process(), core.Options{})
		if err != nil {
			return err
		}
		// The CheCL instance dies with the source incarnation; only the
		// global snapshot survives.
		plats, _ := c.GetPlatformIDs()
		devs, _ := c.GetDeviceIDs(plats[0], ocl.DeviceTypeGPU)
		ctx, _ := c.CreateContext(devs)
		q, _ := c.CreateCommandQueue(ctx, devs[0], 0)
		prog, _ := c.CreateProgramWithSource(ctx, src)
		if err := c.BuildProgram(prog, ""); err != nil {
			return err
		}
		k, _ := c.CreateKernel(prog, "fill")
		buf, _ := c.CreateBuffer(ctx, ocl.MemReadWrite, 4*64, nil)
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
		binary.LittleEndian.PutUint32(n, 64)
		if err := c.SetKernelArg(k, 2, 4, n); err != nil {
			return err
		}
		if _, err := c.EnqueueNDRangeKernel(q, k, 1, [3]int{}, [3]int{64}, [3]int{64}, nil); err != nil {
			return err
		}
		if err := c.Finish(q); err != nil {
			return err
		}
		states[r.Rank()] = rankState{q: q, buf: buf}
		if _, err := r.CoordinatedCheckpoint(c, "job.global"); err != nil {
			return err
		}
		// Simulate the whole job dying.
		c.Proxy().Kill()
		r.Process().Kill()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	restored, err := RestoreGlobal(cl, "job.global", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 2 {
		t.Fatalf("restored %d ranks, want 2", len(restored))
	}
	for rank, c := range restored {
		data, _, err := c.EnqueueReadBuffer(states[rank].q, states[rank].buf, true, 0, 4*64, nil)
		if err != nil {
			t.Fatalf("rank %d read after restore: %v", rank, err)
		}
		for i := 0; i < 64; i++ {
			got := math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			want := float32(100*(rank+1)) + float32(i)
			if got != want {
				t.Fatalf("rank %d: buf[%d] = %v, want %v", rank, i, got, want)
			}
		}
		c.Detach()
	}
}

func TestRestoreGlobalErrors(t *testing.T) {
	cl := cluster(1)
	if _, err := RestoreGlobal(cl, "missing.global", core.Options{}); err == nil {
		t.Error("restore from missing snapshot should fail")
	}
	cl.NFS.WriteFile(cl.Nodes[0].Clock, "garbage.global", []byte("nope"))
	if _, err := RestoreGlobal(cl, "garbage.global", core.Options{}); err == nil {
		t.Error("restore from garbage should fail")
	}
}

// TestRestoreGlobalTearsDownOnFailure: a global snapshot whose second
// rank does not restore leaves nothing running — the first rank, restored
// before the second failed, is torn down again, application and proxy.
func TestRestoreGlobalTearsDownOnFailure(t *testing.T) {
	cl := cluster(2)
	w, _ := NewWorld(cl, 2)
	err := w.Run(func(r *Rank) error {
		c, err := core.Attach(r.Process(), core.Options{})
		if err != nil {
			return err
		}
		if _, err := r.CoordinatedCheckpoint(c, "job.global"); err != nil {
			return err
		}
		c.Proxy().Kill()
		r.Process().Kill()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	running := func() int {
		n := 0
		for _, node := range cl.Nodes {
			n += len(node.Processes())
		}
		return n
	}
	clock := cl.Nodes[0].Clock
	data, err := cl.NFS.ReadFile(clock, "job.global")
	if err != nil {
		t.Fatal(err)
	}
	locals, err := decodeGlobalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	locals[1] = []byte("not a local snapshot")
	torn, err := encodeGlobalSnapshot(locals)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.NFS.WriteFile(clock, "torn.global", torn); err != nil {
		t.Fatal(err)
	}

	before := running()
	if _, err := RestoreGlobal(cl, "torn.global", core.Options{}); err == nil {
		t.Fatal("restore of a snapshot with a torn rank succeeded")
	}
	if after := running(); after != before {
		t.Errorf("%d processes running after the failed restore, %d before", after, before)
	}
}
