package mpi

import (
	"testing"

	"checl/internal/core"
	"checl/internal/ocl"
)

// TestFaultRankProxyCrashBetweenCheckpoints kills one rank's API proxy
// between two coordinated checkpoints. AutoFailover absorbs the crash on
// that rank (the MPI layer never notices), the second global checkpoint
// still commits, and a global restore yields the post-crash state on
// every rank — handles stay stable across both failover and restore.
func TestFaultRankProxyCrashBetweenCheckpoints(t *testing.T) {
	cl := cluster(2)
	w, err := NewWorld(cl, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	type rankState struct {
		q   ocl.CommandQueue
		buf ocl.Mem
	}
	states := make([]rankState, 2)
	pattern := func(rank, gen int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rank*100 + gen*10 + i)
		}
		return out
	}
	err = w.Run(func(r *Rank) error {
		c, err := core.Attach(r.Process(), core.Options{
			AutoFailover: true,
		})
		if err != nil {
			return err
		}
		plats, _ := c.GetPlatformIDs()
		devs, _ := c.GetDeviceIDs(plats[0], ocl.DeviceTypeGPU)
		ctx, err := c.CreateContext(devs)
		if err != nil {
			return err
		}
		q, err := c.CreateCommandQueue(ctx, devs[0], 0)
		if err != nil {
			return err
		}
		buf, err := c.CreateBuffer(ctx, ocl.MemReadWrite, n, nil)
		if err != nil {
			return err
		}
		states[r.Rank()] = rankState{q: q, buf: buf}

		if _, err := c.EnqueueWriteBuffer(q, buf, true, 0, pattern(r.Rank(), 1), nil); err != nil {
			return err
		}
		if _, err := r.CoordinatedCheckpoint(c, "job.global"); err != nil {
			return err
		}

		// Between checkpoints, rank 1's proxy crashes.
		if r.Rank() == 1 {
			c.Proxy().Kill()
		}
		// Both ranks keep computing; rank 1's write triggers a transparent
		// failover under the hood.
		if _, err := c.EnqueueWriteBuffer(q, buf, true, 0, pattern(r.Rank(), 2), nil); err != nil {
			return err
		}
		if r.Rank() == 1 && c.FailoverStats().Failovers != 1 {
			t.Errorf("rank 1: failovers = %d, want 1", c.FailoverStats().Failovers)
		}
		if r.Rank() == 0 && c.FailoverStats().Failovers != 0 {
			t.Errorf("rank 0: failovers = %d, want 0", c.FailoverStats().Failovers)
		}

		// The second coordinated checkpoint must capture the post-crash
		// state from the failed-over proxy.
		if _, err := r.CoordinatedCheckpoint(c, "job.global"); err != nil {
			return err
		}
		// Whole job dies; only the global snapshot survives.
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
		data, _, err := c.EnqueueReadBuffer(states[rank].q, states[rank].buf, true, 0, n, nil)
		if err != nil {
			t.Fatalf("rank %d read after restore: %v", rank, err)
		}
		want := pattern(rank, 2)
		for i := range want {
			if data[i] != want[i] {
				t.Fatalf("rank %d: buf[%d] = %d, want %d (post-crash generation)", rank, i, data[i], want[i])
			}
		}
		c.Detach()
	}
}
