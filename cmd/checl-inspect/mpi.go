package main

import (
	"errors"
	"fmt"

	"checl/internal/core"
	"checl/internal/hw"
	"checl/internal/mpi"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/store"
)

// mpiCmd runs a partial-restart demonstration: an epoch-structured MPI
// job (ring exchange + allreduce + coordinated store checkpoint per
// epoch) with sender-side message logging, kills one rank mid-epoch, and
// restores it in place from its per-rank segment of the committed
// generation while the survivors keep running. The output is the operator
// view of the recovery: per-rank progress and log bytes at the instant of
// death, the replay/suppression accounting, and the final log footprint.
func mpiCmd(ranks, epochs, killRank, killOp int) {
	if ranks < 2 {
		fatal(fmt.Errorf("mpi: need at least 2 ranks, got %d", ranks))
	}
	cluster := proc.NewCluster("pc", ranks, hw.TableISpec(), func(int) []*ocl.Vendor {
		return []*ocl.Vendor{ocl.AMD()}
	})
	st := store.New(cluster.NFS, store.Config{})
	const job = "mpijob"

	inj := mpi.NewRankFaultInjector(mpi.RankFaultPlan{
		Seed:  42,
		Kills: []mpi.RankKill{{Rank: killRank, AtOp: killOp}},
	})
	w, err := mpi.NewWorldWithOptions(cluster, ranks, mpi.Options{LogMessages: true, Fault: inj})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mpi: %d ranks over %d nodes, %d epochs of ring+allreduce+checkpoint into store %q\n",
		ranks, len(cluster.Nodes), epochs, job)
	how := "chosen explicitly"
	if killRank == -1 {
		how = "picked by seed 42"
	}
	fmt.Printf("  fault plan:  kill rank %d at its MPI op %d (victim %s)\n",
		inj.Victims()[0], killOp, how)

	checls := make([]*core.CheCL, ranks)
	body := func(r *mpi.Rank) error {
		rank := r.Rank()
		if checls[rank] == nil {
			c, err := core.Attach(r.Process(), core.Options{})
			if err != nil {
				return err
			}
			plats, _ := c.GetPlatformIDs()
			devs, _ := c.GetDeviceIDs(plats[0], ocl.DeviceTypeAll)
			ctx, err := c.CreateContext(devs[:1])
			if err != nil {
				return err
			}
			q, err := c.CreateCommandQueue(ctx, devs[0], 0)
			if err != nil {
				return err
			}
			buf, err := c.CreateBuffer(ctx, ocl.MemReadWrite, 256<<10, nil)
			if err != nil {
				return err
			}
			state := make([]byte, 256<<10)
			for i := range state {
				state[i] = byte(rank + i)
			}
			if _, err := c.EnqueueWriteBuffer(q, buf, true, 0, state, nil); err != nil {
				return err
			}
			checls[rank] = c
		}
		size := r.Size()
		for e := r.World().Generation(); e < epochs; e++ {
			payload := make([]byte, 4<<10)
			for i := range payload {
				payload[i] = byte(rank*31 + e*7 + i)
			}
			if err := r.Send((rank+1)%size, 1, payload); err != nil {
				return err
			}
			if _, err := r.Recv((rank+size-1)%size, 1); err != nil {
				return err
			}
			if _, err := r.AllreduceSum(float64(rank+1) * float64(e+1)); err != nil {
				return err
			}
			if _, err := r.CoordinatedCheckpointToStore(checls[rank], st, job); err != nil {
				return err
			}
		}
		return nil
	}

	// Mid-death snapshot, captured in the recovery handler while the
	// victim is a corpse and the survivors are parked on it.
	var deadArrivals, deadLogBytes []int64
	var deadStats mpi.LogStats
	var report *mpi.PartialRestore

	err = w.RunWithRecovery(body, func(r *mpi.Rank, k *mpi.RankKilled) error {
		deadArrivals = w.RankArrivals()
		deadLogBytes = w.RankLogBytes()
		deadStats = w.LogStats()
		fmt.Printf("\nrank %d died at its MPI op %d (committed generation %d, manifest %s)\n",
			k.Rank, k.Op, w.Generation(), w.CommittedManifest())
		c, pr, err := w.RestoreRank(st, job, r.Rank(), core.Options{})
		if err != nil {
			return err
		}
		checls[r.Rank()] = c
		report = pr
		return nil
	})
	if err != nil {
		var unsup *mpi.PartialRestoreUnsupported
		if errors.As(err, &unsup) {
			fmt.Printf("\npartial restore unsupported (%s): fall back to RestoreGlobalFromStore\n", unsup.Reason)
		}
		fatal(err)
	}

	fmt.Println("\nper-rank view with the victim down and the survivors parked on it:")
	fmt.Printf("  %-6s %-10s %-16s %s\n", "rank", "node", "barrier-gens", "outbound-log-bytes")
	for i, r := range w.Ranks() {
		fmt.Printf("  %-6d %-10s %-16d %d\n", i, r.Node().Name, deadArrivals[i], deadLogBytes[i])
	}
	fmt.Printf("  logged while down: %d entries, %d bytes (high water %d entries / %d bytes)\n",
		deadStats.Entries, deadStats.Bytes, deadStats.HighWaterEntries, deadStats.HighWaterBytes)

	fmt.Println("\npartial restore:")
	fmt.Printf("  source:      segment %q of %s (%d of the snapshot's bytes)\n",
		fmt.Sprintf("rank/%05d", report.Rank), report.Manifest, report.SegmentBytes)
	fmt.Printf("  replay:      %d messages, %d bytes re-queued in original send order\n",
		report.ReplayedMessages, report.ReplayedBytes)
	fmt.Printf("  restart:     %s total on the victim's node (object rebuild %s, recompile %s)\n",
		report.RecoveryVtime, report.Restart.Total, report.Restart.Recompile)

	rec := w.RecoveryStats()
	final := w.LogStats()
	fmt.Println("\nworld after recovery:")
	fmt.Printf("  generations: %d committed, final manifest %s\n", w.Generation(), w.CommittedManifest())
	fmt.Printf("  recovery:    %d kill(s), %d partial restore(s), %d duplicate send(s) suppressed\n",
		rec.Kills, rec.PartialRestores, rec.SuppressedSends)
	fmt.Printf("  stall:       survivors parked %s of virtual time across %d waits\n",
		rec.SurvivorStallVtime, rec.SurvivorStalls)
	fmt.Printf("  logs:        %d live entries (%d truncated at commits), high water %d entries / %d bytes\n",
		final.Entries, final.TruncatedEntries, final.HighWaterEntries, final.HighWaterBytes)
}
