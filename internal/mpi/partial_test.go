package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"checl/internal/core"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/store"
)

// The partial-restart scenario: an epoch-structured MPI+CheCL app where
// every epoch does a ring exchange, a Bcast, an AllreduceSum, a Barrier,
// a buffer write, and a coordinated store checkpoint. A restored rank
// resumes at the world's committed generation and re-executes from there;
// survivors run their epochs exactly once.

func ringMsg(rank, epoch, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rank*31 + epoch*7 + i)
	}
	return out
}

func bufPattern(rank, epoch, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rank*100 + epoch*10 + i)
	}
	return out
}

type scenario struct {
	cl     *proc.Cluster
	st     *store.Fleet
	w      *World
	job    string
	epochs int
	bufN   int

	checls []*core.CheCL
	qs     []ocl.CommandQueue
	bufs   []ocl.Mem

	sums     [][]float64
	bcasts   [][][]byte
	finals   [][]byte
	bodyRuns []int
	// ops[rank] after the first committed generation and at body end,
	// for calibrating deterministic kill positions.
	opsCommit1 []int
	opsTotal   []int

	mu       sync.Mutex
	partials []*PartialRestore
}

func newScenario(ranks, epochs int, opts Options) *scenario {
	cl := cluster(ranks)
	s := &scenario{
		cl:         cl,
		st:         store.New(cl.NFS, store.Config{}),
		job:        "pjob",
		epochs:     epochs,
		bufN:       64 << 10,
		checls:     make([]*core.CheCL, ranks),
		qs:         make([]ocl.CommandQueue, ranks),
		bufs:       make([]ocl.Mem, ranks),
		sums:       make([][]float64, ranks),
		bcasts:     make([][][]byte, ranks),
		finals:     make([][]byte, ranks),
		bodyRuns:   make([]int, ranks),
		opsCommit1: make([]int, ranks),
		opsTotal:   make([]int, ranks),
	}
	for i := 0; i < ranks; i++ {
		s.sums[i] = make([]float64, epochs)
		s.bcasts[i] = make([][]byte, epochs)
	}
	w, err := NewWorldWithOptions(cl, ranks, opts)
	if err != nil {
		panic(err)
	}
	s.w = w
	return s
}

func (s *scenario) body(r *Rank) error {
	rank := r.Rank()
	s.bodyRuns[rank]++
	if s.checls[rank] == nil {
		c, err := core.Attach(r.Process(), core.Options{})
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
		buf, err := c.CreateBuffer(ctx, ocl.MemReadWrite, int64(s.bufN), nil)
		if err != nil {
			return err
		}
		if _, err := c.EnqueueWriteBuffer(q, buf, true, 0, bufPattern(rank, 0, s.bufN), nil); err != nil {
			return err
		}
		s.checls[rank], s.qs[rank], s.bufs[rank] = c, q, buf
	}
	size := r.Size()
	for e := r.World().Generation(); e < s.epochs; e++ {
		c := s.checls[rank]
		if size > 1 {
			next, prev := (rank+1)%size, (rank+size-1)%size
			if err := r.Send(next, 1, ringMsg(rank, e, 64)); err != nil {
				return err
			}
			got, err := r.Recv(prev, 1)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, ringMsg(prev, e, 64)) {
				return fmt.Errorf("rank %d epoch %d: ring payload mismatch", rank, e)
			}
		}
		bc, err := r.Bcast(0, []byte{byte(e), 0xB0, byte(size)})
		if err != nil {
			return err
		}
		s.bcasts[rank][e] = append([]byte(nil), bc...)
		sum, err := r.AllreduceSum(float64((rank + 1) * (e + 1)))
		if err != nil {
			return err
		}
		s.sums[rank][e] = sum
		if err := r.Barrier(); err != nil {
			return err
		}
		if _, err := c.EnqueueWriteBuffer(s.qs[rank], s.bufs[rank], true, 0, bufPattern(rank, e+1, s.bufN), nil); err != nil {
			return err
		}
		if _, err := r.CoordinatedCheckpointToStore(c, s.st, s.job); err != nil {
			return err
		}
		if e == 0 {
			s.opsCommit1[rank] = r.World().OpCount(rank)
		}
	}
	data, _, err := s.checls[rank].EnqueueReadBuffer(s.qs[rank], s.bufs[rank], true, 0, int64(s.bufN), nil)
	if err != nil {
		return err
	}
	s.finals[rank] = data
	s.opsTotal[rank] = r.World().OpCount(rank)
	return nil
}

// recoverRank is the standard onKill handler: partial-restore the victim
// from the committed generation and swap in the restored CheCL.
func (s *scenario) recoverRank(r *Rank, _ *RankKilled) error {
	c, pr, err := s.w.RestoreRank(s.st, s.job, r.Rank(), core.Options{})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.checls[r.Rank()] = c
	s.partials = append(s.partials, pr)
	s.mu.Unlock()
	return nil
}

// assertMatchesBaseline checks bit-identity of every observable output
// against a fault-free run of the same shape.
func (s *scenario) assertMatchesBaseline(t *testing.T, base *scenario) {
	t.Helper()
	for rank := range s.sums {
		for e := range s.sums[rank] {
			if math.Float64bits(s.sums[rank][e]) != math.Float64bits(base.sums[rank][e]) {
				t.Errorf("rank %d epoch %d: allreduce %v != fault-free %v",
					rank, e, s.sums[rank][e], base.sums[rank][e])
			}
			if !bytes.Equal(s.bcasts[rank][e], base.bcasts[rank][e]) {
				t.Errorf("rank %d epoch %d: bcast payload diverged", rank, e)
			}
		}
		if !bytes.Equal(s.finals[rank], base.finals[rank]) {
			t.Errorf("rank %d: final buffer diverged from fault-free run", rank)
		}
	}
}

// baseline runs the scenario fault-free (with logging, so log paths are
// exercised identically) and returns it for comparison and calibration.
func baseline(t *testing.T, ranks, epochs int) *scenario {
	t.Helper()
	s := newScenario(ranks, epochs, Options{LogMessages: true})
	if err := s.w.Run(s.body); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPartialRestoreSingleKill kills one non-root rank mid-epoch and
// checks the full partial-restart contract: the job finishes bit-identical
// to the fault-free run, survivors never roll back (their bodies run
// once), messages were replayed and duplicate sends suppressed, and the
// recovery is reported in the stats.
func TestPartialRestoreSingleKill(t *testing.T) {
	const ranks, epochs = 4, 3
	base := baseline(t, ranks, epochs)
	victim := 2
	killOp := base.opsCommit1[victim] + 3 // mid-epoch 1, after gen 1 committed

	inj := NewRankFaultInjector(RankFaultPlan{Seed: 42, Kills: []RankKill{{Rank: victim, AtOp: killOp}}})
	s := newScenario(ranks, epochs, Options{LogMessages: true, Fault: inj})
	if err := s.w.RunWithRecovery(s.body, s.recoverRank); err != nil {
		t.Fatal(err)
	}
	s.assertMatchesBaseline(t, base)

	if len(inj.Events()) != 1 {
		t.Fatalf("fault events = %v", inj.Events())
	}
	for rank, runs := range s.bodyRuns {
		want := 1
		if rank == victim {
			want = 2
		}
		if runs != want {
			t.Errorf("rank %d body ran %d times, want %d (survivors must not roll back)", rank, runs, want)
		}
	}
	if len(s.partials) != 1 {
		t.Fatalf("partial restores = %d, want 1", len(s.partials))
	}
	pr := s.partials[0]
	if pr.Rank != victim || pr.Generation != 1 || pr.Manifest != "pjob@1" {
		t.Errorf("partial restore = %+v", pr)
	}
	if pr.ReplayedMessages == 0 || pr.ReplayedBytes == 0 {
		t.Errorf("no messages replayed: %+v", pr)
	}
	if pr.SegmentBytes <= 0 {
		t.Errorf("segment bytes = %d", pr.SegmentBytes)
	}
	if pr.RecoveryVtime <= 0 {
		t.Errorf("recovery vtime = %v", pr.RecoveryVtime)
	}
	rec := s.w.RecoveryStats()
	if rec.Kills != 1 || rec.PartialRestores != 1 {
		t.Errorf("recovery stats = %+v", rec)
	}
	if rec.SuppressedSends == 0 {
		t.Errorf("no duplicate sends suppressed: %+v", rec)
	}
	if rec.SurvivorStallVtime <= 0 || rec.SurvivorStalls == 0 {
		t.Errorf("no survivor stall accounted: %+v", rec)
	}
}

// TestPartialRestoreRootKill kills rank 0 — the collective root and
// checkpoint coordinator — mid-epoch. Its gather/bcast and store
// aggregation re-execute from replayed logs.
func TestPartialRestoreRootKill(t *testing.T) {
	const ranks, epochs = 4, 3
	base := baseline(t, ranks, epochs)
	killOp := base.opsCommit1[0] + 5

	inj := NewRankFaultInjector(RankFaultPlan{Seed: 7, Kills: []RankKill{{Rank: 0, AtOp: killOp}}})
	s := newScenario(ranks, epochs, Options{LogMessages: true, Fault: inj})
	if err := s.w.RunWithRecovery(s.body, s.recoverRank); err != nil {
		t.Fatal(err)
	}
	s.assertMatchesBaseline(t, base)
	if len(s.partials) != 1 || s.partials[0].Rank != 0 {
		t.Fatalf("partial restores = %+v", s.partials)
	}
}

// TestRankKillPositionSweep is the seeded soak: it sweeps the kill over
// every MPI-operation position of the victim after the first committed
// generation — including positions inside later coordinated checkpoint
// protocols — and requires bit-identical completion with exactly one
// partial restore each time (the TestPutFaultPositionSweep idea lifted to
// rank granularity).
func TestRankKillPositionSweep(t *testing.T) {
	const ranks, epochs = 4, 3
	const victim = 2
	base := baseline(t, ranks, epochs)
	first, last := base.opsCommit1[victim]+1, base.opsTotal[victim]
	if first >= last {
		t.Fatalf("calibration: ops after commit1 %d .. total %d", first, last)
	}
	for op := first; op <= last; op++ {
		inj := NewRankFaultInjector(RankFaultPlan{Seed: uint64(op), Kills: []RankKill{{Rank: victim, AtOp: op}}})
		s := newScenario(ranks, epochs, Options{LogMessages: true, Fault: inj})
		if err := s.w.RunWithRecovery(s.body, s.recoverRank); err != nil {
			t.Fatalf("kill at op %d: %v", op, err)
		}
		if ev := inj.Events(); len(ev) != 1 {
			t.Fatalf("kill at op %d did not land: %v", op, ev)
		}
		s.assertMatchesBaseline(t, base)
		for rank, runs := range s.bodyRuns {
			want := 1
			if rank == victim {
				want = 2
			}
			if runs != want {
				t.Fatalf("kill at op %d: rank %d body ran %d times, want %d", op, rank, runs, want)
			}
		}
		if rec := s.w.RecoveryStats(); rec.Kills != 1 || rec.PartialRestores != 1 {
			t.Fatalf("kill at op %d: recovery stats = %+v", op, rec)
		}
	}
}

// TestCollectivesDuringRecovery kills the victim right before its
// allreduce contribution: the survivors' Bcast completes while the victim
// is dead, the AllreduceSum completes once replay re-supplies the
// contribution, and everything is bit-identical to fault-free.
func TestCollectivesDuringRecovery(t *testing.T) {
	const ranks, epochs = 4, 2
	base := baseline(t, ranks, epochs)
	victim := 3
	// Non-root epoch op order: ring send, ring recv, bcast recv,
	// allreduce send, ... — kill at the allreduce contribution.
	killOp := base.opsCommit1[victim] + 4

	inj := NewRankFaultInjector(RankFaultPlan{Seed: 3, Kills: []RankKill{{Rank: victim, AtOp: killOp}}})
	s := newScenario(ranks, epochs, Options{LogMessages: true, Fault: inj})
	if err := s.w.RunWithRecovery(s.body, s.recoverRank); err != nil {
		t.Fatal(err)
	}
	s.assertMatchesBaseline(t, base)
	if rec := s.w.RecoveryStats(); rec.PartialRestores != 1 || rec.ReplayedMessages == 0 {
		t.Errorf("recovery stats = %+v", rec)
	}
}

// TestTwoRanksDieSameEpochFallsBack kills two ranks in the same epoch.
// Partial restore must refuse with the typed *PartialRestoreUnsupported
// (latching the world failed), and a full RestoreGlobalFromStore of the
// committed generation must still work.
func TestTwoRanksDieSameEpochFallsBack(t *testing.T) {
	const ranks, epochs = 4, 2
	base := baseline(t, ranks, epochs)
	// Both victims die at their epoch-1 ring-recv entry, after their ring
	// sends: two corpses in one epoch.
	inj := NewRankFaultInjector(RankFaultPlan{Seed: 11, Kills: []RankKill{
		{Rank: 1, AtOp: base.opsCommit1[1] + 2},
		{Rank: 2, AtOp: base.opsCommit1[2] + 2},
	}})
	s := newScenario(ranks, epochs, Options{LogMessages: true, Fault: inj})
	// Hold both recoveries until both kills have landed, so the restore
	// sees two ranks down no matter how the goroutines interleave.
	var bothDead sync.WaitGroup
	bothDead.Add(2)
	err := s.w.RunWithRecovery(s.body, func(r *Rank, k *RankKilled) error {
		bothDead.Done()
		bothDead.Wait()
		return s.recoverRank(r, k)
	})
	if err == nil {
		t.Fatal("two deaths in one epoch must not fully recover")
	}
	var unsup *PartialRestoreUnsupported
	if !errors.As(err, &unsup) {
		t.Fatalf("error = %v, want *PartialRestoreUnsupported", err)
	}
	if len(inj.Events()) != 2 {
		t.Fatalf("fault events = %v", inj.Events())
	}

	// Typed fallback: whole-job rollback to the committed generation.
	for _, r := range s.w.Ranks() {
		r.Process().Kill()
	}
	restored, deg, rerr := RestoreGlobalFromStore(s.cl, s.st, s.job, core.Options{})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if deg != nil {
		t.Fatalf("degraded full restore: %v", deg)
	}
	if len(restored) != ranks {
		t.Fatalf("restored %d ranks, want %d", len(restored), ranks)
	}
	for rank, c := range restored {
		data, _, err := c.EnqueueReadBuffer(base.qs[rank], base.bufs[rank], true, 0, int64(s.bufN), nil)
		if err != nil {
			t.Fatalf("rank %d read: %v", rank, err)
		}
		if want := bufPattern(rank, 1, s.bufN); !bytes.Equal(data, want) {
			t.Errorf("rank %d: rollback state is not the committed generation", rank)
		}
		c.Detach()
	}
}

// TestPartialRestoreStaleGeneration asks RestoreRank for an older
// generation than the committed one: its logs are truncated, so the typed
// degraded path must fire.
func TestPartialRestoreStaleGeneration(t *testing.T) {
	const ranks, epochs = 2, 3
	base := baseline(t, ranks, epochs)
	victim := 1
	killOp := base.opsTotal[victim] - 2 // in epoch 2, committed gen is pjob@2

	inj := NewRankFaultInjector(RankFaultPlan{Seed: 5, Kills: []RankKill{{Rank: victim, AtOp: killOp}}})
	s := newScenario(ranks, epochs, Options{LogMessages: true, Fault: inj})
	err := s.w.RunWithRecovery(s.body, func(r *Rank, _ *RankKilled) error {
		_, _, rerr := s.w.RestoreRank(s.st, "pjob@1", r.Rank(), core.Options{})
		return rerr
	})
	var unsup *PartialRestoreUnsupported
	if !errors.As(err, &unsup) {
		t.Fatalf("error = %v, want *PartialRestoreUnsupported", err)
	}
}

// TestPartialRestoreBeforeFirstCommit kills a rank before any coordinated
// generation commits: there is nothing to restore from, typed fallback.
func TestPartialRestoreBeforeFirstCommit(t *testing.T) {
	inj := NewRankFaultInjector(RankFaultPlan{Seed: 9, Kills: []RankKill{{Rank: 1, AtOp: 1}}})
	s := newScenario(2, 1, Options{LogMessages: true, Fault: inj})
	err := s.w.RunWithRecovery(s.body, s.recoverRank)
	var unsup *PartialRestoreUnsupported
	if !errors.As(err, &unsup) {
		t.Fatalf("error = %v, want *PartialRestoreUnsupported", err)
	}
}

// TestRankDownWithoutLogging: with message logging off, a rank death is a
// whole-job failure and every operation surfaces the typed ErrRankDown
// instead of hanging in the barrier.
func TestRankDownWithoutLogging(t *testing.T) {
	w, err := NewWorld(cluster(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) error {
		if r.Rank() == 1 {
			r.Process().Kill()
			return nil
		}
		// Parked receive must unwind with ErrRankDown, not deadlock.
		_, err := r.Recv(1, 1)
		return err
	})
	if !errors.Is(err, ErrRankDown) {
		t.Fatalf("error = %v, want ErrRankDown", err)
	}
	// Every subsequent operation fails the same way.
	r0 := w.Ranks()[0]
	if err := r0.Send(1, 1, []byte("x")); !errors.Is(err, ErrRankDown) {
		t.Errorf("send = %v, want ErrRankDown", err)
	}
	if err := r0.Barrier(); !errors.Is(err, ErrRankDown) {
		t.Errorf("barrier = %v, want ErrRankDown", err)
	}
}

// TestMessageLogBounded asserts the satellite guarantee: sender logs are
// truncated at every committed generation, so the high-water mark is one
// epoch's traffic no matter how many epochs run.
func TestMessageLogBounded(t *testing.T) {
	short := newScenario(4, 2, Options{LogMessages: true})
	if err := short.w.Run(short.body); err != nil {
		t.Fatal(err)
	}
	long := newScenario(4, 6, Options{LogMessages: true})
	if err := long.w.Run(long.body); err != nil {
		t.Fatal(err)
	}
	ls, ll := short.w.LogStats(), long.w.LogStats()
	if ll.Entries != 0 || ls.Entries != 0 {
		t.Errorf("entries after final commit: short %d, long %d — truncation broken", ls.Entries, ll.Entries)
	}
	if ll.TruncatedEntries <= ls.TruncatedEntries {
		t.Errorf("long run truncated %d <= short run %d", ll.TruncatedEntries, ls.TruncatedEntries)
	}
	// The bound: 3x the epochs, same high-water footprint. Entry counts are
	// exactly per-epoch traffic; bytes get a small tolerance because the
	// checkpoint-image payloads are not byte-constant across generations.
	if ll.HighWaterEntries != ls.HighWaterEntries {
		t.Errorf("log high-water grew across generations: short %d entries, long %d entries",
			ls.HighWaterEntries, ll.HighWaterEntries)
	}
	if float64(ll.HighWaterBytes) > 1.1*float64(ls.HighWaterBytes) {
		t.Errorf("log high-water bytes grew across generations: short %d, long %d",
			ls.HighWaterBytes, ll.HighWaterBytes)
	}
	if ls.HighWaterEntries == 0 || ls.HighWaterBytes == 0 {
		t.Errorf("nothing was ever logged: %+v", ls)
	}
}

// TestRankFaultInjectorSeededPick: Rank -1 resolves to a deterministic
// seeded victim.
func TestRankFaultInjectorSeededPick(t *testing.T) {
	a := NewRankFaultInjector(RankFaultPlan{Seed: 123, Kills: []RankKill{{Rank: -1, AtOp: 1}, {Rank: -1, AtOp: 1}}})
	a.bind(64)
	b := NewRankFaultInjector(RankFaultPlan{Seed: 123, Kills: []RankKill{{Rank: -1, AtOp: 1}, {Rank: -1, AtOp: 1}}})
	b.bind(64)
	av, bv := a.Victims(), b.Victims()
	if len(av) != 2 || av[0] != bv[0] || av[1] != bv[1] {
		t.Fatalf("same seed resolved different victims: %v vs %v", av, bv)
	}
	c := NewRankFaultInjector(RankFaultPlan{Seed: 124, Kills: []RankKill{{Rank: -1, AtOp: 1}, {Rank: -1, AtOp: 1}}})
	c.bind(64)
	cv := c.Victims()
	if av[0] == cv[0] && av[1] == cv[1] {
		t.Errorf("different seeds resolved identical victims: %v", cv)
	}
	for _, v := range append(av, cv...) {
		if v < 0 || v >= 64 {
			t.Errorf("victim %d out of range", v)
		}
	}
}

// TestRankFaultVictimsPinned pins the seeded victims a plan resolves in a
// world of seven: a change to the seeding or the draw cannot pass by
// agreeing with itself. A fixed rank takes no draw, and a second bind
// changes nothing.
func TestRankFaultVictimsPinned(t *testing.T) {
	f := NewRankFaultInjector(RankFaultPlan{Seed: 123, Kills: []RankKill{
		{Rank: -1, AtOp: 1}, {Rank: 2, AtOp: 3}, {Rank: -1, AtOp: 2},
		{Rank: -1, At: 5}, {Rank: -1, AtOp: 4}, {Rank: -1, AtOp: 9},
	}})
	f.bind(7)
	f.bind(64)
	if got := fmt.Sprint(f.Victims()); got != "[3 2 5 6 1 6]" {
		t.Fatalf("victims %s, want [3 2 5 6 1 6]", got)
	}
}
