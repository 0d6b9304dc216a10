package mpi

import (
	"sync"

	"checl/internal/fault"
	"checl/internal/vtime"
)

// Seeded, deterministic rank-level failure injection, analogous to
// ipc.FaultInjector (proxy kills) and proc.FaultInjector (disk faults):
// a RankFaultPlan kills rank r at its k-th MPI operation or at the first
// operation at/after a virtual instant. It has no cadence, so of their
// fault.Schedule it shares only the Splitmix draw, run from the raw seed.
// Kills land only at MPI operation boundaries — Send/Recv/Barrier/collective
// entries — so every failure point is a well-defined cut of the
// message-passing state, and the same plan over the same app reproduces
// the same failure bit for bit.

// RankKill is one planned kill.
type RankKill struct {
	Rank int        // victim rank; -1 picks one from the plan seed
	AtOp int        // fire at the victim's AtOp-th MPI operation (1-based)
	At   vtime.Time // when AtOp == 0: fire at the first operation at/after At
}

// RankFaultPlan is a seeded deterministic kill schedule.
type RankFaultPlan struct {
	Seed  uint64
	Kills []RankKill
}

// RankFaultEvent records one landed kill.
type RankFaultEvent struct {
	Rank int
	Op   int
	At   vtime.Time
}

// RankFaultInjector evaluates a RankFaultPlan against a world. Pass it
// via Options.Fault; one injector serves one world.
type RankFaultInjector struct {
	mu     sync.Mutex
	plan   RankFaultPlan
	rng    uint64
	bound  bool
	kills  []rankKillState
	events []RankFaultEvent
}

type rankKillState struct {
	RankKill
	fired bool
}

// NewRankFaultInjector builds an injector for the plan.
func NewRankFaultInjector(plan RankFaultPlan) *RankFaultInjector {
	return &RankFaultInjector{plan: plan, rng: plan.Seed}
}

// bind resolves seeded victim picks once the world size is known
// (called by NewWorldWithOptions).
func (f *RankFaultInjector) bind(size int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bound {
		return
	}
	f.bound = true
	for _, k := range f.plan.Kills {
		if k.Rank < 0 {
			k.Rank = int(fault.Splitmix(&f.rng) % uint64(size))
		}
		f.kills = append(f.kills, rankKillState{RankKill: k})
	}
}

// shouldKill reports whether an unfired kill matches this operation, and
// marks it fired.
func (f *RankFaultInjector) shouldKill(rank, op int, now vtime.Time) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.kills {
		k := &f.kills[i]
		if k.fired || k.Rank != rank {
			continue
		}
		if k.AtOp > 0 {
			if op != k.AtOp {
				continue
			}
		} else if now < k.At {
			continue
		}
		k.fired = true
		f.events = append(f.events, RankFaultEvent{Rank: rank, Op: op, At: now})
		return true
	}
	return false
}

// Events reports the kills that actually landed.
func (f *RankFaultInjector) Events() []RankFaultEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]RankFaultEvent(nil), f.events...)
}

// Victims reports the resolved victim ranks of the plan (after seeded
// picks), in plan order.
func (f *RankFaultInjector) Victims() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, len(f.kills))
	for i, k := range f.kills {
		out[i] = k.Rank
	}
	return out
}
