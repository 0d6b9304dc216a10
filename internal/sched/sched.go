// Package sched implements the dynamic job scheduler the paper presents
// CheCL as an infrastructure for (§IV-C and §VI): given running jobs on a
// heterogeneous GPU cluster, it decides whether migrating a job to a
// faster node — or to a different device kind on the same node — pays off,
// using the fitted migration-cost model Tm = α·M + Tr + β.
//
// "If the performance difference between two nodes or between two compute
// devices for a process is large enough to justify the migration cost,
// the process should be migrated to a higher-performance node or compute
// device." — §IV-C.
package sched

import (
	"fmt"
	"sort"

	"checl/internal/core"
	"checl/internal/hw"
	"checl/internal/vtime"
)

// JobState is the scheduler's view of one running job.
type JobState struct {
	Name string
	// RemainingFlops is the job's estimated remaining computation.
	RemainingFlops float64
	// MemBytes is the job's working set. It bounds device placement
	// (a job cannot move onto a device with less global memory) and is
	// the checkpoint file size M of the cost model for a job that has
	// never checkpointed.
	MemBytes int64
	// HasCheckpoint marks a job with a committed checkpoint generation:
	// its next checkpoint is incremental, so the cost model's M is the
	// live dirty-set size (DirtyBytes) rather than the full working set.
	HasCheckpoint bool
	// DirtyBytes is the job's live incremental-checkpoint payload — the
	// bytes written since its last committed generation
	// (core.CheckpointStats.DirtyBytes). Only meaningful when
	// HasCheckpoint is true; a clean job migrates for the price of the
	// image overhead plus recompilation.
	DirtyBytes int64
	// RecompileTime is the job's measured program build time (the Tr of
	// the cost model; CheCL records it at clBuildProgram, see
	// core.RestartStats.Recompile).
	RecompileTime vtime.Duration
	// Device is the compute device the job currently runs on.
	Device hw.DeviceModel
	// NodeName locates the job.
	NodeName string
}

// Slot is one free compute device the scheduler may move a job onto.
type Slot struct {
	NodeName string
	Device   hw.DeviceModel
	// Key optionally identifies the slot when a node exposes several
	// devices of the same model (a fleet inventory). Empty means
	// NodeName/Device.Name is already unique.
	Key string
}

// key returns the slot's stable identity, used for deterministic
// tie-breaking and for mapping planned moves back onto physical devices.
func (s Slot) key() string {
	if s.Key != "" {
		return s.Key
	}
	return s.NodeName + "/" + s.Device.Name
}

// Move is one planned migration.
type Move struct {
	Job      string
	FromNode string
	ToNode   string
	ToDevice string
	// ToSlot is the stable identity of the chosen slot (Slot.Key, or
	// NodeName/Device.Name when no key was set).
	ToSlot string
	// Gain is the predicted completion-time improvement after paying the
	// migration cost. vtime.Infinity when the job is stranded on a
	// degenerate device and any finite placement rescues it.
	Gain vtime.Duration
	// MigrationCost is the predicted Tm.
	MigrationCost vtime.Duration
}

// Planner decides migrations with a calibrated cost model.
type Planner struct {
	// Model is the fitted Eq. 1 instance (see core.FitCostModel).
	Model core.CostModel
	// MinGain suppresses churn: a move must improve completion time by at
	// least this much. Zero means any positive gain qualifies.
	MinGain vtime.Duration
}

// EstimateRuntime predicts how long work flops take on dev. A degenerate
// device (zero compute rate) reports vtime.Infinity: work placed there
// never completes, and every consumer must treat the estimate as a typed
// rejection (Duration.IsInf) rather than a very large number.
func EstimateRuntime(flops float64, dev hw.DeviceModel) vtime.Duration {
	rate := dev.SustainedRate()
	if rate <= 0 {
		return vtime.Infinity
	}
	return vtime.FromSeconds(flops / rate)
}

// MigrationCost predicts Tm for moving the job. The checkpoint file size M
// is the live incremental dirty set when the job has a committed
// generation, else the full working set, plus a fixed image overhead.
func (p *Planner) MigrationCost(job JobState) vtime.Duration {
	const imageOverhead = 1 << 20 // host image beyond the staged buffers
	m := job.MemBytes
	if job.HasCheckpoint {
		m = job.DirtyBytes
	}
	return p.Model.Predict(m+imageOverhead, job.RecompileTime)
}

// Fits reports whether the job can run on the slot at all: the device must
// have a positive compute rate (EstimateRuntime would otherwise be
// infinite) and enough global memory for the job's working set.
func (s Slot) Fits(job JobState) bool {
	if s.Device.SustainedRate() <= 0 {
		return false
	}
	if s.Device.GlobalMemory > 0 && job.MemBytes > s.Device.GlobalMemory {
		return false
	}
	return true
}

// Evaluate decides whether moving job onto slot pays off. Slots the job
// does not fit (degenerate device, insufficient global memory) never
// qualify; a job stranded on a degenerate device gains vtime.Infinity from
// any slot it fits.
func (p *Planner) Evaluate(job JobState, slot Slot) (Move, bool) {
	if !slot.Fits(job) {
		return Move{}, false
	}
	stay := EstimateRuntime(job.RemainingFlops, job.Device)
	cost := p.MigrationCost(job)
	move := EstimateRuntime(job.RemainingFlops, slot.Device).SatAdd(cost)
	gain := stay.SatSub(move)
	if !gain.IsInf() && gain <= p.MinGain {
		return Move{}, false
	}
	return Move{
		Job:           job.Name,
		FromNode:      job.NodeName,
		ToNode:        slot.NodeName,
		ToDevice:      slot.Device.Name,
		ToSlot:        slot.key(),
		Gain:          gain,
		MigrationCost: cost,
	}, true
}

// Plan greedily assigns free slots to the jobs that gain the most. Each
// slot is used at most once and each job moves at most once.
//
// The plan is a pure function of the job and slot *sets*: equal-gain
// candidates tie-break on job name, then slot identity, so callers that
// build their inputs from map iteration (a fleet rebalancer re-planning
// every round) get the identical plan regardless of input order.
func (p *Planner) Plan(jobs []JobState, slots []Slot) []Move {
	type candidate struct {
		move Move
		job  int
		slot int
	}
	var cands []candidate
	for ji, job := range jobs {
		for si, slot := range slots {
			if m, ok := p.Evaluate(job, slot); ok {
				cands = append(cands, candidate{move: m, job: ji, slot: si})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].move.Gain != cands[j].move.Gain {
			return cands[i].move.Gain > cands[j].move.Gain
		}
		if cands[i].move.Job != cands[j].move.Job {
			return cands[i].move.Job < cands[j].move.Job
		}
		return cands[i].move.ToSlot < cands[j].move.ToSlot
	})
	usedJob := map[int]bool{}
	usedSlot := map[string]bool{}
	var plan []Move
	for _, c := range cands {
		if usedJob[c.job] || usedSlot[c.move.ToSlot] {
			continue
		}
		usedJob[c.job] = true
		usedSlot[c.move.ToSlot] = true
		plan = append(plan, c.move)
	}
	return plan
}

// String renders a move.
func (m Move) String() string {
	return fmt.Sprintf("%s: %s -> %s/%s (gain %s, cost %s)",
		m.Job, m.FromNode, m.ToNode, m.ToDevice, m.Gain, m.MigrationCost)
}
