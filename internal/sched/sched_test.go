package sched

import (
	"strings"
	"testing"

	"checl/internal/core"
	"checl/internal/hw"
	"checl/internal/vtime"
)

func planner() *Planner {
	// A model in the ballpark the Fig. 8 fit produces on Table I hardware.
	return &Planner{Model: core.CostModel{Alpha: 3.5e-8, Beta: 0.1}}
}

func TestEstimateRuntimeOrdering(t *testing.T) {
	const work = 1e12
	cpu := EstimateRuntime(work, hw.CoreI7920())
	tesla := EstimateRuntime(work, hw.TeslaC1060())
	radeon := EstimateRuntime(work, hw.RadeonHD5870())
	if !(radeon < tesla && tesla < cpu) {
		t.Errorf("runtime ordering wrong: radeon %v, tesla %v, cpu %v", radeon, tesla, cpu)
	}
}

func TestEvaluateLongJobMigrates(t *testing.T) {
	p := planner()
	// A long job on the CPU with a GPU slot free: the ~20x speedup dwarfs
	// the migration cost.
	job := JobState{
		Name: "md-long", RemainingFlops: 1e13, MemBytes: 64 << 20,
		RecompileTime: 100 * vtime.Millisecond,
		Device:        hw.CoreI7920(), NodeName: "pc-0",
	}
	slot := Slot{NodeName: "pc-1", Device: hw.TeslaC1060()}
	m, ok := p.Evaluate(job, slot)
	if !ok {
		t.Fatal("long CPU job should migrate to a free GPU")
	}
	if m.Gain <= 0 || m.ToNode != "pc-1" {
		t.Errorf("move = %+v", m)
	}
	if !strings.Contains(m.String(), "md-long") {
		t.Errorf("String() = %q", m.String())
	}
}

func TestEvaluateShortJobStays(t *testing.T) {
	p := planner()
	// A nearly-finished job: the migration cost exceeds any speedup.
	job := JobState{
		Name: "short", RemainingFlops: 1e8, MemBytes: 512 << 20,
		RecompileTime: 2 * vtime.Second, // an S3D-like recompile bill
		Device:        hw.CoreI7920(), NodeName: "pc-0",
	}
	slot := Slot{NodeName: "pc-1", Device: hw.RadeonHD5870()}
	if _, ok := p.Evaluate(job, slot); ok {
		t.Error("short job should not pay a multi-second migration")
	}
}

func TestEvaluateDowngradeNeverPays(t *testing.T) {
	p := planner()
	job := JobState{
		Name: "gpu-job", RemainingFlops: 1e12, MemBytes: 16 << 20,
		Device: hw.TeslaC1060(), NodeName: "pc-0",
	}
	slot := Slot{NodeName: "pc-1", Device: hw.CoreI7920()}
	if _, ok := p.Evaluate(job, slot); ok {
		t.Error("moving a GPU job to a CPU must never be a gain")
	}
}

func TestMinGainSuppressesChurn(t *testing.T) {
	p := planner()
	job := JobState{
		Name: "marginal", RemainingFlops: 2e12, MemBytes: 8 << 20,
		Device: hw.TeslaC1060(), NodeName: "pc-0",
	}
	// HD5870 is ~3x the Tesla: a marginal but positive gain.
	slot := Slot{NodeName: "pc-1", Device: hw.RadeonHD5870()}
	if _, ok := p.Evaluate(job, slot); !ok {
		t.Fatal("expected a positive-gain move without MinGain")
	}
	p.MinGain = 10 * vtime.Second
	if _, ok := p.Evaluate(job, slot); ok {
		t.Error("MinGain should suppress the marginal move")
	}
}

func TestPlanAssignsBestGainsFirst(t *testing.T) {
	p := planner()
	jobs := []JobState{
		{Name: "huge", RemainingFlops: 1e14, MemBytes: 32 << 20, Device: hw.CoreI7920(), NodeName: "cpu-0"},
		{Name: "medium", RemainingFlops: 1e12, MemBytes: 32 << 20, Device: hw.CoreI7920(), NodeName: "cpu-1"},
		{Name: "tiny", RemainingFlops: 1e7, MemBytes: 32 << 20, Device: hw.CoreI7920(), NodeName: "cpu-2"},
	}
	slots := []Slot{
		{NodeName: "gpu-0", Device: hw.RadeonHD5870()},
	}
	plan := p.Plan(jobs, slots)
	if len(plan) != 1 {
		t.Fatalf("plan = %v, want exactly one move (one slot)", plan)
	}
	if plan[0].Job != "huge" {
		t.Errorf("the single GPU slot should go to the biggest job, got %s", plan[0].Job)
	}
}

func TestPlanOneMovePerJobAndSlot(t *testing.T) {
	p := planner()
	jobs := []JobState{
		{Name: "a", RemainingFlops: 1e13, MemBytes: 8 << 20, Device: hw.CoreI7920(), NodeName: "n0"},
		{Name: "b", RemainingFlops: 1e13, MemBytes: 8 << 20, Device: hw.CoreI7920(), NodeName: "n1"},
	}
	slots := []Slot{
		{NodeName: "g0", Device: hw.TeslaC1060()},
		{NodeName: "g1", Device: hw.RadeonHD5870()},
	}
	plan := p.Plan(jobs, slots)
	if len(plan) != 2 {
		t.Fatalf("plan = %v, want 2 moves", plan)
	}
	seenJob := map[string]bool{}
	seenSlot := map[string]bool{}
	for _, m := range plan {
		if seenJob[m.Job] || seenSlot[m.ToNode] {
			t.Errorf("duplicate assignment in %v", plan)
		}
		seenJob[m.Job] = true
		seenSlot[m.ToNode] = true
	}
	// The faster device goes to a job; both jobs are identical, so the
	// higher-gain pairing is job->HD5870.
	for _, m := range plan {
		if m.ToNode == "g1" && m.Gain <= 0 {
			t.Errorf("bad gain for %v", m)
		}
	}
}

func TestPlanEmptyInputs(t *testing.T) {
	p := planner()
	if got := p.Plan(nil, nil); len(got) != 0 {
		t.Errorf("empty plan = %v", got)
	}
	if got := p.Plan([]JobState{{Name: "x", RemainingFlops: 1e12, Device: hw.CoreI7920()}}, nil); len(got) != 0 {
		t.Errorf("no slots plan = %v", got)
	}
}

func TestEstimateRuntimeZeroDevice(t *testing.T) {
	got := EstimateRuntime(1e9, hw.DeviceModel{})
	if !got.IsInf() {
		t.Errorf("zero-rate device estimate = %v, want vtime.Infinity", got)
	}
	if got != vtime.Infinity {
		t.Errorf("estimate = %v, want the typed Infinity sentinel", got)
	}
}

func TestEvaluateRejectsDegenerateSlot(t *testing.T) {
	p := planner()
	job := JobState{
		Name: "j", RemainingFlops: 1e13, MemBytes: 8 << 20,
		Device: hw.CoreI7920(), NodeName: "pc-0",
	}
	if _, ok := p.Evaluate(job, Slot{NodeName: "pc-1", Device: hw.DeviceModel{Name: "dead"}}); ok {
		t.Error("a zero-GFLOPS slot must never be schedulable")
	}
}

func TestEvaluateRescuesJobOffDegenerateDevice(t *testing.T) {
	p := planner()
	// A job stranded on a degenerate device gains Infinity from any
	// working slot, regardless of MinGain.
	p.MinGain = vtime.Minute
	job := JobState{
		Name: "stranded", RemainingFlops: 1e12, MemBytes: 8 << 20,
		Device: hw.DeviceModel{Name: "dead"}, NodeName: "pc-0",
	}
	m, ok := p.Evaluate(job, Slot{NodeName: "pc-1", Device: hw.TeslaC1060()})
	if !ok {
		t.Fatal("stranded job should move to any working device")
	}
	if !m.Gain.IsInf() {
		t.Errorf("gain = %v, want Infinity", m.Gain)
	}
}

func TestEvaluateRejectsInsufficientGlobalMemory(t *testing.T) {
	p := planner()
	job := JobState{
		Name: "huge-ws", RemainingFlops: 1e13, MemBytes: 2 << 30, // 2 GiB
		Device: hw.CoreI7920(), NodeName: "pc-0",
	}
	// The HD5870 has 1 GiB of global memory: the job does not fit.
	if _, ok := p.Evaluate(job, Slot{NodeName: "pc-1", Device: hw.RadeonHD5870()}); ok {
		t.Error("job larger than the device's global memory must not move there")
	}
}

func TestMigrationCostUsesLiveDirtySet(t *testing.T) {
	p := planner()
	full := JobState{Name: "full", MemBytes: 512 << 20}
	inc := JobState{Name: "inc", MemBytes: 512 << 20, HasCheckpoint: true, DirtyBytes: 4 << 20}
	cf, ci := p.MigrationCost(full), p.MigrationCost(inc)
	if ci >= cf {
		t.Errorf("incremental cost %v should be far below full cost %v", ci, cf)
	}
	// A fully clean checkpointed job pays only image overhead + β.
	clean := JobState{Name: "clean", MemBytes: 512 << 20, HasCheckpoint: true}
	if c := p.MigrationCost(clean); c >= ci {
		t.Errorf("clean job cost %v should not exceed the dirty job's %v", c, ci)
	}
}

func TestEstimateRuntimeMatchesRoofline(t *testing.T) {
	// The planner's estimator and the hw roofline must share the
	// sustained-efficiency constant: a pure-compute kernel's time (minus
	// launch overhead) equals the scheduler's runtime estimate.
	dev := hw.TeslaC1060()
	const flops = 1e12
	est := EstimateRuntime(flops, dev)
	kt := dev.KernelTime(flops, 0) - dev.LaunchOverhead
	diff := est - kt
	if diff < 0 {
		diff = -diff
	}
	if diff > vtime.Microsecond {
		t.Errorf("EstimateRuntime %v and roofline %v disagree — efficiency constants drifted", est, kt)
	}
}

// TestPlanDeterministicAcrossInputOrders is the fleet-rebalancer
// contract: equal-gain candidates tie-break stably (job name, then slot
// identity), so the plan is a pure function of the job and slot sets
// regardless of the order map iteration delivered them in.
func TestPlanDeterministicAcrossInputOrders(t *testing.T) {
	p := planner()
	// Four identical jobs and three identical slots: every candidate has
	// exactly the same gain, so only the tie-break decides.
	jobByName := map[string]JobState{}
	for _, n := range []string{"job-a", "job-b", "job-c", "job-d"} {
		jobByName[n] = JobState{
			Name: n, RemainingFlops: 1e13, MemBytes: 16 << 20,
			Device: hw.CoreI7920(), NodeName: "cpu-0",
		}
	}
	slotByKey := map[string]Slot{}
	for _, n := range []string{"gpu-0/dev0", "gpu-1/dev0", "gpu-2/dev0"} {
		s := Slot{NodeName: n[:5], Device: hw.TeslaC1060(), Key: n}
		slotByKey[n] = s
	}

	var want []Move
	for iter := 0; iter < 50; iter++ {
		// Map iteration order varies run to run; rebuilding the slices
		// from the maps each iteration exercises different input orders.
		var jobs []JobState
		for _, j := range jobByName {
			jobs = append(jobs, j)
		}
		var slots []Slot
		for _, s := range slotByKey {
			slots = append(slots, s)
		}
		plan := p.Plan(jobs, slots)
		if len(plan) != 3 {
			t.Fatalf("plan %v: want 3 moves", plan)
		}
		if want == nil {
			want = plan
			// The tie-break itself: alphabetical jobs onto alphabetical slots.
			for i, wj := range []string{"job-a", "job-b", "job-c"} {
				if plan[i].Job != wj || plan[i].ToSlot != []string{"gpu-0/dev0", "gpu-1/dev0", "gpu-2/dev0"}[i] {
					t.Fatalf("tie-break order wrong: %v", plan)
				}
			}
			continue
		}
		for i := range plan {
			if plan[i] != want[i] {
				t.Fatalf("iteration %d: plan diverged: %v vs %v", iter, plan, want)
			}
		}
	}
}

func TestPlanDuplicateSlotKeysCollapse(t *testing.T) {
	p := planner()
	jobs := []JobState{
		{Name: "a", RemainingFlops: 1e13, MemBytes: 8 << 20, Device: hw.CoreI7920(), NodeName: "n0"},
		{Name: "b", RemainingFlops: 1e13, MemBytes: 8 << 20, Device: hw.CoreI7920(), NodeName: "n1"},
	}
	// The same physical slot listed twice must still be assigned once.
	s := Slot{NodeName: "g0", Device: hw.TeslaC1060(), Key: "g0/dev0"}
	plan := p.Plan(jobs, []Slot{s, s})
	if len(plan) != 1 {
		t.Fatalf("duplicate slot produced %d moves: %v", len(plan), plan)
	}
}
