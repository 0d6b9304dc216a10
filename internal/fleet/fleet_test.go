package fleet

import (
	"reflect"
	"testing"

	"checl/internal/hw"
	"checl/internal/proc"
	"checl/internal/vtime"
)

func testConfig() Config {
	return Config{
		Migration:  true,
		Preemption: true,
	}
}

func TestBurstyDeterministic(t *testing.T) {
	a := Bursty(TrafficConfig{Seed: 7, Jobs: 200})
	b := Bursty(TrafficConfig{Seed: 7, Jobs: 200})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traffic")
	}
	c := Bursty(TrafficConfig{Seed: 8, Jobs: 200})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traffic")
	}
	if len(a) != 200 {
		t.Fatalf("generated %d jobs, want 200", len(a))
	}
	prios := map[Priority]int{}
	for i, s := range a {
		if s.Flops <= 0 || s.MemBytes <= 0 || s.Recompile <= 0 {
			t.Fatalf("job %d has degenerate size: %+v", i, s)
		}
		prios[s.Priority]++
	}
	for _, p := range []Priority{Low, Normal, High} {
		if prios[p] == 0 {
			t.Errorf("no %s-priority jobs in 200", p)
		}
	}
}

func TestFleetDrainsAllJobs(t *testing.T) {
	specs := Bursty(TrafficConfig{Seed: 1, Jobs: 120})
	f := New(DefaultNodes(4, 2), testConfig())
	r, err := f.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed+len(r.Rejected) != r.Jobs || r.Jobs != 120 {
		t.Fatalf("completed %d + rejected %d != jobs %d", r.Completed, len(r.Rejected), r.Jobs)
	}
	if len(r.Rejected) != 0 {
		t.Errorf("default traffic fits Table I devices; rejected %v", r.Rejected)
	}
	if r.Makespan <= 0 || r.ThroughputJobsPerSec <= 0 {
		t.Errorf("degenerate makespan/throughput: %v / %v", r.Makespan, r.ThroughputJobsPerSec)
	}
	if r.P99Latency < r.P50Latency || r.MaxLatency < r.P99Latency {
		t.Errorf("percentiles out of order: p50 %v p99 %v max %v", r.P50Latency, r.P99Latency, r.MaxLatency)
	}
	if len(r.Devices) != 4*2+2 {
		t.Errorf("device reports = %d, want 10", len(r.Devices))
	}
}

func TestFleetDeterminism(t *testing.T) {
	specs := Bursty(TrafficConfig{Seed: 3, Jobs: 150})
	cfg := testConfig()
	a, err := New(DefaultNodes(3, 1), cfg).Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(DefaultNodes(3, 1), cfg).Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of identical traffic diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFleetMigrationBeatsBaseline is the PR's acceptance experiment in
// miniature: with rebalancing on, burst overflow that admission parked on
// slow CPU devices is rescued onto GPUs as they free up, which must
// improve BOTH throughput and tail latency.
func TestFleetMigrationBeatsBaseline(t *testing.T) {
	specs := Bursty(TrafficConfig{Seed: 42, Jobs: 300})
	base := testConfig()
	base.Migration = false
	mig := testConfig()

	rb, err := New(DefaultNodes(4, 2), base).Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := New(DefaultNodes(4, 2), mig).Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Migrations == 0 {
		t.Fatal("migration arm performed no migrations")
	}
	if rb.Migrations != 0 {
		t.Fatalf("baseline arm migrated %d times", rb.Migrations)
	}
	if rm.ThroughputJobsPerSec <= rb.ThroughputJobsPerSec {
		t.Errorf("migration throughput %.3f <= baseline %.3f jobs/s",
			rm.ThroughputJobsPerSec, rb.ThroughputJobsPerSec)
	}
	if rm.P99Latency >= rb.P99Latency {
		t.Errorf("migration p99 %v >= baseline %v", rm.P99Latency, rb.P99Latency)
	}
}

// TestFleetPreemptionEvictsLowPriority pins the checkpoint-evict-restore
// path on a single-device fleet: a long low-priority job must be parked
// for an arriving high-priority job and finish afterwards.
func TestFleetPreemptionEvictsLowPriority(t *testing.T) {
	nodes := []NodeSpec{{Name: "n0", Devices: []hw.DeviceModel{hw.TeslaC1060()}}}
	specs := []JobSpec{
		{Name: "bg", Arrival: 0, Flops: 5e12, MemBytes: 32 << 20, Recompile: 100 * vtime.Millisecond, Priority: Low},
		{Name: "vip", Arrival: vtime.Time(vtime.Second), Flops: 1e11, MemBytes: 16 << 20, Recompile: 50 * vtime.Millisecond, Priority: High},
	}
	f := New(nodes, testConfig())
	r, err := f.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 2 {
		t.Fatalf("completed %d of 2", r.Completed)
	}
	if r.Evictions != 1 || r.Restores != 1 {
		t.Fatalf("evictions %d restores %d, want 1/1", r.Evictions, r.Restores)
	}
	bg, vip := f.byName["bg"], f.byName["vip"]
	if bg.evictions != 1 {
		t.Errorf("bg evicted %d times, want 1", bg.evictions)
	}
	if vip.doneAt >= bg.doneAt {
		t.Errorf("vip finished at %v, after bg at %v", vip.doneAt, bg.doneAt)
	}
	// Without preemption the vip job waits out the full bg run instead.
	noPre := testConfig()
	noPre.Preemption = false
	r2, err := New(nodes, noPre).Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Evictions != 0 {
		t.Fatalf("preemption disabled but %d evictions", r2.Evictions)
	}
	if r.P99Latency <= 0 || r2.MaxLatency <= 0 {
		t.Fatal("degenerate latency stats")
	}
}

// TestFleetRealEvictionBitIdentical samples every job through a real
// CheCL application: the eviction must go through the actual core+store
// checkpoint path (killing the source incarnation) and the restore must
// bring every buffer back bit-identical.
func TestFleetRealEvictionBitIdentical(t *testing.T) {
	nodes := []NodeSpec{{Name: "n0", Devices: []hw.DeviceModel{hw.TeslaC1060()}}}
	specs := []JobSpec{
		{Name: "bg", Arrival: 0, Flops: 5e12, MemBytes: 32 << 20, Recompile: 100 * vtime.Millisecond, Priority: Low},
		{Name: "vip", Arrival: vtime.Time(vtime.Second), Flops: 1e11, MemBytes: 16 << 20, Recompile: 50 * vtime.Millisecond, Priority: High},
	}
	cfg := testConfig()
	cfg.SampleEvery = 1
	f := New(nodes, cfg)
	r, err := f.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if r.RealJobs != 2 {
		t.Fatalf("real jobs = %d, want 2", r.RealJobs)
	}
	if r.RealRoundTrips == 0 {
		t.Fatal("no real evict/restore round-trips despite an eviction")
	}
	if r.RealMismatches != 0 {
		t.Fatalf("%d real restores were not bit-identical", r.RealMismatches)
	}
	if r.Evictions == 0 || r.Restores == 0 {
		t.Fatalf("evictions %d restores %d", r.Evictions, r.Restores)
	}
}

// TestFleetSampledSoak drives a bursty run with sampling under load; the
// check.sh gate runs it with -race.
func TestFleetSampledSoak(t *testing.T) {
	specs := Bursty(TrafficConfig{Seed: 11, Jobs: 500})
	cfg := testConfig()
	cfg.SampleEvery = 50
	f := New(DefaultNodes(4, 2), cfg)
	r, err := f.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed+len(r.Rejected) != 500 {
		t.Fatalf("settled %d of 500", r.Completed+len(r.Rejected))
	}
	if r.RealJobs != 10 {
		t.Errorf("real jobs = %d, want 10", r.RealJobs)
	}
	if r.RealMismatches != 0 {
		t.Fatalf("%d corrupted real restores", r.RealMismatches)
	}
	if r.Migrations == 0 {
		t.Error("soak run performed no migrations")
	}
}

// TestFleetErasureStoreSoak parks sampled jobs in an erasure-coded
// checkpoint fleet whose store nodes crash, slow down, rot shards and
// tear writes mid-run; every restore must still come back bit-identical.
// The check.sh node-loss gate runs this with -race.
func TestFleetErasureStoreSoak(t *testing.T) {
	specs := Bursty(TrafficConfig{Seed: 23, Jobs: 300})
	cfg := testConfig()
	cfg.SampleEvery = 25
	f := New(DefaultNodes(4, 2), cfg)
	f.storeFaults = &proc.NodeFaultPlan{Seed: 42, EveryN: 7, ReviveAfter: 40}
	r, err := f.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed+len(r.Rejected) != 300 {
		t.Fatalf("settled %d of 300", r.Completed+len(r.Rejected))
	}
	if r.RealJobs != 12 {
		t.Errorf("real jobs = %d, want 12", r.RealJobs)
	}
	if r.RealMismatches != 0 {
		t.Fatalf("%d corrupted real restores through the erasure fleet", r.RealMismatches)
	}
	if f.rig == nil || len(f.rig.st.Nodes()) < 6 {
		t.Fatal("sampling rig did not build an erasure fleet")
	}
	if f.rig.inj == nil || f.rig.inj.Injected() == 0 {
		t.Error("node-fault injector never fired — soak exercised nothing")
	}
}

func TestFleetRejectsUnplaceable(t *testing.T) {
	nodes := []NodeSpec{{Name: "n0", Devices: []hw.DeviceModel{hw.TeslaC1060()}}}
	specs := []JobSpec{
		{Name: "fits", Arrival: 0, Flops: 1e10, MemBytes: 1 << 30},
		{Name: "huge", Arrival: 0, Flops: 1e10, MemBytes: 64 << 30}, // > 4 GB Tesla
	}
	r, err := New(nodes, testConfig()).Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 1 {
		t.Fatalf("completed %d, want 1", r.Completed)
	}
	if len(r.Rejected) != 1 || r.Rejected[0] != "huge" {
		t.Fatalf("rejected %v, want [huge]", r.Rejected)
	}
}

func TestFleetValidation(t *testing.T) {
	nodes := DefaultNodes(1, 0)
	if _, err := New(nodes, testConfig()).Run([]JobSpec{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Error("duplicate job names accepted")
	}
	if _, err := New(nodes, testConfig()).Run([]JobSpec{{}}); err == nil {
		t.Error("unnamed job accepted")
	}
	if _, err := New(nil, testConfig()).Run(nil); err == nil {
		t.Error("empty inventory accepted")
	}
	f := New(nodes, testConfig())
	if _, err := f.Run(nil); err != nil {
		t.Errorf("empty traffic should drain immediately: %v", err)
	}
	if _, err := f.Run(nil); err == nil {
		t.Error("second Run on the same fleet accepted")
	}
}

func TestReportHistogram(t *testing.T) {
	r := Report{Latencies: []vtime.Duration{
		vtime.Second, 2 * vtime.Second, 3 * vtime.Second, 10 * vtime.Second,
	}}
	h := r.LatencyHistogram(8)
	if len(h) == 0 {
		t.Fatal("no buckets")
	}
	total := 0
	for _, b := range h {
		total += b.Count
	}
	if total != 4 {
		t.Fatalf("histogram counted %d of 4 latencies", total)
	}
}
