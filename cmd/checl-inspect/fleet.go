package main

import (
	"fmt"
	"strings"

	"checl/internal/fleet"
)

// fleetCmd runs a bursty fleet-scheduler scenario and renders the
// operator view: per-device utilization, queue-depth samples, migration
// and eviction counters, and the completion-latency histogram.
func fleetCmd(jobs int, seed int64, gpus, cpus, sample int, migration, preemption bool) {
	specs := fleet.Bursty(fleet.TrafficConfig{Seed: seed, Jobs: jobs})
	cfg := fleet.Config{
		Migration:   migration,
		Preemption:  preemption,
		SampleEvery: sample,
	}
	f := fleet.New(fleet.DefaultNodes(gpus, cpus), cfg)
	r, err := f.Run(specs)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("fleet: %d jobs over %d gpu + %d cpu nodes (seed %d, migration %v, preemption %v)\n",
		r.Jobs, gpus, cpus, seed, migration, preemption)
	fmt.Printf("  completed:    %d (%d rejected)  makespan %s  throughput %.3f jobs/s\n",
		r.Completed, len(r.Rejected), r.Makespan, r.ThroughputJobsPerSec)
	fmt.Printf("  latency:      mean %s | p50 %s | p90 %s | p99 %s | max %s\n",
		r.MeanLatency, r.P50Latency, r.P90Latency, r.P99Latency, r.MaxLatency)
	fmt.Printf("  queueing:     mean wait %s, peak depth %d\n", r.MeanWait, r.QueuePeak)
	fmt.Printf("  migrations:   %d (%.3f MB moved via live dirty sets)\n",
		r.Migrations, float64(r.MigratedBytes)/1e6)
	fmt.Printf("  preemptions:  %d evictions (%.3f MB parked), %d restores\n",
		r.Evictions, float64(r.EvictedBytes)/1e6, r.Restores)
	if sample > 0 {
		fmt.Printf("  real samples: %d jobs on the core+store path, %d round-trips, %d mismatches\n",
			r.RealJobs, r.RealRoundTrips, r.RealMismatches)
	}

	fmt.Println("\ndevice utilization:")
	for _, d := range r.Devices {
		fmt.Printf("  %-12s %-22s %4d jobs  %s %5.1f%%\n",
			d.Key, d.Device, d.JobsRun, bar(d.Utilization, 30), 100*d.Utilization)
	}

	if len(r.Samples) > 0 {
		peak := 1
		for _, s := range r.Samples {
			if s.Depth > peak {
				peak = s.Depth
			}
		}
		fmt.Println("\nqueue depth at rebalance ticks (p = parked evictees):")
		step := (len(r.Samples) + 19) / 20
		for i := 0; i < len(r.Samples); i += step {
			s := r.Samples[i]
			fmt.Printf("  %10s %s %d", s.At, bar(float64(s.Depth)/float64(peak), 30), s.Depth)
			if s.Parked > 0 {
				fmt.Printf(" (%dp)", s.Parked)
			}
			fmt.Println()
		}
	}

	if h := r.LatencyHistogram(10); len(h) > 0 {
		peak := 1
		for _, b := range h {
			if b.Count > peak {
				peak = b.Count
			}
		}
		fmt.Println("\ncompletion-latency histogram:")
		for _, b := range h {
			fmt.Printf("  <= %10s %s %d\n", b.UpTo, bar(float64(b.Count)/float64(peak), 30), b.Count)
		}
	}
}

func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return "[" + strings.Repeat("#", n) + strings.Repeat(".", width-n) + "]"
}
