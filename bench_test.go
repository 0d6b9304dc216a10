// Root-level benchmarks: the experiments neither bench/ (the repo's
// benchmark: four workloads on the default path) nor cmd/checl-bench (the
// paper's Table I, Figs. 4-8 and the ablation tables) has a probe for.
// Each is named by the EXPERIMENTS.md line it reproduces:
//
//	go test -run '^$' -bench <name> -benchtime 1x .
package checl_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"checl/internal/apps"
	"checl/internal/core"
	"checl/internal/fleet"
	"checl/internal/hw"
	"checl/internal/ipc"
	"checl/internal/mpi"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/proxy"
	"checl/internal/store"
	"checl/internal/vtime"
)

const benchScale = 0.2

// benchCheCLApp attaches CheCL on a fresh NVIDIA node and runs the app.
func benchCheCLApp(b *testing.B, appName string, opts core.Options) (*proc.Node, *core.CheCL, apps.App) {
	b.Helper()
	node := proc.NewNode("bench", hw.TableISpec(), ocl.NVIDIA())
	p := node.Spawn(appName)
	c, err := core.Attach(p, opts)
	if err != nil {
		b.Fatal(err)
	}
	app, ok := apps.ByName(appName)
	if !ok {
		b.Fatalf("unknown app %s", appName)
	}
	env := &apps.Env{API: c, DeviceMask: ocl.DeviceTypeGPU, Scale: benchScale}
	if _, err := app.Run(env); err != nil {
		b.Fatal(err)
	}
	return node, c, app
}

// BenchmarkStoreDedup takes a 5-checkpoint sequence of one app into the
// content-addressed store and reports how well checkpoints 2..5 of the
// unchanged app deduplicate: the aggregate dedup ratio, the new bytes the
// whole sequence uploaded, and what flat files would have written instead.
func BenchmarkStoreDedup(b *testing.B) {
	const checkpoints = 5
	var totalBytes, newBytes int64
	for i := 0; i < b.N; i++ {
		node, c, _ := benchCheCLApp(b, "oclVectorAdd", core.Options{Incremental: true})
		st := store.New(node.LocalDisk, store.Config{
			MinChunk: 1 << 10, AvgChunk: 4 << 10, MaxChunk: 16 << 10,
		})
		totalBytes, newBytes = 0, 0
		for j := 0; j < checkpoints; j++ {
			cst, err := c.CheckpointToStore(st, "bench")
			if err != nil {
				b.Fatal(err)
			}
			totalBytes += cst.StorePut.TotalBytes
			newBytes += cst.StorePut.NewBytes
		}
		c.Detach()
	}
	b.ReportMetric(1-float64(newBytes)/float64(totalBytes), "dedup-ratio")
	b.ReportMetric(float64(newBytes)/1e6, "new-MB-written")
	b.ReportMetric(float64(totalBytes)/1e6, "flat-MB-equivalent")
}

// benchFleet builds an n-node erasure-coded checkpoint fleet with node
// states attached, fine chunking, for the erasure benchmarks.
func benchFleet(b *testing.B, n int) (*store.Fleet, []*proc.NodeState) {
	b.Helper()
	nodes := make([]store.FleetNode, n)
	states := make([]*proc.NodeState, n)
	for i := range nodes {
		name := fmt.Sprintf("ck-%02d", i)
		fs := proc.NewFS(name, hw.TableISpec().LocalDisk)
		states[i] = proc.NewNodeState(name)
		fs.SetNodeState(states[i])
		nodes[i] = store.FleetNode{Name: name, FS: fs}
	}
	fl, err := store.NewFleet(nodes, store.FleetConfig{
		Store: store.Config{MinChunk: 1 << 10, AvgChunk: 4 << 10, MaxChunk: 16 << 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	return fl, states
}

// BenchmarkErasureFleet is the PR 9 acceptance experiment: the
// erasure-coded sharded checkpoint fleet against the single-store +
// full-replica baseline. Arms report degraded-read latency (any m nodes
// down, restore still bit-identical), rebuild throughput after a node
// replacement, the cross-job dedup ratio over a population of similar
// jobs, and the physical storage overhead against PR 4's replication.
func BenchmarkErasureFleet(b *testing.B) {
	const payloadMB = 4
	mkPayload := func(seed int64) []byte {
		p := make([]byte, payloadMB<<20)
		rand.New(rand.NewSource(seed)).Read(p)
		return p
	}

	b.Run("degraded-read", func(b *testing.B) {
		var healthyMS, degradedMS float64
		for i := 0; i < b.N; i++ {
			fl, states := benchFleet(b, 6)
			clock := vtime.NewClock()
			data := mkPayload(1)
			if _, _, err := fl.Put(clock, "bench", data); err != nil {
				b.Fatal(err)
			}
			sw := vtime.NewStopwatch(clock)
			got, _, err := fl.Get(clock, "bench")
			if err != nil {
				b.Fatal(err)
			}
			healthyMS = sw.Elapsed().Seconds() * 1e3
			states[0].SetDown(true)
			states[3].SetDown(true)
			sw = vtime.NewStopwatch(clock)
			deg, _, err := fl.Get(clock, "bench")
			if err != nil {
				b.Fatal(err)
			}
			degradedMS = sw.Elapsed().Seconds() * 1e3
			if !bytes.Equal(got, data) || !bytes.Equal(deg, data) {
				b.Fatal("read not bit-identical")
			}
		}
		b.ReportMetric(healthyMS, "healthy-read-ms")
		b.ReportMetric(degradedMS, "degraded-read-ms")
		b.ReportMetric(degradedMS/healthyMS, "degraded-slowdown-x")
	})

	b.Run("rebuild", func(b *testing.B) {
		var st store.FleetScrubReport
		var took vtime.Duration
		for i := 0; i < b.N; i++ {
			fl, _ := benchFleet(b, 6)
			clock := vtime.NewClock()
			if _, _, err := fl.Put(clock, "bench", mkPayload(2)); err != nil {
				b.Fatal(err)
			}
			victim := fl.Nodes()[0]
			if err := fl.ReplaceNode(victim, proc.NewFS(victim, hw.TableISpec().LocalDisk)); err != nil {
				b.Fatal(err)
			}
			var err error
			sw := vtime.NewStopwatch(clock)
			if st, err = fl.Scrub(clock); err != nil {
				b.Fatal(err)
			}
			took = sw.Elapsed()
			if st.ShardsRebuilt == 0 {
				b.Fatal("rebuild re-coded nothing")
			}
		}
		b.ReportMetric(float64(st.BytesRebuilt)/1e6, "rebuilt-MB")
		b.ReportMetric(took.Seconds()*1e3, "rebuild-ms")
		b.ReportMetric(float64(st.BytesRebuilt)/1e6/took.Seconds(), "rebuild-MB/s")
	})

	b.Run("cross-job-dedup", func(b *testing.B) {
		const jobs = 100
		var ratio float64
		for i := 0; i < b.N; i++ {
			fl, _ := benchFleet(b, 8)
			clock := vtime.NewClock()
			base := mkPayload(3)
			var logical int64
			for j := 0; j < jobs; j++ {
				tail := make([]byte, 8<<10)
				rand.New(rand.NewSource(int64(500 + j))).Read(tail)
				p := append(append([]byte(nil), base...), tail...)
				logical += int64(len(p))
				if _, _, err := fl.Put(clock, fmt.Sprintf("job-%03d", j), p); err != nil {
					b.Fatal(err)
				}
			}
			ratio = float64(logical) / float64(fl.TotalStoredBytes())
		}
		b.ReportMetric(float64(jobs), "jobs")
		b.ReportMetric(ratio, "dedup-ratio-x")
	})

	b.Run("overhead-vs-replica", func(b *testing.B) {
		var fleetX, replicaX float64
		for i := 0; i < b.N; i++ {
			data := mkPayload(4)
			clock := vtime.NewClock()

			fl, _ := benchFleet(b, 6)
			if _, _, err := fl.Put(clock, "bench", data); err != nil {
				b.Fatal(err)
			}
			fleetX = float64(fl.TotalStoredBytes()) / float64(len(data))

			cfg := store.Config{MinChunk: 1 << 10, AvgChunk: 4 << 10, MaxChunk: 16 << 10}
			st, err := store.NewMirror(proc.NewFS("primary", hw.TableISpec().LocalDisk),
				proc.NewFS("replica", hw.TableISpec().LocalDisk), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := st.Put(clock, "bench", data); err != nil {
				b.Fatal(err)
			}
			replicaX = float64(st.TotalStoredBytes()) / float64(len(data))
		}
		b.ReportMetric(fleetX, "fleet-overhead-x")
		b.ReportMetric(replicaX, "replica-overhead-x")
	})
}

// BenchmarkScrubHeal measures the store's self-repair pass: a 3-generation
// checkpoint sequence on a disk with a mirror, a record in every 80 KiB of
// the disk's packs rotted at rest (a record is at most 64 KiB and a header
// long, so each flip is another record), and one Scrub healing every one of
// them back from the mirror. Reported metrics are the healed volume and the
// virtual time the repair pass cost.
func BenchmarkScrubHeal(b *testing.B) {
	var rep store.FleetScrubReport
	var healed store.HealStats
	var rotted int
	var scrubTime vtime.Duration
	for i := 0; i < b.N; i++ {
		clock := vtime.NewClock()
		disk := proc.NewFS("ckpt-disk", hw.TableISpec().LocalDisk)
		st, err := store.NewMirror(disk, proc.NewFS("replica-disk", hw.TableISpec().LocalDisk), store.Config{})
		if err != nil {
			b.Fatal(err)
		}

		base := make([]byte, 4<<20)
		rand.New(rand.NewSource(7)).Read(base)
		for gen := 0; gen < 3; gen++ {
			v := append([]byte(nil), base...)
			rand.New(rand.NewSource(int64(100 + gen))).Read(v[gen<<20 : gen<<20+(64<<10)])
			if _, _, err := st.Put(clock, "bench", v); err != nil {
				b.Fatal(err)
			}
		}
		rotted = 0
		for _, p := range disk.List() {
			if !strings.Contains(p, "/packs/") {
				continue
			}
			size, _ := disk.Size(p)
			for off := int64(40 << 10); off < size; off += 80 << 10 {
				disk.FlipBit(p, uint64(off)*8)
				rotted++
			}
		}
		sw := vtime.NewStopwatch(clock)
		rep, err = st.Scrub(clock)
		if err != nil {
			b.Fatal(err)
		}
		scrubTime = sw.Elapsed()
		if healed = st.Heals(); !rep.OK() || rotted == 0 || rep.ShardsRebuilt < rotted {
			b.Fatalf("scrub healed %d of %d rotted records, findings %v",
				rep.ShardsRebuilt, rotted, rep.Findings)
		}
	}
	b.ReportMetric(float64(healed.ShardsHealed), "healed-records")
	b.ReportMetric(float64(healed.ShardBytesHealed)/1e6, "healed-MB")
	b.ReportMetric(scrubTime.Seconds()*1e3, "scrub-ms")
}

// BenchmarkProxyFailover runs oclMatrixMul while a seeded plan crashes the
// proxy process every few calls (AutoFailover and its shadow copies absorb
// the crashes) and reports the recovery cost: failovers per run, API calls
// replayed to rebind the object database, and the virtual rebind latency.
func BenchmarkProxyFailover(b *testing.B) {
	var fs core.FailoverStats
	for i := 0; i < b.N; i++ {
		inj := ipc.NewFaultInjector(ipc.FaultPlan{
			Seed:      2026,
			EveryN:    6,
			SkipFirst: 5,
			Kinds:     []ipc.FaultKind{ipc.FaultCrashServer},
		})
		_, c, _ := benchCheCLApp(b, "oclMatrixMul", core.Options{
			AutoFailover: true,
			Fault:        inj,
		})
		fs = c.FailoverStats()
		if fs.Failovers == 0 {
			b.Fatal("no failover happened; benchmark measures nothing")
		}
		c.Detach()
	}
	b.ReportMetric(float64(fs.Failovers), "failovers/op")
	b.ReportMetric(float64(fs.ReplayedCalls), "replayed-calls/op")
	b.ReportMetric(fs.TotalRecovery.Seconds()*1e3, "recovery-ms")
	b.ReportMetric(fs.LastRecovery.Seconds()*1e3, "last-recovery-ms")
}

// benchProxyApp attaches CheCL and opens a context and queue for the
// hot-path sub-benchmarks.
func benchProxyApp(b *testing.B, opts core.Options) (*core.CheCL, ocl.Context, ocl.CommandQueue) {
	b.Helper()
	node := proc.NewNode("bench", hw.TableISpec(), ocl.NVIDIA())
	p := node.Spawn("bench")
	c, err := core.Attach(p, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Detach)
	plats, err := c.GetPlatformIDs()
	if err != nil {
		b.Fatal(err)
	}
	devs, err := c.GetDeviceIDs(plats[0], ocl.DeviceTypeGPU)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := c.CreateContext(devs)
	if err != nil {
		b.Fatal(err)
	}
	q, err := c.CreateCommandQueue(ctx, devs[0], 0)
	if err != nil {
		b.Fatal(err)
	}
	return c, ctx, q
}

// BenchmarkProxyCallOverhead measures the wall-clock (not virtual) cost
// of what bench/ has no probe for: an info query served from the object
// DB against one that is forwarded (EXPERIMENTS.md, PR 3), and 1 MB
// buffer traffic through CheCL on the framed stream against the
// shared-memory ring (EXPERIMENTS.md, PR 8).
func BenchmarkProxyCallOverhead(b *testing.B) {
	framed := core.Options{Transport: proxy.TransportPipe}
	ring := core.Options{Transport: proxy.TransportRing}
	// buffer creates a 1 MB device buffer, optionally filled.
	buffer := func(b *testing.B, c *core.CheCL, ctx ocl.Context, q ocl.CommandQueue, fill bool) ocl.Mem {
		b.Helper()
		m, err := c.CreateBuffer(ctx, ocl.MemReadWrite, 1<<20, nil)
		if err != nil {
			b.Fatal(err)
		}
		if fill {
			if _, err := c.EnqueueWriteBuffer(q, m, true, 0, make([]byte, 1<<20), nil); err != nil {
				b.Fatal(err)
			}
		}
		return m
	}
	roundTrips := func(b *testing.B, c *core.CheCL, before proxy.Stats) {
		b.Helper()
		st := c.Proxy().Client.Stats()
		b.ReportMetric(float64(st.Calls-before.Calls)/float64(b.N), "ipc-roundtrips/op")
	}

	// Immutable info served from the object DB: zero round trips once warm.
	b.Run("info-cached", func(b *testing.B) {
		c, _, _ := benchProxyApp(b, framed)
		before := c.Proxy().Client.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.GetPlatformIDs(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		roundTrips(b, c, before)
	})

	// A query CheCL cannot cache: the one-round-trip-per-call baseline.
	b.Run("info-forwarded", func(b *testing.B) {
		c, ctx, q := benchProxyApp(b, framed)
		m := buffer(b, c, ctx, q, false)
		before := c.Proxy().Client.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.GetMemObjectInfo(m); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		roundTrips(b, c, before)
	})

	// 1 MB blocking writes: zero-copy raw frames on the framed stream, the
	// payload crossing by reference on the ring.
	write := func(b *testing.B, opts core.Options) {
		c, ctx, q := benchProxyApp(b, opts)
		m := buffer(b, c, ctx, q, false)
		data := make([]byte, 1<<20)
		b.SetBytes(1 << 20)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.EnqueueWriteBuffer(q, m, true, 0, data, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	// 1 MB blocking reads into a caller-pooled destination: the raw frame
	// lands in the reused buffer; on the ring the server handler writes
	// straight into it.
	read := func(b *testing.B, opts core.Options) {
		c, ctx, q := benchProxyApp(b, opts)
		m := buffer(b, c, ctx, q, true)
		buf := make([]byte, 1<<20)
		b.SetBytes(1 << 20)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.EnqueueReadBufferInto(q, m, true, 0, 1<<20, nil, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("write-1MB-raw", func(b *testing.B) { write(b, framed) })
	b.Run("write-1MB-ring", func(b *testing.B) { write(b, ring) })
	b.Run("read-1MB-pooled", func(b *testing.B) { read(b, framed) })
	b.Run("read-1MB-ring", func(b *testing.B) { read(b, ring) })
}

// ---- concurrent incremental checkpointing (DESIGN.md §9) ----

// benchBufferSet attaches CheCL and populates count device buffers of
// size bytes each with deterministic pseudo-random content, the working
// set the checkpoint-path benchmarks drain.
func benchBufferSet(b *testing.B, opts core.Options, count int, size int64) (*proc.Node, *core.CheCL, ocl.CommandQueue, []ocl.Mem) {
	b.Helper()
	node := proc.NewNode("bench", hw.TableISpec(), ocl.NVIDIA())
	p := node.Spawn("bench")
	c, err := core.Attach(p, opts)
	if err != nil {
		b.Fatal(err)
	}
	plats, err := c.GetPlatformIDs()
	if err != nil {
		b.Fatal(err)
	}
	devs, err := c.GetDeviceIDs(plats[0], ocl.DeviceTypeGPU)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := c.CreateContext(devs)
	if err != nil {
		b.Fatal(err)
	}
	q, err := c.CreateCommandQueue(ctx, devs[0], 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, size)
	mems := make([]ocl.Mem, count)
	for i := range mems {
		if mems[i], err = c.CreateBuffer(ctx, ocl.MemReadWrite, size, nil); err != nil {
			b.Fatal(err)
		}
		rng.Read(data)
		if _, err := c.EnqueueWriteBuffer(q, mems[i], true, 0, data, nil); err != nil {
			b.Fatal(err)
		}
	}
	return node, c, q, mems
}

// BenchmarkIncrementalCopiedBytes measures the bytes the second
// checkpoint drains after the application rewrote one of eight buffers:
// full mode re-copies the whole working set, incremental mode copies the
// one dirty buffer and reuses the parent's chunk refs for the rest.
func BenchmarkIncrementalCopiedBytes(b *testing.B) {
	for _, inc := range []bool{false, true} {
		inc := inc
		name := "full"
		if inc {
			name = "incremental"
		}
		b.Run(name, func(b *testing.B) {
			var st core.CheckpointStats
			for i := 0; i < b.N; i++ {
				node, c, q, mems := benchBufferSet(b, core.Options{Incremental: inc}, 8, 1<<20)
				if _, err := c.Checkpoint(node.LocalDisk, "inc1.ckpt"); err != nil {
					b.Fatal(err)
				}
				if _, err := c.EnqueueWriteBuffer(q, mems[0], true, 0, make([]byte, 1<<20), nil); err != nil {
					b.Fatal(err)
				}
				var err error
				st, err = c.Checkpoint(node.LocalDisk, "inc2.ckpt")
				if err != nil {
					b.Fatal(err)
				}
				c.Detach()
			}
			b.ReportMetric(float64(st.DirtyBytes)/1e6, "copied-MB")
			b.ReportMetric(float64(st.CleanBytes)/1e6, "clean-MB")
			b.ReportMetric(st.Phases.Preprocess.Seconds()*1e6, "second-ckpt-preprocess-us")
		})
	}
}

// ---- speculative stop-free checkpointing (DESIGN.md §9) ----

// benchSpecSweep takes one store checkpoint of a 32-buffer working set
// with a violation fraction frac: after the epoch begins (speculative
// arm), frac of the buffers are rewritten — violating their in-flight
// copies — while blocking readbacks of the last buffer stand in for the
// application's continued execution, the time the speculative drain
// hides behind. The stop-drain arm performs the identical work before a
// conventional checkpoint.
func benchSpecSweep(b *testing.B, speculative bool, frac float64) core.CheckpointStats {
	b.Helper()
	const bufs, size = 32, int64(1 << 20)
	_, c, q, mems := benchBufferSet(b, core.Options{Mode: core.Delayed, Incremental: true}, bufs, size)
	defer c.Detach()
	st := store.New(proc.NewFS("spec-disk", hw.TableISpec().LocalDisk), store.Config{})

	if speculative {
		if err := c.BeginCheckpointEpoch(); err != nil {
			b.Fatal(err)
		}
	}
	junk := make([]byte, size)
	for i := 0; i < int(float64(bufs)*frac+0.5); i++ {
		if _, err := c.EnqueueWriteBuffer(q, mems[i], true, 0, junk, nil); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ { // app progress: blocking readbacks
		if _, _, err := c.EnqueueReadBuffer(q, mems[bufs-1], true, 0, size, nil); err != nil {
			b.Fatal(err)
		}
	}
	stats, err := c.CheckpointToStore(st, "sweep")
	if err != nil {
		b.Fatal(err)
	}
	c.WaitBackgroundWrite()
	return stats
}

// BenchmarkSpeculativeStall is the PR's acceptance experiment: the
// application-visible checkpoint stall of the stop-drain path vs the
// speculative epoch, on the Fig. 4 applications (re-running the app
// mid-epoch as the overlapped workload) and on a write-hot synthetic
// sweep over the violation fraction. At low violation the speculative
// stall must be an order of magnitude below stop-drain; at 100%
// violation every copy is retaken, and it must never be worse.
func BenchmarkSpeculativeStall(b *testing.B) {
	for _, appName := range []string{"oclVectorAdd", "oclMatrixMul", "oclDCT8x8"} {
		for _, spec := range []bool{false, true} {
			appName, spec := appName, spec
			mode := "stop-drain"
			if spec {
				mode = "speculative"
			}
			b.Run(fmt.Sprintf("app=%s/mode=%s", appName, mode), func(b *testing.B) {
				var stats core.CheckpointStats
				for i := 0; i < b.N; i++ {
					_, c, app := benchCheCLApp(b, appName, core.Options{Mode: core.Delayed, Incremental: true})
					st := store.New(proc.NewFS("spec-disk", hw.TableISpec().LocalDisk), store.Config{})
					if spec {
						if err := c.BeginCheckpointEpoch(); err != nil {
							b.Fatal(err)
						}
					}
					// The application keeps computing while the epoch drains.
					env := &apps.Env{API: c, DeviceMask: ocl.DeviceTypeGPU, Scale: benchScale}
					if _, err := app.Run(env); err != nil {
						b.Fatal(err)
					}
					var err error
					stats, err = c.CheckpointToStore(st, appName)
					if err != nil {
						b.Fatal(err)
					}
					c.WaitBackgroundWrite()
					c.Detach()
				}
				b.ReportMetric(stats.StallTime.Seconds()*1e6, "stall-us")
				b.ReportMetric(stats.Overlap.Seconds()*1e6, "overlap-us")
				b.ReportMetric(float64(stats.ViolatedBuffers), "violated")
			})
		}
	}
	for _, frac := range []float64{0, 0.25, 0.5, 1.0} {
		for _, spec := range []bool{false, true} {
			frac, spec := frac, spec
			mode := "stop-drain"
			if spec {
				mode = "speculative"
			}
			b.Run(fmt.Sprintf("sweep/f=%.2f/mode=%s", frac, mode), func(b *testing.B) {
				var stats core.CheckpointStats
				for i := 0; i < b.N; i++ {
					stats = benchSpecSweep(b, spec, frac)
				}
				b.ReportMetric(stats.StallTime.Seconds()*1e6, "stall-us")
				b.ReportMetric(stats.Phases.Preprocess.Seconds()*1e6, "drain-us")
				b.ReportMetric(stats.Overlap.Seconds()*1e6, "overlap-us")
				b.ReportMetric(float64(stats.RecopiedBytes)/1e6, "recopied-MB")
			})
		}
	}
}

// BenchmarkFleetBursty is the PR's acceptance experiment: 1000 bursty
// jobs over a heterogeneous Table I inventory, the no-migration arm
// against the migration arm (identical admission and preemption). With
// rebalancing on, burst overflow parked on slow CPU devices is rescued
// onto GPUs as they free, so migration must win on BOTH throughput and
// p99 completion latency.
func BenchmarkFleetBursty(b *testing.B) {
	for _, mig := range []bool{false, true} {
		mig := mig
		name := "no-migration"
		if mig {
			name = "migration"
		}
		b.Run(name, func(b *testing.B) {
			var r fleet.Report
			for i := 0; i < b.N; i++ {
				specs := fleet.Bursty(fleet.TrafficConfig{Seed: 42, Jobs: 1000})
				cfg := fleet.Config{
					Migration:  mig,
					Preemption: true,
				}
				var err error
				r, err = fleet.New(fleet.DefaultNodes(6, 2), cfg).Run(specs)
				if err != nil {
					b.Fatal(err)
				}
				if r.Completed+len(r.Rejected) != 1000 {
					b.Fatalf("settled %d of 1000 jobs", r.Completed+len(r.Rejected))
				}
			}
			b.ReportMetric(r.ThroughputJobsPerSec, "jobs/s")
			b.ReportMetric(r.P50Latency.Seconds()*1e3, "p50-ms")
			b.ReportMetric(r.P99Latency.Seconds()*1e3, "p99-ms")
			b.ReportMetric(r.MaxLatency.Seconds()*1e3, "max-ms")
			b.ReportMetric(float64(r.Migrations), "migrations")
			b.ReportMetric(float64(r.Evictions), "evictions")
		})
	}
}

// BenchmarkPartialRestart is the PR-7 acceptance experiment: recover one
// killed rank at world sizes 8/64/256, partial restart (segment fetch +
// message replay, survivors keep running) against the full global
// rollback. Partial recovery vtime should stay roughly flat as the world
// grows — it touches one rank's bytes — while full rollback re-reads and
// re-restores every rank.
func BenchmarkPartialRestart(b *testing.B) {
	const epochs = 2
	const job = "bjob"
	mkCluster := func(size int) *proc.Cluster {
		return proc.NewCluster("bc", size, hw.TableISpec(), func(int) []*ocl.Vendor {
			return []*ocl.Vendor{ocl.AMD()}
		})
	}
	// Minimal epoch body: ring exchange + coordinated store checkpoint.
	// Non-root op order per epoch: send(1) recv(2) barrier(3) barrier(4)
	// ckpt-send(5) commit-barrier(6) — op 8 is the epoch-1 ring recv,
	// safely after the first committed generation.
	const killOp = 8
	mkBody := func(st *store.Fleet, checls []*core.CheCL) func(*mpi.Rank) error {
		return func(r *mpi.Rank) error {
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
				buf, err := c.CreateBuffer(ctx, ocl.MemReadWrite, 64<<10, nil)
				if err != nil {
					return err
				}
				state := make([]byte, 64<<10)
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
				if err := r.Send((rank+1)%size, 1, []byte{byte(e)}); err != nil {
					return err
				}
				if _, err := r.Recv((rank+size-1)%size, 1); err != nil {
					return err
				}
				if _, err := r.CoordinatedCheckpointToStore(checls[rank], st, job); err != nil {
					return err
				}
			}
			return nil
		}
	}
	plan := func(victim int) *mpi.RankFaultInjector {
		return mpi.NewRankFaultInjector(mpi.RankFaultPlan{
			Seed:  1,
			Kills: []mpi.RankKill{{Rank: victim, AtOp: killOp}},
		})
	}
	for _, size := range []int{8, 64, 256} {
		size := size
		victim := size / 2
		b.Run(fmt.Sprintf("partial-%d", size), func(b *testing.B) {
			var pr *mpi.PartialRestore
			var rec mpi.RecoveryStats
			for i := 0; i < b.N; i++ {
				cl := mkCluster(size)
				st := store.New(cl.NFS, store.Config{})
				w, err := mpi.NewWorldWithOptions(cl, size, mpi.Options{
					LogMessages: true, Fault: plan(victim),
				})
				if err != nil {
					b.Fatal(err)
				}
				checls := make([]*core.CheCL, size)
				err = w.RunWithRecovery(mkBody(st, checls), func(r *mpi.Rank, _ *mpi.RankKilled) error {
					c, p, err := w.RestoreRank(st, job, r.Rank(), core.Options{})
					if err != nil {
						return err
					}
					checls[r.Rank()] = c
					pr = p
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if pr == nil || pr.Rank != victim {
					b.Fatalf("partial restore did not happen: %+v", pr)
				}
				rec = w.RecoveryStats()
			}
			b.ReportMetric(pr.RecoveryVtime.Seconds()*1e3, "recovery-vtime-ms")
			b.ReportMetric(float64(pr.SegmentBytes)/1e6, "restored-MB")
			b.ReportMetric(float64(rec.ReplayedMessages), "replayed-msgs")
			b.ReportMetric(rec.SurvivorStallVtime.Seconds()*1e3, "survivor-stall-ms")
		})
		b.Run(fmt.Sprintf("full-%d", size), func(b *testing.B) {
			var recovery vtime.Duration
			var restoredMB float64
			for i := 0; i < b.N; i++ {
				cl := mkCluster(size)
				st := store.New(cl.NFS, store.Config{})
				// Logging off: a rank death is unrecoverable in place and
				// the whole world unwinds — the classic global rollback.
				w, err := mpi.NewWorldWithOptions(cl, size, mpi.Options{Fault: plan(victim)})
				if err != nil {
					b.Fatal(err)
				}
				checls := make([]*core.CheCL, size)
				if err := w.Run(mkBody(st, checls)); !errors.Is(err, mpi.ErrRankDown) {
					b.Fatalf("run = %v, want ErrRankDown", err)
				}
				for _, r := range w.Ranks() {
					r.Process().Kill()
				}
				before := make([]vtime.Time, len(cl.Nodes))
				for n, node := range cl.Nodes {
					before[n] = node.Clock.Now()
				}
				restored, _, err := mpi.RestoreGlobalFromStore(cl, st, job, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				recovery = 0
				for n, node := range cl.Nodes {
					if d := node.Clock.Now().Sub(before[n]); d > recovery {
						recovery = d
					}
				}
				restoredMB = 0
				for _, c := range restored {
					restoredMB += 64.0 / 1024
					c.Detach()
					c.App().Kill()
				}
			}
			b.ReportMetric(recovery.Seconds()*1e3, "recovery-vtime-ms")
			b.ReportMetric(restoredMB, "restored-MB")
		})
	}
}

// BenchmarkInterpreterThroughput measures the clc executor through the ocl
// launch path on the three kernels bench/probes.go times directly — a
// streaming add, a 64-FMA inner loop and a __local tile transpose with a
// barrier — at the probes' geometry (wall-clock per launch; ns per work-item
// is ns/op over work-items/op).
func BenchmarkInterpreterThroughput(b *testing.B) {
	const src = `
__kernel void vadd(__global const float* a, __global const float* b, __global float* c, int n) {
    int i = (int)get_global_id(0);
    if (i < n) c[i] = a[i] + b[i];
}
__kernel void loop(__global float* a, int n) {
    int i = (int)get_global_id(0);
    if (i >= n) return;
    float x = a[i];
    for (int k = 0; k < 64; k++) x = x * 1.0001f + 0.5f;
    a[i] = x;
}
__kernel void transpose(__global const float* in, __global float* out, __local float* tile, int w, int h) {
    int x = (int)get_global_id(0);
    int y = (int)get_global_id(1);
    int lx = (int)get_local_id(0);
    int ly = (int)get_local_id(1);
    int lw = (int)get_local_size(0);
    if (x < w && y < h) tile[ly * lw + lx] = in[y * w + x];
    barrier(CLK_LOCAL_MEM_FENCE);
    int ox = (int)get_group_id(1) * (int)get_local_size(1) + lx;
    int oy = (int)get_group_id(0) * lw + ly;
    if (ox < h && oy < w) out[oy * h + ox] = tile[lx * lw + ly];
}`
	const n, side = 1 << 14, 128
	rt := ocl.NewRuntime(ocl.NVIDIA(), hw.TableISpec(), vtime.NewClock())
	plats, _ := rt.GetPlatformIDs()
	devs, _ := rt.GetDeviceIDs(plats[0], ocl.DeviceTypeAll)
	ctx, _ := rt.CreateContext(devs)
	q, _ := rt.CreateCommandQueue(ctx, devs[0], 0)
	prog, _ := rt.CreateProgramWithSource(ctx, src)
	if err := rt.BuildProgram(prog, ""); err != nil {
		b.Fatal(err)
	}
	le := func(v uint64, size int) []byte {
		out := make([]byte, size)
		for i := range out {
			out[i] = byte(v >> (8 * i))
		}
		return out
	}
	var bufs [3][]byte
	for i := range bufs {
		m, err := rt.CreateBuffer(ctx, ocl.MemReadWrite, 4*n, nil)
		if err != nil {
			b.Fatal(err)
		}
		bufs[i] = le(uint64(m), 8)
	}
	for _, arm := range []struct {
		kernel        string
		dims          int
		global, local [3]int
		args          [][]byte // nil: a 1 KiB __local allocation
	}{
		{"vadd", 1, [3]int{n}, [3]int{64}, [][]byte{bufs[0], bufs[1], bufs[2], le(n, 4)}},
		{"loop", 1, [3]int{n / 4}, [3]int{64}, [][]byte{bufs[2], le(n/4, 4)}},
		{"transpose", 2, [3]int{side, side}, [3]int{16, 16}, [][]byte{bufs[0], bufs[1], nil, le(side, 4), le(side, 4)}},
	} {
		b.Run(arm.kernel, func(b *testing.B) {
			k, err := rt.CreateKernel(prog, arm.kernel)
			if err != nil {
				b.Fatal(err)
			}
			items := 1
			for d := 0; d < arm.dims; d++ {
				items *= arm.global[d]
			}
			for i, a := range arm.args {
				size := int64(len(a))
				if a == nil {
					size = 4 * 16 * 16
				}
				if err := rt.SetKernelArg(k, i, size, a); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.EnqueueNDRangeKernel(q, k, arm.dims, [3]int{}, arm.global, arm.local, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(items), "work-items/op")
		})
	}
}
