package core

// Transport parity: the ring transport must be observationally identical
// to the framed stream. Every benchmark app runs on both transports,
// clean and under the same seeded kill plans, and the final buffer
// contents must be bit-identical across all arms. The framed stream is
// the reference, the IPC the paper's figures run on; the ring is the
// default transport and must never change results.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"checl/internal/apps"
	"checl/internal/hw"
	"checl/internal/ipc"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/proxy"
	"checl/internal/store"
	"checl/internal/vtime"
)

// runAppOn runs one benchmark app under CheCL on the given transport and
// returns the digest of every live buffer plus the proxy client stats of
// the (final) proxy.
func runAppOn(t *testing.T, a apps.App, scale float64, inj *ipc.FaultInjector, batch bool, tr proxy.Transport) (map[Handle]string, proxy.Stats) {
	t.Helper()
	node := newNodeNV("pc0")
	app := node.Spawn(a.Name)
	opts := Options{
		AutoFailover: true,
		Shadow:       ShadowFull,
		Fault:        inj,
		Transport:    tr,
	}
	c, err := Attach(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	if !batch {
		c.queueDepth = 1 // every command in a frame of its own
	}
	env := &apps.Env{API: c, DeviceMask: ocl.DeviceTypeGPU, Scale: scale}
	if _, err := a.Run(env); err != nil {
		t.Fatalf("%s on %v: %v", a.Name, tr, err)
	}
	digests := memDigests(t, c)
	return digests, c.Proxy().Client.Stats()
}

// ringKillPlan is faultKillPlan extended with the ring-specific fault
// points (torn slot publish, stalled consumer, arena poison). On the
// framed stream those kinds are inert; on the ring they land at the
// analogous protocol positions.
func ringKillPlan(seed uint64, everyN int) ipc.FaultPlan {
	p := faultKillPlan(seed, everyN)
	p.Kinds = append(append([]ipc.FaultKind(nil), p.Kinds...), ipc.RingFaultKinds...)
	return p
}

func diffDigests(t *testing.T, arm string, want, got map[Handle]string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: object count diverged: %d vs %d", arm, len(want), len(got))
	}
	for h, w := range want {
		if g, ok := got[h]; !ok {
			t.Errorf("%s: buffer %v missing", arm, h)
		} else if g != w {
			t.Errorf("%s: buffer %v contents diverged: %s vs %s", arm, h, g, w)
		}
	}
}

// TestTransportParitySoak is the ring acceptance soak: every benchmark
// app on both transports, clean and under the same seeded kill-every-K +
// proxy-crash plan, with the submission queue at its full depth
// ("batched") and at depth 1, where every command ships in a frame of its
// own and every call past the first is a capacity flush ("unbatched").
// All arms must produce bit-identical buffer contents. The clean runs
// must both have used the queue; their call counts may differ, because
// the bulk cut that sends a write on its own call is priced from each
// transport's cost model.
func TestTransportParitySoak(t *testing.T) {
	scale := 0.2
	everyN := 40
	if testing.Short() {
		everyN = 80
	}
	for _, batch := range []bool{false, true} {
		batch := batch
		name := "unbatched"
		if batch {
			name = "batched"
		}
		t.Run(name, func(t *testing.T) {
			for _, a := range apps.All() {
				a := a
				t.Run(a.Name, func(t *testing.T) {
					ref, fstats := runAppOn(t, a, scale, nil, batch, proxy.TransportPipe)

					ringClean, rstats := runAppOn(t, a, scale, nil, batch, proxy.TransportRing)
					diffDigests(t, "ring-clean", ref, ringClean)
					if (fstats.Batched == 0) != (rstats.Batched == 0) {
						t.Errorf("only one transport used the queue: framed Batched=%d ring Batched=%d", fstats.Batched, rstats.Batched)
					}

					inj := ipc.NewFaultInjector(faultKillPlan(2026, everyN))
					framedFaulted, _ := runAppOn(t, a, scale, inj, batch, proxy.TransportPipe)
					diffDigests(t, "framed-faulted", ref, framedFaulted)

					rinj := ipc.NewFaultInjector(faultKillPlan(2026, everyN))
					ringFaulted, _ := runAppOn(t, a, scale, rinj, batch, proxy.TransportRing)
					diffDigests(t, "ring-faulted", ref, ringFaulted)
					if rinj.Injected() == 0 && inj.Injected() > 0 {
						t.Errorf("kill plan fired %d faults on framed but none on ring", inj.Injected())
					}
				})
			}
		})
	}
}

// TestTransportParityRingFaultKinds drives one app through the
// ring-extended kill plan (torn slots, stalled consumers, arena poison on
// top of the kill mix) and checks bit-identical results against a clean
// framed run. One app suffices: the ring-only kinds exercise transport
// machinery, not app behaviour.
func TestTransportParityRingFaultKinds(t *testing.T) {
	all := apps.All()
	if len(all) == 0 {
		t.Skip("no benchmark apps registered")
	}
	a := all[0]
	for _, cand := range all {
		if cand.Name == "Triad" { // chatty app: plenty of calls to fault
			a = cand
		}
	}
	ref, _ := runAppOn(t, a, 0.2, nil, false, proxy.TransportPipe)
	inj := ipc.NewFaultInjector(ringKillPlan(2026, 10))
	faulted, _ := runAppOn(t, a, 0.2, inj, false, proxy.TransportRing)
	diffDigests(t, "ring-extended-faults", ref, faulted)
	if inj.Injected() == 0 {
		t.Error("ring-extended plan injected nothing")
	}
}

// TestTransportParityCheckpointDigest: a checkpoint taken on one
// transport restores to identical buffer contents on either transport —
// the checkpoint image is transport-agnostic.
func TestTransportParityCheckpointDigest(t *testing.T) {
	run := func(tr proxy.Transport) map[Handle]string {
		node := newNodeNV("pc0")
		_, c := attach(t, node, Options{Shadow: ShadowFull, Transport: tr})
		app := setupVaddApp(t, c, 256)
		app.launch(t)
		if err := c.Finish(app.q); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Checkpoint(node.LocalDisk, "parity.ckpt"); err != nil {
			t.Fatal(err)
		}
		nc, _, err := Restore(node, node.LocalDisk, "parity.ckpt", Options{Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Detach()
		return memDigests(t, nc)
	}
	framed := run(proxy.TransportPipe)
	ring := run(proxy.TransportRing)
	diffDigests(t, "checkpoint-restore", framed, ring)
}

// TestRingCheckpointDrainConcurrent is the core half of the -race gate:
// a checkpoint's multi-stream drain runs over one ring with commands
// still queued, which its sync phase must flush first.
func TestRingCheckpointDrainConcurrent(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{
		Shadow:    ShadowFull,
		Transport: proxy.TransportRing,
	})
	app := setupVaddApp(t, c, 1024)
	app.launch(t)
	// Leave commands queued: the checkpoint's sync phase must flush them
	// before the preprocess reads begin.
	for i := 0; i < 8; i++ {
		if err := c.SetKernelArg(app.k, 3, 4, u32bytes(uint32(app.n))); err != nil {
			t.Fatal(err)
		}
	}
	if c.PendingBatch() == 0 {
		t.Fatal("nothing queued before the checkpoint; test proves nothing")
	}
	stats, err := c.Checkpoint(node.LocalDisk, "ringdrain.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if stats.DirtyBuffers < 3 {
		t.Errorf("the drain staged %d buffers, want the app's three", stats.DirtyBuffers)
	}
	if n := c.PendingBatch(); n != 0 {
		t.Errorf("%d commands still queued after the checkpoint", n)
	}
	app.verify(t)
}

// TestImmediateSyncIsTheInFlightWrite: an immediate-mode checkpoint
// signalled while a 16 MiB non-blocking write is in flight (the
// checkpoint-mode ablation's sequence) spends its sync phase waiting for
// whatever of that write the enqueue did not already cover. The ring
// returns the enqueue sooner, so its sync phase is longer than the
// framed one's, but on both transports enqueue + sync is the device
// transfer, and the application finishes no later on the ring.
func TestImmediateSyncIsTheInFlightWrite(t *testing.T) {
	const size = 16 << 20
	run := func(tr proxy.Transport) (enqueue, sync, total vtime.Duration) {
		node := newNodeNV("pc0")
		p, c := attach(t, node, Options{CkptFS: node.RAMDisk, CkptPath: "mode.ckpt", Transport: tr})
		app := vtime.NewStopwatch(node.Clock)
		plats, err := c.GetPlatformIDs()
		if err != nil {
			t.Fatal(err)
		}
		devs, err := c.GetDeviceIDs(plats[0], ocl.DeviceTypeGPU)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := c.CreateContext(devs)
		if err != nil {
			t.Fatal(err)
		}
		q, err := c.CreateCommandQueue(ctx, devs[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.CreateBuffer(ctx, ocl.MemReadWrite, size, nil)
		if err != nil {
			t.Fatal(err)
		}
		sw := vtime.NewStopwatch(node.Clock)
		if _, err := c.EnqueueWriteBuffer(q, m, false, 0, make([]byte, size), nil); err != nil {
			t.Fatal(err)
		}
		enqueue = sw.Elapsed()
		p.Signal(proc.SIGUSR1)
		if _, err := c.GetDeviceInfo(devs[0]); err != nil {
			t.Fatal(err)
		}
		if err := c.Finish(q); err != nil {
			t.Fatal(err)
		}
		st := c.LastCheckpoint()
		if st == nil {
			t.Fatalf("%v: the signalled checkpoint did not fire", tr)
		}
		return enqueue, st.Phases.Sync, app.Elapsed()
	}
	transfer := hw.TableISpec().Inter.PCIeHtoD.Transfer(size)
	var totals [2]vtime.Duration
	for i, tr := range []proxy.Transport{proxy.TransportPipe, proxy.TransportRing} {
		enqueue, sync, total := run(tr)
		totals[i] = total
		t.Logf("%v: enqueue %v + sync %v = %v (device transfer %v), application %v", tr, enqueue, sync, enqueue+sync, transfer, total)
		if d := enqueue + sync - transfer; d < -transfer/100 || d > transfer/100 {
			t.Errorf("%v: enqueue %v + sync %v = %v, want the %v device transfer within 1%%", tr, enqueue, sync, enqueue+sync, transfer)
		}
	}
	if totals[1] > totals[0] {
		t.Errorf("the application took %v on the ring, %v on the framed pipe", totals[1], totals[0])
	}
}

// TestTransportParityStoredGenerations: a ckpt_cycle-shaped job (buffers
// rewritten window by window, one more dirtied by a kernel, an incremental
// checkpoint into a 4+2 fleet after each generation) stores the same
// generations on either transport. Every generation's digest, size and
// segment bytes are equal, and its manifest differs in CreatedAt alone, the
// instant on the application's clock, which the transport does move.
func TestTransportParityStoredGenerations(t *testing.T) {
	const buffers, size, window, gens = 8, 256 << 10, 2, 4
	type generation struct {
		man      store.Manifest
		segments map[string][]byte
	}
	run := func(tr proxy.Transport) []generation {
		fl, _ := newTestFleet(t)
		node := newNodeNV("pc0")
		_, c := attach(t, node, Options{Incremental: true, Transport: tr})
		app := setupVaddApp(t, c, size/4)
		k, err := c.CreateKernel(app.prog, "scale")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		data := make([]byte, size)
		mems := make([]ocl.Mem, buffers)
		for i := range mems {
			rng.Read(data)
			if mems[i], err = c.CreateBuffer(app.ctx, ocl.MemReadWrite|ocl.MemCopyHostPtr, size, data); err != nil {
				t.Fatal(err)
			}
		}
		var out []generation
		for g := 0; g < gens; g++ {
			for s := 0; s < window; s++ {
				rng.Read(data)
				if _, err := c.EnqueueWriteBuffer(app.q, mems[(g*window+s)%buffers], false, 0, data, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.SetKernelArg(k, 0, 8, handleBytes(mems[(g*window+window)%buffers])); err != nil {
				t.Fatal(err)
			}
			if err := c.SetKernelArg(k, 1, 4, f32bytes(1.5)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.EnqueueNDRangeKernel(app.q, k, 1, [3]int{}, [3]int{size / 4}, [3]int{64}, nil); err != nil {
				t.Fatal(err)
			}
			if err := c.Finish(app.q); err != nil {
				t.Fatal(err)
			}
			st, err := c.CheckpointToStore(fl, "job")
			if err != nil {
				t.Fatal(err)
			}
			man, err := fl.Resolve(st.Manifest)
			if err != nil {
				t.Fatal(err)
			}
			gen := generation{man: man, segments: map[string][]byte{}}
			for _, sg := range man.Segments {
				if gen.segments[sg.Name], _, err = fl.GetSegment(vtime.NewClock(), man.ID(), sg.Name); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, gen)
		}
		return out
	}
	framed, ring := run(proxy.TransportPipe), run(proxy.TransportRing)
	for g := range framed {
		f, r := framed[g], ring[g]
		if f.man.Digest != r.man.Digest || f.man.Size != r.man.Size {
			t.Errorf("generation %d: framed %s (%d bytes), ring %s (%d bytes)", g+1, f.man.Digest, f.man.Size, r.man.Digest, r.man.Size)
		}
		for name, want := range f.segments {
			if got, ok := r.segments[name]; !ok || !bytes.Equal(got, want) {
				t.Errorf("generation %d: segment %s differs between the transports", g+1, name)
			}
		}
		if f.man.CreatedAt == r.man.CreatedAt {
			t.Errorf("generation %d: both checkpoints at %v; the transport should move the instant", g+1, f.man.CreatedAt)
		}
		f.man.CreatedAt, r.man.CreatedAt = 0, 0
		if !reflect.DeepEqual(f.man, r.man) {
			t.Errorf("generation %d: the manifests differ in more than CreatedAt", g+1)
		}
	}
}
