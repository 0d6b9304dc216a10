package core

// Transport parity: the ring transport must be observationally identical
// to the framed stream. The soaks of matrix_test.go run every benchmark app on
// both transports, clean and under seeded kill plans; the tests here check
// that checkpoints, their drains and their stored generations do not
// depend on the transport either.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/proxy"
	"checl/internal/store"
	"checl/internal/vtime"
)

// testTransports names both transports for test messages, framed first.
var testTransports = []struct {
	name string
	tr   proxy.Transport
}{{"framed", proxy.TransportPipe}, {"ring", proxy.TransportRing}}

// TestTransportParityCheckpointDigest: a checkpoint taken on one
// transport restores to identical buffer contents on either transport —
// the checkpoint image is transport-agnostic.
func TestTransportParityCheckpointDigest(t *testing.T) {
	run := func(tr proxy.Transport) map[Handle]string {
		node := newNodeNV("pc0")
		_, c := attach(t, node, Options{AutoFailover: true, Transport: tr})
		app := setupVaddApp(t, c, 256)
		app.launch(t)
		app.finish(t)
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
		AutoFailover: true,
		Transport:    proxy.TransportRing,
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
	run := func(name string, tr proxy.Transport) (enqueue, sync, total vtime.Duration) {
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
			t.Fatalf("%s: the signalled checkpoint did not fire", name)
		}
		return enqueue, st.Phases.Sync, app.Elapsed()
	}
	transfer := hw.TableISpec().Inter.PCIeHtoD.Transfer(size)
	var totals [2]vtime.Duration
	for i, tc := range testTransports {
		enqueue, sync, total := run(tc.name, tc.tr)
		totals[i] = total
		t.Logf("%s: enqueue %v + sync %v = %v (device transfer %v), application %v", tc.name, enqueue, sync, enqueue+sync, transfer, total)
		if d := enqueue + sync - transfer; d < -transfer/100 || d > transfer/100 {
			t.Errorf("%s: enqueue %v + sync %v = %v, want the %v device transfer within 1%%", tc.name, enqueue, sync, enqueue+sync, transfer)
		}
	}
	if totals[1] > totals[0] {
		t.Errorf("the application took %v on the ring, %v on the framed pipe", totals[1], totals[0])
	}
}

// TestTransportParityStoredGenerations: a ckpt_cycle-shaped job (buffers
// rewritten window by window, one more dirtied by a kernel, an incremental
// checkpoint into a 4+2 fleet after each generation) stores the same
// generations on either transport. Every generation's size, segment map,
// region segments and their chunk refs are equal; what differs is the
// instant on the application's clock, which the transport does move: the
// manifest's CreatedAt and the image head's stamp, which is that instant
// too, and so the head's chunk ref.
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
			app.finish(t)
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
		// The head's stamp sits behind the magic and the version.
		for _, gen := range []*generation{&f, &r} {
			stamp := gen.segments["_head"][10:18]
			if at := vtime.Time(binary.BigEndian.Uint64(stamp)); at != gen.man.CreatedAt {
				t.Errorf("generation %d: head stamped %v, the checkpoint was at %v", g+1, at, gen.man.CreatedAt)
			}
			clear(stamp)
			head := gen.man.Segments[0].Chunks
			gen.man.Chunks = gen.man.Chunks[head:]
		}
		if f.man.Size != r.man.Size || !reflect.DeepEqual(f.man.Chunks, r.man.Chunks) || !reflect.DeepEqual(f.man.Segments, r.man.Segments) {
			t.Errorf("generation %d: framed %d bytes in %d chunks %v, ring %d bytes in %d chunks %v", g+1,
				f.man.Size, len(f.man.Chunks), f.man.Segments, r.man.Size, len(r.man.Chunks), r.man.Segments)
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
