package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/store"
	"checl/internal/vtime"
)

// restoreJob is the read half's test job: n buffers of size bytes each — the
// even ones seeded random, the odd ones low-entropy ramps — under an
// incremental CheCL, and a 6-node 4+2 fleet with the store's default
// chunking to checkpoint it into. fill(i, gen) is what buffer i holds after
// being written in generation gen.
type restoreJob struct {
	c      *CheCL
	q      ocl.CommandQueue
	mems   []ocl.Mem
	size   int
	fl     *store.Fleet
	states []*proc.NodeState
	disks  []*proc.FS
}

func (j *restoreJob) fill(i, gen int) []byte {
	data := make([]byte, j.size)
	if i%2 == 0 {
		rand.New(rand.NewSource(int64(1000*gen + i))).Read(data)
	} else {
		for k := range data {
			data[k] = byte(k/64 + i + gen)
		}
	}
	return data
}

func (j *restoreJob) write(t *testing.T, c *CheCL, i, gen int) {
	t.Helper()
	if _, err := c.EnqueueWriteBuffer(j.q, j.mems[i], true, 0, j.fill(i, gen), nil); err != nil {
		t.Fatal(err)
	}
}

func newRestoreJob(t *testing.T, n, size int) *restoreJob {
	t.Helper()
	j := &restoreJob{size: size}
	nodes := make([]store.FleetNode, 6)
	for i := range nodes {
		name := fmt.Sprintf("ck-%02d", i)
		fs := proc.NewFS(name, hw.TableISpec().LocalDisk)
		ns := proc.NewNodeState(name)
		fs.SetNodeState(ns)
		nodes[i] = store.FleetNode{Name: name, FS: fs}
		j.states, j.disks = append(j.states, ns), append(j.disks, fs)
	}
	var err error
	if j.fl, err = store.NewFleet(nodes, store.FleetConfig{}); err != nil {
		t.Fatal(err)
	}
	_, j.c = attach(t, newNodeNV("src"), Options{Incremental: true})
	plats, err := j.c.GetPlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	devs, err := j.c.GetDeviceIDs(plats[0], ocl.DeviceTypeGPU)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := j.c.CreateContext(devs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if j.q, err = j.c.CreateCommandQueue(ctx, devs[0], 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m, err := j.c.CreateBuffer(ctx, ocl.MemReadWrite, int64(size), nil)
		if err != nil {
			t.Fatal(err)
		}
		j.mems = append(j.mems, m)
		j.write(t, j.c, i, 0)
	}
	return j
}

// readBack returns what buffer i holds on the device behind c.
func (j *restoreJob) readBack(t *testing.T, c *CheCL, i int) []byte {
	t.Helper()
	data, _, err := c.EnqueueReadBuffer(j.q, j.mems[i], true, 0, int64(j.size), nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fleetFiles hashes every file on every fleet disk.
func (j *restoreJob) fleetFiles(t *testing.T) map[string][sha256.Size]byte {
	t.Helper()
	out := map[string][sha256.Size]byte{}
	for _, fs := range j.disks {
		for _, p := range fs.List() {
			data, err := fs.ReadFile(vtime.NewClock(), p)
			if err != nil {
				t.Fatal(err)
			}
			out[fs.Name()+":"+p] = sha256.Sum256(data)
		}
	}
	return out
}

// TestRestoreLandsOnce: a restore costs the image a small fixed number of
// times, not once per layer. Of a 32 MiB incremental job in a 4+2 fleet it
// allocates the payload the chunks inflate into — which the process's
// regions and the buffers' staging copies then are — the packs as the
// filesystem model hands them over, the device memory, and the upload's
// frames: under 3.5 images healthy and 4.5 with two nodes down, where the
// lost shards are solved for as well. A copy per layer (joined blob, chunk
// buffer, payload, regions, staging) was about 7.
//
// Under the race detector sync.Pool drops one Put in four on purpose, so
// the pooled inflaters and frame buffers are made again and again: that is
// worth another image and a half, and still tells 3 copies from 7.
func TestRestoreLandsOnce(t *testing.T) {
	const n, size = 32, 1 << 20
	slack := uint64(0)
	if raceDetector {
		slack = n * size * 3 / 2
	}
	j := newRestoreJob(t, n, size)
	if _, err := j.c.CheckpointToStore(j.fl, "job"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		j.write(t, j.c, i, 1)
	}
	if _, err := j.c.CheckpointToStore(j.fl, "job"); err != nil {
		t.Fatal(err)
	}
	j.c.App().Kill()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		procs, down int
		limit       uint64
	}{{1, 0, n * size * 7 / 2}, {2, 2, n * size * 9 / 2}, {8, 0, n * size * 7 / 2}, {8, 2, n * size * 9 / 2}} {
		runtime.GOMAXPROCS(tc.procs)
		for i := 0; i < tc.down; i++ {
			j.states[i].SetDown(true)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, rst, err := RestoreFromStore(newNodeNV("tgt"), j.fl, "job", Options{Incremental: true})
		runtime.ReadMemStats(&after)
		if err != nil || rst.Degraded != nil {
			t.Fatalf("GOMAXPROCS %d, %d down: restore: %v %v", tc.procs, tc.down, err, rst.Degraded)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, tc.limit+slack; got > limit {
			t.Errorf("GOMAXPROCS %d, %d down: restoring a %d MiB job allocated %.1f MiB, want under %.1f",
				tc.procs, tc.down, n*size>>20, float64(got)/(1<<20), float64(limit)/(1<<20))
		}
		for i := 0; i < n; i++ {
			gen := 0
			if i < 8 {
				gen = 1
			}
			if !bytes.Equal(j.readBack(t, c, i), j.fill(i, gen)) {
				t.Fatalf("GOMAXPROCS %d, %d down: buffer %d restored differs", tc.procs, tc.down, i)
			}
		}
		c.App().Kill()
		c.Detach()
		for i := 0; i < tc.down; i++ {
			j.states[i].SetDown(false)
		}
	}
}

// TestRestoredBuffersOwnTheirBytes: the restored buffers' staging copies
// are ranges of one payload, and each is its buffer's alone. Overwriting
// one buffer and checkpointing again moves neither its neighbours nor a
// byte of what the store already held, and the old generation restores as
// it was.
func TestRestoredBuffersOwnTheirBytes(t *testing.T) {
	const n, size = 6, 256 << 10
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		j := newRestoreJob(t, n, size)
		ck, err := j.c.CheckpointToStore(j.fl, "job")
		if err != nil {
			t.Fatal(err)
		}
		j.c.App().Kill()
		stored := j.fleetFiles(t)

		c, _, err := RestoreFromStore(newNodeNV("tgt"), j.fl, "job", Options{Incremental: true})
		if err != nil {
			t.Fatal(err)
		}
		// Scribble over the staging copy of buffer 2 from end to end, the way a
		// drain lands a read in it, then overwrite the buffer itself.
		for _, m := range c.db.orderedMems() {
			if len(m.Data) != size || cap(m.Data) != size {
				t.Fatalf("GOMAXPROCS %d: buffer %v staged as %d bytes with room for %d", procs, m.H, len(m.Data), cap(m.Data))
			}
		}
		victim := c.db.orderedMems()[2]
		for k := range victim.Data {
			victim.Data[k] = 0xEE
		}
		j.write(t, c, 2, 1)
		for i := 0; i < n; i++ {
			want := j.fill(i, 0)
			if i == 2 {
				want = j.fill(2, 1)
			}
			if !bytes.Equal(j.readBack(t, c, i), want) {
				t.Fatalf("GOMAXPROCS %d: buffer %d moved when buffer 2 was overwritten", procs, i)
			}
		}
		if _, err := c.CheckpointToStore(j.fl, "job"); err != nil {
			t.Fatal(err)
		}
		now := j.fleetFiles(t)
		for path, sum := range stored {
			if now[path] != sum {
				t.Fatalf("GOMAXPROCS %d: %s changed under a restored job's next checkpoint", procs, path)
			}
		}
		for gen, ref := range []string{ck.Manifest, "job"} {
			c2, _, err := RestoreFromStore(newNodeNV("tgt2"), j.fl, ref, Options{Incremental: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				want := j.fill(i, 0)
				if i == 2 {
					want = j.fill(2, gen)
				}
				if !bytes.Equal(j.readBack(t, c2, i), want) {
					t.Fatalf("GOMAXPROCS %d: %s: buffer %d restored differs", procs, ref, i)
				}
			}
			c2.App().Kill()
			c2.Detach()
		}
		c.App().Kill()
		c.Detach()
		runtime.GOMAXPROCS(prev)
	}
}
