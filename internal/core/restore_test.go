package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"checl/internal/cpr"
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
		for _, m := range ordered(c.db.mems) {
			if len(m.Data) != size || cap(m.Data) != size {
				t.Fatalf("GOMAXPROCS %d: buffer %v staged as %d bytes with room for %d", procs, m.H, len(m.Data), cap(m.Data))
			}
		}
		victim := ordered(c.db.mems)[2]
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

// tappedStore decorates a store the way the benchmark's tracer does: it
// overrides GetNewestRestorable alone and hands the clock, the manifest and
// the results through as they are. It keeps what it saw of the last call.
type tappedStore struct {
	store.Backend
	calls int
	began vtime.Time     // where the read's clock stood when the call came
	man   store.Manifest // the manifest the call returned
}

func (s *tappedStore) GetNewestRestorable(clock *vtime.Clock, ref string, validate func([]byte, store.Manifest) error) ([]byte, store.Manifest, *store.DegradedRestore, error) {
	s.calls++
	s.began = clock.Now()
	data, man, deg, err := s.Backend.GetNewestRestorable(clock, ref, func(p []byte, m store.Manifest) error {
		return validate(p, m)
	})
	s.man = man
	return data, man, deg, err
}

// readFirstStore hands a restore its image as a plain Get would: the
// manifest it returns knows no instant at which a segment was there, so the
// process comes up once the whole image is, and the rebuild follows the
// read instead of running behind it.
type readFirstStore struct{ store.Backend }

func (s readFirstStore) GetNewestRestorable(clock *vtime.Clock, ref string, validate func([]byte, store.Manifest) error) ([]byte, store.Manifest, *store.DegradedRestore, error) {
	data, man, deg, err := s.Backend.GetNewestRestorable(clock, ref, validate)
	if err == nil {
		man, err = s.Resolve(man.ID())
	}
	return data, man, deg, err
}

// arrivals maps each region of the image s last read to the instant its
// segment was there, and reports the database region's and the read's end.
func (s *tappedStore) arrivals(t *testing.T) (regions map[string]vtime.Time, db, end vtime.Time) {
	t.Helper()
	ready := s.man.ReadyAt()
	if len(ready) == 0 || len(ready) != len(s.man.Segments) {
		t.Fatalf("%d segments, ready at %v", len(s.man.Segments), ready)
	}
	regions = map[string]vtime.Time{}
	for i, seg := range s.man.Segments {
		regions[seg.Name] = ready[i]
	}
	return regions, regions["region/"+dbRegion], ready[len(ready)-1]
}

// tappedCPR is the other decorator a restore passes through there: BLCR
// with RestartFromStore handed on.
type tappedCPR struct {
	cpr.BLCR
	calls int
}

func (b *tappedCPR) RestartFromStore(n *proc.Node, st store.Backend, ref string) (*proc.Process, cpr.Stats, *store.DegradedRestore, error) {
	b.calls++
	return b.BLCR.RestartFromStore(n, st, ref)
}

// uploadInstants reports when the restore that made c enqueued its last n
// buffer uploads, in upload order: the Queued stamps of the write events the
// proxy's runtime minted last. Nothing hands those events out, so they are
// looked up by handle — gen<<40 | seq<<8 | tag, see ocl.Runtime — downwards
// from a marker minted now. Call it before anything else enqueues.
func uploadInstants(t *testing.T, c *CheCL, n int) []vtime.Time {
	t.Helper()
	probe, err := c.px.Runtime.EnqueueMarker(ordered(c.db.queues)[0].real)
	if err != nil {
		t.Fatal(err)
	}
	const seqMask = uint64(0xffffffff) << 8
	top := uint64(probe)
	out := make([]vtime.Time, n)
	for seq := (top&seqMask)>>8 - 1; n > 0; seq-- {
		if seq == 0 {
			t.Fatalf("the runtime holds %d events short of the uploads", n)
		}
		if prof, err := c.px.Runtime.GetEventProfile(ocl.Event(top&^seqMask | seq<<8)); err == nil {
			n--
			out[n] = prof.Queued
		}
	}
	return out
}

func sumPerClass(rst RestartStats) (sum vtime.Duration) {
	for _, d := range rst.PerClass {
		sum += d
	}
	return sum
}

// TestRestoreOverlapsReadAndRebuild: a store restore rebuilds while its
// image is still arriving, and is honest about it. From a 4+2 fleet, healthy
// and with two nodes down, with one processor and with eight, the image's
// chunks in three generations' packs: the process is spawned while the
// disks are still reading, the proxy is forked and the program built behind
// the read, no buffer's upload is
// enqueued before its region was there, the restore ends exactly where its
// uploads, one after the other behind their regions' arrivals, end instead
// of a whole rebuild after the read, Total is exactly the
// waiting plus each class's own work, and what lands on the device is what
// a restore that reads the whole image first (readFirstStore) puts there —
// for the same work per class, one after the other.
func TestRestoreOverlapsReadAndRebuild(t *testing.T) {
	const n, size = 24, 1 << 20
	j := newRestoreJob(t, n, size)
	va := setupVaddApp(t, j.c, 4096)
	va.launch(t)
	if _, err := j.c.CheckpointToStore(j.fl, "job"); err != nil {
		t.Fatal(err)
	}
	// Two more generations: the image's chunks lie in three packs a node, and
	// the head — always rewritten — in the newest of them.
	for gen := 1; gen <= 2; gen++ {
		for i := 0; i < 6; i++ {
			j.write(t, j.c, 6*(gen-1)+i, gen)
		}
		if _, err := j.c.CheckpointToStore(j.fl, "job"); err != nil {
			t.Fatal(err)
		}
	}
	j.c.App().Kill()

	serialNode := newNodeNV("serial")
	serial, serialStats, err := RestoreFromStore(serialNode, readFirstStore{j.fl}, "job", Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	serialRead := serialStats.ReadTime
	want := memDigests(t, serial)
	serial.App().Kill()
	serial.Detach()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first RestartStats
	for _, tc := range []struct{ procs, down int }{{1, 0}, {8, 0}, {1, 2}, {8, 2}} {
		name := fmt.Sprintf("GOMAXPROCS %d, %d down", tc.procs, tc.down)
		runtime.GOMAXPROCS(tc.procs)
		for i := 0; i < tc.down; i++ {
			j.states[i].SetDown(true)
		}
		node := newNodeNV("tgt")
		node.Clock.Advance(7 * vtime.Millisecond)
		began := node.Clock.Now()
		tap := &tappedStore{Backend: j.fl}
		c, rst, err := RestoreFromStore(node, tap, "job", Options{Incremental: true})
		if err != nil || rst.Degraded != nil {
			t.Fatalf("%s: restore: %v %v", name, err, rst.Degraded)
		}
		mems := ordered(c.db.mems)
		uploads := uploadInstants(t, c, len(mems))
		regions, db, end := tap.arrivals(t)

		if tap.calls != 1 || tap.began != began {
			t.Errorf("%s: %d reads, the last from %v; the restore began at %v", name, tap.calls, tap.began, began)
		}
		if rst.ReadTime != end.Sub(began) {
			t.Errorf("%s: ReadTime %v, the read ran %v", name, rst.ReadTime, end.Sub(began))
		}
		work := sumPerClass(rst)
		if rst.Total != rst.ReadWait+work || rst.Total != node.Clock.Now().Sub(began) {
			t.Errorf("%s: Total %v, waited %v + worked %v, clock moved %v", name, rst.Total, rst.ReadWait, work, node.Clock.Now().Sub(began))
		}
		if rst.Total < rst.ReadTime {
			t.Errorf("%s: restored in %v from a read of %v", name, rst.Total, rst.ReadTime)
		}
		// The process is spawned when the head is there, which is one pack
		// into the read: the busiest of the disks is still reading its others.
		var disks vtime.Duration
		for i, fs := range j.disks[tc.down:] {
			disk := vtime.NewClock()
			for _, p := range fs.List() {
				if strings.Contains(p, "/packs/job/") {
					if _, err := fs.ReadFile(disk, p); err != nil {
						t.Fatal(err)
					}
				}
			}
			if d := disk.Now().Sub(0); d > disks {
				disks = d
			} else if d == 0 {
				t.Fatalf("%s: disk %d holds no pack of the job", name, tc.down+i)
			}
		}
		if spawned := regions["_head"]; spawned <= began || spawned >= began.Add(disks) {
			t.Errorf("%s: process spawned at %v; the read began at %v and the busiest disk has read its packs at %v", name, spawned, began, began.Add(disks))
		}
		for i, m := range mems {
			at, ok := regions["region/"+memRegion(m.H)]
			if !ok || uploads[i] < at {
				t.Errorf("%s: buffer %d uploaded at %v, its region arrived at %v (%v)", name, i, uploads[i], at, ok)
			}
		}
		if uploads[0] < db.Add(rst.PerClass["proxy"]+rst.PerClass["prog"]) {
			t.Errorf("%s: first upload at %v, database at %v, fork %v and build %v after it", name,
				uploads[0], db, rst.PerClass["proxy"], rst.PerClass["prog"])
		}
		if chain := work - rst.PerClass["mem"]; chain >= rst.ReadTime {
			t.Fatalf("%s: the job is too small to tell: rebuild chain %v, read %v", name, chain, rst.ReadTime)
		}
		// Each upload timed again on its own: the uploads from buffer i on
		// take rest[i].
		rest := make([]vtime.Duration, len(mems)+1)
		for i := len(mems) - 1; i >= 0; i-- {
			m := mems[i]
			sw := vtime.NewStopwatch(node.Clock)
			if _, err := c.px.Client.EnqueueWriteBuffer(c.anyQueueFor(m.Ctx).real, m.real, true, 0, m.Data, nil); err != nil {
				t.Fatal(err)
			}
			rest[i] = rest[i+1] + sw.Elapsed()
		}
		// The uploads go one after the other, each as soon as its region is
		// there and the rest of the rebuild — all of it but the uploads,
		// behind the database region — is done: the restore ends exactly at
		// the serial-upload makespan behind those instants, however many
		// regions arrive at once.
		rebuilt := db.Add(work - rest[0])
		var makespan vtime.Time
		for i, m := range mems {
			at := vtime.Max(regions["region/"+memRegion(m.H)], rebuilt)
			makespan = vtime.Max(makespan, at.Add(rest[i]))
		}
		if end := began.Add(rst.Total); end != makespan {
			t.Errorf("%s: restored at %v: read %v, rebuilt but for the uploads at %v, the uploads behind the regions' arrivals end at %v",
				name, end, rst.ReadTime, rebuilt, makespan)
		}

		if !reflect.DeepEqual(rst.PerClass, first.PerClass) && tc.procs > 1 {
			t.Errorf("%s: per class %v\nwith one processor %v", name, rst.PerClass, first.PerClass)
		}
		if tc.procs == 1 {
			first = rst
		} else if rst.Total != first.Total || rst.ReadWait != first.ReadWait || rst.ReadTime != first.ReadTime {
			t.Errorf("%s: total %v read %v waited %v\nwith one processor: total %v read %v waited %v", name,
				rst.Total, rst.ReadTime, rst.ReadWait, first.Total, first.ReadTime, first.ReadWait)
		}
		for class, d := range serialStats.PerClass {
			if rst.PerClass[class] != d {
				t.Errorf("%s: %s took %v, in a restore that read first %v", name, class, rst.PerClass[class], d)
			}
		}
		if tc.down == 0 && rst.ReadTime != serialRead {
			t.Errorf("%s: read %v, a plain Get %v", name, rst.ReadTime, serialRead)
		}
		got := memDigests(t, c)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: restored buffers %v\nserial restore %v", name, got, want)
		}
		va.api = c
		va.launch(t)
		va.verify(t)
		c.App().Kill()
		c.Detach()
		for i := 0; i < tc.down; i++ {
			j.states[i].SetDown(false)
		}
	}
}

// TestRestoreShortReadCostsTheRebuild: the overlap hides time, it never
// invents any. An incremental checkpoint in a store on the node's own RAM
// disk reads back in less than the proxy takes to fork, so every buffer is
// there long before its upload: the restore costs the wait for the object
// database plus the whole rebuild, to the nanosecond, and no less than the
// same rebuild costs behind a read that finished first.
func TestRestoreShortReadCostsTheRebuild(t *testing.T) {
	node := newNodeNV("node")
	st := store.New(node.RAMDisk, store.Config{})
	_, c := attach(t, node, Options{Incremental: true})
	va := setupVaddApp(t, c, 64<<10)
	va.launch(t)
	va.verify(t)
	if _, err := c.CheckpointToStore(st, "job"); err != nil {
		t.Fatal(err)
	}
	want := memDigests(t, c)
	c.App().Kill()

	began := node.Clock.Now()
	tap := &tappedStore{Backend: st}
	rc, rst, err := RestoreFromStore(node, tap, "job", Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Detach()
	_, db, end := tap.arrivals(t)
	if rst.ReadTime != end.Sub(began) || rst.ReadTime >= rst.PerClass["proxy"] {
		t.Fatalf("read %v (ran %v), fork %v: not the short read this test is about", rst.ReadTime, end.Sub(began), rst.PerClass["proxy"])
	}
	if wait := db.Sub(began); rst.ReadWait != wait || rst.Total != wait+sumPerClass(rst) {
		t.Errorf("total %v, waited %v: the database was there after %v and the rebuild took %v",
			rst.Total, rst.ReadWait, wait, sumPerClass(rst))
	}
	if rst.Total <= rst.ReadTime {
		t.Errorf("restored in %v from a read of %v", rst.Total, rst.ReadTime)
	}
	if got := memDigests(t, rc); !reflect.DeepEqual(got, want) {
		t.Errorf("restored buffers %v, checkpointed %v", got, want)
	}
	va.api = rc
	va.launch(t)
	va.verify(t)
}

// TestRestoreOverlapsThroughDecorators: the read goes where it always went —
// core, the cpr backend's RestartFromStore, the store's GetNewestRestorable —
// so a decorator in front of either sees its one call per restore, and the
// restore overlaps all the same: the instants ride on the values those calls
// already return.
func TestRestoreOverlapsThroughDecorators(t *testing.T) {
	j := newRestoreJob(t, 12, 1<<20)
	if _, err := j.c.CheckpointToStore(j.fl, "job"); err != nil {
		t.Fatal(err)
	}
	j.c.App().Kill()
	tap, backend := &tappedStore{Backend: j.fl}, &tappedCPR{}
	for round := 1; round <= 2; round++ {
		c, rst, err := RestoreFromStore(newNodeNV("tgt"), tap, "job", Options{Incremental: true, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if tap.calls != round || backend.calls != round {
			t.Errorf("restore %d: the store saw %d reads, the backend %d restarts", round, tap.calls, backend.calls)
		}
		if work := sumPerClass(rst); rst.Total >= rst.ReadTime+work || rst.ReadWait >= rst.ReadTime {
			t.Errorf("restore %d: total %v, read %v, rebuild %v, waited %v: nothing overlapped", round, rst.Total, rst.ReadTime, work, rst.ReadWait)
		}
		for i := range j.mems {
			if !bytes.Equal(j.readBack(t, c, i), j.fill(i, 0)) {
				t.Fatalf("restore %d: buffer %d restored differs", round, i)
			}
		}
		c.App().Kill()
		c.Detach()
	}
}
