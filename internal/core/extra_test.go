package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"checl/internal/ocl"
	"checl/internal/vtime"
)

const samplerKernelSrc = `
__kernel void lut(__global const float* table, sampler_t smp,
                  __global float* out, uint n) {
    size_t i = get_global_id(0);
    if (i < n) out[i] = table[i % 8u];
}`

// TestSamplerSurvivesRestart exercises the cl_sampler restore path (step
// 6 of the §III-C order) including sampler-handle translation in
// clSetKernelArg replay, and the restore of a program built from a binary:
// each is recreated from its recorded arguments.
func TestSamplerSurvivesRestart(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})

	plats, _ := c.GetPlatformIDs()
	devs, _ := c.GetDeviceIDs(plats[0], ocl.DeviceTypeAll)
	ctx, _ := c.CreateContext(devs)
	q, _ := c.CreateCommandQueue(ctx, devs[0], 0)
	prog, _ := c.CreateProgramWithSource(ctx, samplerKernelSrc)
	if err := c.BuildProgram(prog, ""); err != nil {
		t.Fatal(err)
	}
	smp, err := c.CreateSampler(ctx, true, ocl.AddressClamp, ocl.FilterLinear)
	if err != nil {
		t.Fatal(err)
	}
	table := make([]byte, 4*8)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint32(table[4*i:], math.Float32bits(float32(10+i)))
	}
	tbuf, _ := c.CreateBuffer(ctx, ocl.MemReadOnly|ocl.MemCopyHostPtr, 32, table)
	out, _ := c.CreateBuffer(ctx, ocl.MemWriteOnly, 4*16, nil)
	k, _ := c.CreateKernel(prog, "lut")
	if err := c.SetKernelArg(k, 0, 8, handleBytes(tbuf)); err != nil {
		t.Fatal(err)
	}
	// The sampler argument: CheCL must recognise the sampler_t parameter
	// and translate the CheCL sampler handle.
	if err := c.SetKernelArg(k, 1, 8, handleBytes(smp)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetKernelArg(k, 2, 8, handleBytes(out)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetKernelArg(k, 3, 4, u32bytes(16)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnqueueNDRangeKernel(q, k, 1, [3]int{}, [3]int{16}, [3]int{16}, nil); err != nil {
		t.Fatal(err)
	}
	if c.ObjectCounts()["sampler"] != 1 {
		t.Fatal("sampler not in the database")
	}
	// The same kernel from a binary: no parsed signature, so its handle
	// arguments are found by the address heuristic.
	bin, err := c.GetProgramBinary(prog)
	if err != nil {
		t.Fatal(err)
	}
	bprog, err := c.CreateProgramWithBinary(ctx, devs[0], bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BuildProgram(bprog, "-cl-fast-relaxed-math"); err != nil {
		t.Fatal(err)
	}
	bout, _ := c.CreateBuffer(ctx, ocl.MemWriteOnly, 4*16, nil)
	bk, _ := c.CreateKernel(bprog, "lut")
	for i, arg := range [][]byte{handleBytes(tbuf), handleBytes(smp), handleBytes(bout), u32bytes(16)} {
		if err := c.SetKernelArg(bk, i, int64(len(arg)), arg); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := c.Checkpoint(node.LocalDisk, "smp.ckpt"); err != nil {
		t.Fatal(err)
	}
	c.Proxy().Kill()
	c.App().Kill()
	rc, _, err := Restore(node, node.LocalDisk, "smp.ckpt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Detach()
	if rc.ObjectCounts()["sampler"] != 1 {
		t.Error("sampler not restored")
	}
	if s := rc.db.samplers[Handle(smp)]; !s.Normalized || s.AMode != ocl.AddressClamp || s.FMode != ocl.FilterLinear || s.real == 0 {
		t.Errorf("restored sampler %+v, want normalized, clamp, linear and bound", *s)
	}
	info, err := rc.GetProgramBuildInfo(bprog, devs[0])
	if err != nil || !info.Success {
		t.Errorf("binary program's build after restore: %+v, %v", info, err)
	}
	if p := rc.db.programs[Handle(bprog)]; !p.FromBinary || p.Options != "-cl-fast-relaxed-math" {
		t.Errorf("restored binary program: from binary %v, options %q", p.FromBinary, p.Options)
	}
	if rbin, err := rc.GetProgramBinary(bprog); err != nil || !bytes.Equal(rbin, bin) {
		t.Errorf("binary program restored from other bytes (%v)", err)
	}
	// Both kernels (with their replayed sampler args) launch immediately.
	for _, run := range []struct {
		k   ocl.Kernel
		out ocl.Mem
	}{{k, out}, {bk, bout}} {
		if _, err := rc.EnqueueNDRangeKernel(q, run.k, 1, [3]int{}, [3]int{16}, [3]int{16}, nil); err != nil {
			t.Fatalf("launch after restore: %v", err)
		}
		data, _, err := rc.EnqueueReadBuffer(q, run.out, true, 0, 4*16, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			got := math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			if got != float32(10+i%8) {
				t.Fatalf("out[%d] = %v, want %v", i, got, float32(10+i%8))
			}
		}
	}
	// Release path for restored samplers.
	if err := rc.ReleaseSampler(smp); err != nil {
		t.Fatal(err)
	}
	if rc.ObjectCounts()["sampler"] != 0 {
		t.Error("sampler release did not drop the record")
	}
}

// TestRepeatedCheckpointRestartCycles runs three full crash/restore
// cycles: a restart of a restart must keep all state and handles intact.
func TestRepeatedCheckpointRestartCycles(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 256)
	app.launch(t)
	c.Finish(app.q)

	for cycle := 0; cycle < 3; cycle++ {
		path := fmt.Sprintf("cycle%d.ckpt", cycle)
		if _, err := c.Checkpoint(node.LocalDisk, path); err != nil {
			t.Fatalf("cycle %d checkpoint: %v", cycle, err)
		}
		c.Proxy().Kill()
		c.App().Kill()
		rc, _, err := Restore(node, node.LocalDisk, path, Options{})
		if err != nil {
			t.Fatalf("cycle %d restore: %v", cycle, err)
		}
		c = rc
		app.api = c
		// Launch again each cycle to keep mutating state across cycles.
		app.launch(t)
		app.verify(t)
	}
	c.Detach()
}

// TestDatabaseSnapshotRoundtripProperty: encoding and decoding the object
// database preserves every record, for randomised object populations —
// except the buffers' staged bytes, which a checkpoint stores as regions of
// their own and the database never carries.
func TestDatabaseSnapshotRoundtripProperty(t *testing.T) {
	f := func(nCtx, nMem, nProg uint8, payload []byte) bool {
		db := newDatabase()
		nc := int(nCtx%4) + 1
		var ctxs []Handle
		for i := 0; i < nc; i++ {
			h := db.newHandle(hContext)
			db.contexts[h] = &contextRec{H: h, Seq: db.seq, Refs: 1}
			ctxs = append(ctxs, h)
		}
		for i := 0; i < int(nMem%8); i++ {
			h := db.newHandle(hMem)
			db.mems[h] = &memRec{
				H: h, Seq: db.seq, Ctx: ctxs[i%nc],
				Size: int64(len(payload)), Data: append([]byte(nil), payload...),
				Refs: 1, Dirty: i%2 == 0,
			}
		}
		for i := 0; i < int(nProg%4); i++ {
			h := db.newHandle(hProgram)
			db.programs[h] = &programRec{
				H: h, Seq: db.seq, Ctx: ctxs[i%nc],
				Source: string(payload), Built: true,
				Options: "-cl-fast", BuildCost: vtime.Duration(i) * vtime.Millisecond,
				Refs: 1,
			}
		}
		blob, err := db.encode()
		if err != nil {
			return false
		}
		back, err := decodeDatabase(blob)
		if err != nil {
			return false
		}
		if back.seq != db.seq {
			return false
		}
		bc, dc := back.Counts(), db.Counts()
		for k := range dc {
			if bc[k] != dc[k] {
				return false
			}
		}
		for h, m := range db.mems {
			bm, ok := back.mems[h]
			if !ok || bm.Size != m.Size || bm.Dirty != m.Dirty || bm.Data != nil {
				return false
			}
		}
		for h, p := range db.programs {
			bp, ok := back.programs[h]
			if !ok || bp.Source != p.Source || bp.BuildCost != p.BuildCost || !bp.Built {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHandleClassNames checks the class tagging used by diagnostics and
// the address heuristic.
func TestHandleClassNames(t *testing.T) {
	db := newDatabase()
	cases := map[int]string{
		hPlatform: "platform", hDevice: "device", hContext: "context",
		hQueue: "cmd_que", hMem: "mem", hSampler: "sampler",
		hProgram: "prog", hKernel: "kernel", hEvent: "event",
	}
	for tag, want := range cases {
		h := db.newHandle(tag)
		if h.Class() != want {
			t.Errorf("tag %d class = %q, want %q", tag, h.Class(), want)
		}
	}
}

// TestHandlesDistinctPastTheLowBits: the sequence number outgrows the 12
// bits below handleBase's own from the 4 097th object on, and every handle
// must still be new: 4 097 markers on one queue are 4 097 events.
func TestHandlesDistinctPastTheLowBits(t *testing.T) {
	const markers = 4097
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	defer c.Detach()
	plats, _ := c.GetPlatformIDs()
	devs, _ := c.GetDeviceIDs(plats[0], ocl.DeviceTypeAll)
	ctx, _ := c.CreateContext(devs)
	q, _ := c.CreateCommandQueue(ctx, devs[0], 0)
	seen := map[ocl.Event]bool{}
	for i := 0; i < markers; i++ {
		ev, err := c.EnqueueMarker(q)
		if err != nil {
			t.Fatal(err)
		}
		seen[ev] = true
	}
	if err := c.Finish(q); err != nil {
		t.Fatal(err)
	}
	if len(seen) != markers || len(c.db.events) != markers {
		t.Errorf("%d markers got %d distinct handles and %d event records", markers, len(seen), len(c.db.events))
	}
}

// TestCheckpointToMissingQueueContext: a buffer in a context that never
// had a command queue is staged as zeroes rather than failing.
func TestCheckpointBufferWithoutQueue(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	plats, _ := c.GetPlatformIDs()
	devs, _ := c.GetDeviceIDs(plats[0], ocl.DeviceTypeAll)
	ctx, _ := c.CreateContext(devs)
	if _, err := c.CreateBuffer(ctx, ocl.MemReadWrite, 4096, nil); err != nil {
		t.Fatal(err)
	}
	st, err := c.Checkpoint(node.LocalDisk, "noq.ckpt")
	if err != nil {
		t.Fatalf("checkpoint without a queue: %v", err)
	}
	if st.DirtyBuffers != 1 {
		t.Errorf("staged = %d", st.DirtyBuffers)
	}
}

// TestCostModelPredictProperty: predictions are monotone in both file
// size and recompile time.
func TestCostModelPredictProperty(t *testing.T) {
	m := CostModel{Alpha: 2e-8, Beta: 0.1}
	f := func(a, b uint32, r1, r2 uint16) bool {
		s1, s2 := int64(a), int64(b)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		t1 := vtime.Duration(r1) * vtime.Millisecond
		t2 := vtime.Duration(r2) * vtime.Millisecond
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return m.Predict(s1, t1) <= m.Predict(s2, t2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
