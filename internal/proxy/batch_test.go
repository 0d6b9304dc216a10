package proxy

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"checl/internal/ipc"
	"checl/internal/ocl"
)

// batchFixture holds the plain-client objects the batch tests drive.
type batchFixture struct {
	api     *Client
	q       ocl.CommandQueue
	k       ocl.Kernel
	a, b, c ocl.Mem
	n       int
}

func setupBatchFixture(t *testing.T, px *Proxy, n int) *batchFixture {
	t.Helper()
	api := px.Client
	plats, err := api.GetPlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	devs, err := api.GetDeviceIDs(plats[0], ocl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := api.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := api.CreateCommandQueue(ctx, devs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := api.CreateProgramWithSource(ctx, vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := api.BuildProgram(prog, ""); err != nil {
		t.Fatal(err)
	}
	k, err := api.CreateKernel(prog, "vadd")
	if err != nil {
		t.Fatal(err)
	}
	f := &batchFixture{api: api, q: q, k: k, n: n}
	for _, m := range []*ocl.Mem{&f.a, &f.b, &f.c} {
		if *m, err = api.CreateBuffer(ctx, ocl.MemReadWrite, int64(4*n), nil); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func (f *batchFixture) hostVec() []byte {
	host := make([]byte, 4*f.n)
	for i := 0; i < f.n; i++ {
		binary.LittleEndian.PutUint32(host[4*i:], math.Float32bits(float32(i)))
	}
	return host
}

// vaddBatch builds the full vadd pipeline as ONE batch: four SetArgs,
// two writes (payloads in the raw frame), the launch waiting on the
// writes by in-batch index, a read of the result waiting on the launch,
// and the closing finish.
func (f *batchFixture) vaddBatch() ([]BatchCmd, []byte) {
	host := f.hostVec()
	payload := append(append([]byte(nil), host...), host...)
	size := int64(4 * f.n)
	cmds := []BatchCmd{
		{Op: BatchSetArg, Kernel: f.k, Index: 0, ArgSize: 8, Value: handleBytes(f.a)},
		{Op: BatchSetArg, Kernel: f.k, Index: 1, ArgSize: 8, Value: handleBytes(f.b)},
		{Op: BatchSetArg, Kernel: f.k, Index: 2, ArgSize: 8, Value: handleBytes(f.c)},
		{Op: BatchSetArg, Kernel: f.k, Index: 3, ArgSize: 4, Value: u32bytes(uint32(f.n))},
		{Op: BatchWrite, Queue: f.q, Mem: f.a, PayloadOff: 0, PayloadLen: size},
		{Op: BatchWrite, Queue: f.q, Mem: f.b, PayloadOff: size, PayloadLen: size},
		{Op: BatchNDRange, Queue: f.q, Kernel: f.k, Dims: 1, Global: [3]int{f.n}, Local: [3]int{64}, WaitIdx: []int{4, 5}},
		{Op: BatchRead, Queue: f.q, Mem: f.c, Size: size, WaitIdx: []int{6}},
		{Op: BatchFinish, Queue: f.q},
	}
	return cmds, payload
}

// sendCmds ships a command list built ahead of time as one sequenced frame.
func sendCmds(api *Client, cmds []BatchCmd, payload []byte) (EnqueueBatchResp, [][]byte, error) {
	return api.SendBatch(frameOf(cmds, payload))
}

// TestBatchRoundTrip: one clEnqueueBatch frame carries the entire vadd
// pipeline — args, write payloads in the raw request frame, an in-batch
// wait chain, and read data back in the raw response frame.
func TestBatchRoundTrip(t *testing.T) {
	_, _, px := spawnNV(t)
	f := setupBatchFixture(t, px, 128)
	cmds, payload := f.vaddBatch()

	callsBefore := f.api.Stats().Calls
	resp, parts, err := sendCmds(f.api, cmds, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.api.Stats().Calls - callsBefore; got != 1 {
		t.Errorf("batch cost %d wire calls, want 1", got)
	}
	if resp.ErrIdx != -1 {
		t.Fatalf("batch failed at %d: %s %s", resp.ErrIdx, resp.ErrOp, resp.ErrDetail)
	}
	if len(resp.Events) != len(cmds) {
		t.Fatalf("per-command results: %d events, want %d", len(resp.Events), len(cmds))
	}
	if resp.Events[6] == 0 {
		t.Error("NDRange command minted no event")
	}
	if len(parts) != 1 {
		t.Fatalf("one read returned %d raw parts", len(parts))
	}
	out := parts[0]
	if len(out) != 4*f.n || resp.Events[7] == 0 {
		t.Fatalf("read data: %d bytes, want %d; read event %d", len(out), 4*f.n, resp.Events[7])
	}
	for i := 0; i < f.n; i++ {
		got := math.Float32frombits(binary.LittleEndian.Uint32(out[4*i:]))
		if got != 2*float32(i) {
			t.Fatalf("c[%d] = %v, want %v", i, got, 2*float32(i))
		}
	}
	if f.api.Stats().Batched < int64(len(cmds)) {
		t.Errorf("batched counter = %d, want >= %d", f.api.Stats().Batched, len(cmds))
	}
}

// TestBatchPartialFailure: the first failing command stops the batch;
// earlier commands keep their results, the error fields attribute the
// failure, and later commands never execute.
func TestBatchPartialFailure(t *testing.T) {
	_, _, px := spawnNV(t)
	f := setupBatchFixture(t, px, 64)
	size := int64(4 * f.n)
	good := bytes.Repeat([]byte{0xAA}, int(size))
	bad := bytes.Repeat([]byte{0xBB}, int(size))
	payload := append(append(append([]byte(nil), good...), 1, 2, 3, 4), bad...)

	cmds := []BatchCmd{
		{Op: BatchWrite, Queue: f.q, Mem: f.c, PayloadOff: 0, PayloadLen: size},
		// Offset beyond the buffer: the runtime rejects with CL_INVALID_VALUE.
		{Op: BatchWrite, Queue: f.q, Mem: f.c, Offset: size, PayloadOff: size, PayloadLen: 4},
		{Op: BatchWrite, Queue: f.q, Mem: f.c, PayloadOff: size + 4, PayloadLen: size},
	}
	resp, _, err := sendCmds(f.api, cmds, payload)
	if err != nil {
		t.Fatalf("command failure must be in-band, not a transport error: %v", err)
	}
	if resp.ErrIdx != 1 {
		t.Fatalf("ErrIdx = %d, want 1", resp.ErrIdx)
	}
	if resp.ErrOp != "clEnqueueWriteBuffer" || resp.ErrStatus != int32(ocl.InvalidValue) {
		t.Errorf("error attribution = %s/%d, want clEnqueueWriteBuffer/%d",
			resp.ErrOp, resp.ErrStatus, int32(ocl.InvalidValue))
	}
	if resp.Events[0] == 0 {
		t.Error("pre-failure command lost its event")
	}

	out, _, err := f.api.EnqueueReadBuffer(f.q, f.c, true, 0, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, good) {
		t.Error("buffer should hold the pre-failure write only")
	}
}

// TestBatchPayloadBoundsChecked: a command whose payload window lies
// outside the raw frame must be rejected, not read out of bounds.
func TestBatchPayloadBoundsChecked(t *testing.T) {
	_, _, px := spawnNV(t)
	f := setupBatchFixture(t, px, 64)
	cmds := []BatchCmd{
		{Op: BatchWrite, Queue: f.q, Mem: f.c, PayloadOff: 0, PayloadLen: 64},
	}
	resp, _, err := sendCmds(f.api, cmds, []byte{1, 2, 3}) // frame shorter than the window
	if err != nil {
		t.Fatalf("bounds violation must be in-band: %v", err)
	}
	if resp.ErrIdx != 0 {
		t.Errorf("ErrIdx = %d, want 0", resp.ErrIdx)
	}
}

// TestBatchReplayUnderFault: clEnqueueBatch is a sequenced call — under
// the connection-kill plan a lost response is answered from the dedupe
// cache, the batch executes exactly once, and the data stays correct.
func TestBatchReplayUnderFault(t *testing.T) {
	_, px, inj := spawnFaulted(t, ipc.FaultPlan{
		Seed:      11,
		EveryN:    3,
		SkipFirst: 2,
	})
	f := setupBatchFixture(t, px, 128)

	for i := 0; i < 8; i++ {
		cmds, payload := f.vaddBatch()
		resp, parts, err := sendCmds(f.api, cmds, payload)
		if err != nil {
			t.Fatalf("batch %d under faults: %v", i, err)
		}
		if resp.ErrIdx != -1 || len(parts) != 1 {
			t.Fatalf("batch %d failed at %d (%d parts): %s", i, resp.ErrIdx, len(parts), resp.ErrDetail)
		}
		out := parts[0]
		for j := 0; j < f.n; j++ {
			got := math.Float32frombits(binary.LittleEndian.Uint32(out[4*j:]))
			if got != 2*float32(j) {
				t.Fatalf("batch %d: c[%d] = %v (faults corrupted a replayed batch)", i, j, got)
			}
		}
	}
	if inj.Injected() == 0 {
		t.Fatal("plan injected nothing; test proves nothing")
	}
	if f.api.Stats().Retries == 0 {
		t.Error("no batch was ever retried; test proves nothing about replay")
	}
}

// TestClientStatsRace: Stats() is read concurrently with traffic from
// many goroutines; the counters must be race-free (run under -race).
func TestClientStatsRace(t *testing.T) {
	_, _, px := spawnNV(t)
	api := px.Client

	var readers, callers sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = api.Stats()
			}
		}
	}()
	for i := 0; i < 8; i++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for j := 0; j < 100; j++ {
				if _, err := api.GetPlatformIDs(); err != nil {
					return
				}
			}
		}()
	}
	callers.Wait()
	close(stop)
	readers.Wait()

	st := api.Stats()
	if st.Calls < 800 {
		t.Errorf("calls = %d, want >= 800", st.Calls)
	}
}

// TestRingWaitAtOnePBesideBusyGoroutine: with one P and a goroutine beside
// the callers that never blocks, 8 callers × 100 round trips on the ring
// finish within 100 ms. A waiter that yields before it parks hands the P to
// the busy goroutine on every yield, for a scheduler quantum each time,
// which took this 17 s. Under the race detector the scheduler queues a
// goroutine it wakes behind the others half the time instead of running it
// next, so the busy goroutine gets quanta anyway: about 0.3 s with one
// caller and 0.5 s with eight, so the bound there is 2 s.
func TestRingWaitAtOnePBesideBusyGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, _, px := spawnNV(t)
	api := px.Client
	var stop atomic.Bool
	busy := make(chan struct{})
	go func() {
		defer close(busy)
		for !stop.Load() {
		}
	}()
	defer func() { stop.Store(true); <-busy }()
	start := time.Now()
	var callers sync.WaitGroup
	for i := 0; i < 8; i++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for j := 0; j < 100; j++ {
				if _, err := api.GetPlatformIDs(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	callers.Wait()
	limit := 100 * time.Millisecond
	if raceDetector {
		limit = 2 * time.Second
	}
	if took := time.Since(start); took > limit {
		t.Errorf("800 calls at one P beside a busy goroutine took %v, want <= %v", took, limit)
	}
}
