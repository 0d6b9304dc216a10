package proxy

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
)

// wireSample is one command of each queued op, with and without wait lists.
func wireSample() ([]BatchCmd, []byte) {
	payload := bytes.Repeat([]byte{0x5A}, 96)
	return []BatchCmd{
		{Op: BatchSetArg, Kernel: 7, Index: 2, ArgSize: 8, Value: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Op: BatchSetArg, Kernel: 7, Index: 3, ArgSize: 64}, // __local: nil value
		{Op: BatchSetArg, Kernel: 7, Index: 4, ArgSize: 0, Value: []byte{}},
		{Op: BatchWrite, Queue: 3, Mem: 9, Blocking: true, Offset: 16, PayloadOff: 32, PayloadLen: 64, Waits: []ocl.Event{11, 12}},
		{Op: BatchRead, Queue: 3, Mem: 9, Offset: 8, Size: 24, WaitIdx: []int{3}},
		{Op: BatchCopy, Queue: 3, Src: 9, Dst: 10, SrcOff: 1, DstOff: 2, Size: 3},
		{Op: BatchNDRange, Queue: 3, Kernel: 7, Dims: 2, GOff: [3]int{1, 2, 3}, Global: [3]int{64, 32, 1}, Local: [3]int{8, 4, 1}, Waits: []ocl.Event{13}, WaitIdx: []int{0, 5}},
		{Op: BatchMarker, Queue: 3},
		{Op: BatchBarrier, Queue: 3},
		{Op: BatchFlush, Queue: 3},
		{Op: BatchFinish, Queue: 4},
	}, payload
}

// decodeAll runs the reader to the end of a frame, keeping copies of what
// each record aliases.
func decodeAll(req *request, data []byte) ([]record, *frameReader, error) {
	rd, err := openFrame(req, data)
	if err != nil {
		return nil, nil, err
	}
	var out []record
	for i := 0; i < rd.n; i++ {
		var rec record
		if err := rd.next(&rec); err != nil {
			return out, &rd, err
		}
		rec.waits = append([]ocl.Event(nil), rec.waits...)
		rec.idx = append([]int(nil), rec.idx...)
		if rec.blob != nil {
			rec.blob = append([]byte{}, rec.blob...)
		}
		out = append(out, rec)
	}
	return out, &rd, nil
}

// encodeAll is the frame of decoded records.
func encodeAll(recs []record) *request {
	req := &request{Recs: startFrame(nil)}
	for _, r := range recs {
		req.Recs = appendRecord(req.Recs, r.op, r.blocking, r.blob, r.waits, r.idx, r.args[:opSpecs[r.op].args]...)
		req.Args = append(req.Args, r.blob...)
	}
	seal(req.Recs, len(recs))
	return req
}

// TestBatchFrameRoundTrip: what BatchFrame writes, the reader reads back
// arg for arg in opSpecs' order, nil values and empty wait lists included.
func TestBatchFrameRoundTrip(t *testing.T) {
	cmds, payload := wireSample()
	f := frameOf(cmds, payload)
	got, rd, err := decodeAll(f.request(), f.data)
	if err != nil {
		t.Fatal(err)
	}
	want := []record{
		{op: BatchSetArg, args: [maxArgs]uint64{7, 2, 8}, blob: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{op: BatchSetArg, args: [maxArgs]uint64{7, 3, 64}},
		{op: BatchSetArg, args: [maxArgs]uint64{7, 4, 0}, blob: []byte{}},
		{op: BatchWrite, blocking: true, args: [maxArgs]uint64{3, 9, 16, 32, 64}, waits: []ocl.Event{11, 12}},
		{op: BatchRead, args: [maxArgs]uint64{3, 9, 8, 24}, idx: []int{3}},
		{op: BatchCopy, args: [maxArgs]uint64{3, 9, 10, 1, 2, 3}},
		{op: BatchNDRange, args: [maxArgs]uint64{3, 7, 2, 1, 2, 3, 64, 32, 1, 8, 4, 1}, waits: []ocl.Event{13}, idx: []int{0, 5}},
		{op: BatchMarker, args: [maxArgs]uint64{3}},
		{op: BatchBarrier, args: [maxArgs]uint64{3}},
		{op: BatchFlush, args: [maxArgs]uint64{3}},
		{op: BatchFinish, args: [maxArgs]uint64{4}},
	}
	for i := range want {
		w := want[i]
		w.waits = append([]ocl.Event(nil), w.waits...)
		w.idx = append([]int(nil), w.idx...)
		if !reflect.DeepEqual(got[i], w) {
			t.Errorf("command %d:\n got %+v\nwant %+v", i, got[i], w)
		}
	}
	if w := rd.writeData(&got[3]); !bytes.Equal(w, payload[32:96]) {
		t.Errorf("write window = %d bytes at the wrong place", len(w))
	}
	if !f.mutates {
		t.Error("a frame with writes and launches must be sequenced")
	}
	if reads := frameOf(cmds[4:5], nil); reads.mutates {
		t.Error("a frame of one read must go unsequenced")
	}
}

// TestBatchFrameRewindKeepsData: a retry re-encodes the commands over the
// payloads staged before the first attempt.
func TestBatchFrameRewindKeepsData(t *testing.T) {
	cmds, payload := wireSample()
	f := frameOf(cmds, payload)
	first := *f.request()
	first.Recs, first.Args = bytes.Clone(first.Recs), bytes.Clone(first.Args)
	f.Rewind()
	if f.Len() != 0 || f.DataLen() != len(payload) {
		t.Fatalf("after Rewind: %d commands, %d data bytes", f.Len(), f.DataLen())
	}
	for i := range cmds {
		f.Add(&cmds[i])
	}
	if again := f.request(); !bytes.Equal(again.Recs, first.Recs) || !bytes.Equal(again.Args, first.Args) {
		t.Error("re-encoded frame differs from the first encoding")
	}
	f.Reset()
	if f.Len() != 0 || f.DataLen() != 0 {
		t.Errorf("after Reset: %d commands, %d data bytes", f.Len(), f.DataLen())
	}
}

// TestBatchMalformedHeaderFailsTheCall: a frame whose header cannot be
// trusted executes nothing and fails the call with the decoder's error.
func TestBatchMalformedHeaderFailsTheCall(t *testing.T) {
	_, _, px := spawnNV(t)
	f := setupBatchFixture(t, px, 64)
	garbage := &request{Recs: []byte("not a batch frame at all")}
	if _, _, _, err := f.api.ship(garbage, make([]ocl.Event, 1), true, nil, nil, nil); err == nil {
		t.Fatal("garbage frame accepted")
	}
	if _, err := f.api.EnqueueMarker(f.q); err != nil {
		t.Fatalf("connection unusable after a rejected frame: %v", err)
	}
}

// opSample is one well-formed record of every op: its args, a blob for the
// ops that take one, and a wait list.
func opSample() *request {
	req := &request{Recs: startFrame(nil)}
	for op := BatchOp(0); op < numOps; op++ {
		args := make([]uint64, opSpecs[op].args)
		for k := range args {
			args[k] = uint64(7 + k)
		}
		if op == BatchWrite {
			args[3], args[4] = 0, 4
		}
		blob := []byte("vadd")
		req.Recs = appendRecord(req.Recs, op, false, blob, []ocl.Event{11}, nil, args...)
		req.Args = append(req.Args, blob...)
	}
	seal(req.Recs, int(numOps))
	return req
}

// FuzzDecodeBatch: the frame decoder never panics and never reads past
// its input, every refusal is a *BatchFormatError, an accepted write's
// window lies inside the data region and an accepted in-frame wait names
// an earlier command, what was accepted re-encodes to a frame that decodes
// to the same records, and the server's executor survives the frame
// against a live runtime with a reply the client can decode.
func FuzzDecodeBatch(f *testing.F) {
	cmds, payload := wireSample()
	frame := frameOf(cmds, payload)
	queued := *frame.request()
	f.Add(queued.Recs, queued.Args, payload)
	f.Add(startFrame(nil), []byte(nil), []byte(nil))
	f.Add(queued.Recs[:frameHeader+recordHead-1], queued.Args, payload)
	f.Add(queued.Recs[:len(queued.Recs)/2], queued.Args[:3], payload[:40])
	for _, at := range []int{0, 4, 5, frameHeader, frameHeader + 2, frameHeader + 8, len(queued.Recs) - 5} {
		flipped := bytes.Clone(queued.Recs)
		flipped[at] ^= 0x81
		f.Add(flipped, queued.Args, payload)
	}
	// One record of every op, then each op alone with a hostile wait count
	// and a hostile blob length.
	all := opSample()
	f.Add(all.Recs, all.Args, []byte{1, 2, 3, 4})
	for op := BatchOp(0); op < numOps; op++ {
		one := startFrame(nil)
		one = appendRecord(one, op, true, []byte("x"), nil, nil, make([]uint64, opSpecs[op].args)...)
		seal(one, 1)
		f.Add(one, []byte("x"), []byte(nil))
		waits, blob := bytes.Clone(one), bytes.Clone(one)
		le.PutUint16(waits[frameHeader+2:], 0xffff)
		le.PutUint32(blob[frameHeader+6:], 0xffffffff)
		f.Add(waits, []byte("x"), []byte(nil))
		f.Add(blob, []byte("x"), []byte(nil))
	}
	// A 1 MiB device caps what a fuzz input can make the runtime allocate.
	small := ocl.NVIDIA()
	small.Devices[0].GlobalMemory = 1 << 20
	node := proc.NewNode("fuzz", hw.TableISpec(), small)
	rt := ocl.NewRuntime(node.Vendors[0], node.Spec, node.Clock)

	f.Fuzz(func(t *testing.T, recs, args, data []byte) {
		req := &request{Recs: recs, Args: args}
		got, rd, err := decodeAll(req, data)
		var fe *BatchFormatError
		if err != nil && !errors.As(err, &fe) {
			t.Fatalf("decoder failed with %T (%v), want *BatchFormatError", err, err)
		}
		for i := range got {
			if got[i].op == BatchWrite {
				_ = rd.writeData(&got[i]) // panics if the window were outside the data
			}
			for _, j := range got[i].idx {
				if j < 0 || j >= i {
					t.Fatalf("command %d accepted an in-frame wait on command %d", i, j)
				}
			}
		}
		if rd != nil {
			again, _, err2 := decodeAll(encodeAll(got), data)
			if err2 != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("accepted records do not survive re-encoding (%v):\n got %+v\nthen %+v", err2, got, again)
			}
		}
		reply, _, err := run(rt, req, data, nil)
		if err != nil {
			if !errors.As(err, &fe) {
				t.Fatalf("run failed with %T (%v), want *BatchFormatError", err, err)
			}
			return
		}
		if _, _, err := decodeReply(*reply, make([]ocl.Event, rd.n)); err != nil {
			t.Fatalf("the client cannot decode the server's reply: %v", err)
		}
	})
}

// FuzzDecodeReply: the client's reply decoder, and the decoding of a
// result's value as any ocl.API result type, never panic or index out of
// range on arbitrary bytes; every refusal is a *BatchFormatError, and an
// accepted reply names only commands of its frame.
func FuzzDecodeReply(f *testing.F) {
	node := proc.NewNode("fuzz", hw.TableISpec(), ocl.NVIDIA())
	rt := ocl.NewRuntime(node.Vendors[0], node.Spec, node.Clock)
	plats, _ := rt.GetPlatformIDs()
	devs, _ := rt.GetDeviceIDs(plats[0], ocl.DeviceTypeAll)
	ctx, _ := rt.CreateContext(devs)
	prog, _ := rt.CreateProgramWithSource(ctx, "__kernel void k( {")
	seed := func(op BatchOp, blob []byte, args ...uint64) {
		req := &request{Recs: appendRecord(startFrame(nil), op, false, blob, nil, nil, args...), Args: blob}
		seal(req.Recs, 1)
		reply, _, err := run(rt, req, nil, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(*reply, uint8(1))
		f.Add((*reply)[:len(*reply)/2], uint8(1))
	}
	seed(opGetPlatformIDs, nil)
	seed(opGetDeviceInfo, nil, uint64(devs[0]))
	seed(opGetContextInfo, nil, uint64(ctx))
	seed(opCreateCommandQueue, nil, uint64(ctx), uint64(devs[0]), 0)
	seed(opBuildProgram, nil, uint64(prog))
	seed(opGetProgramBuildInfo, nil, uint64(prog), uint64(devs[0]))
	seed(opReleaseMemObject, nil, 0xbad)
	f.Add(ranAll, uint8(0))

	f.Fuzz(func(t *testing.T, b []byte, n uint8) {
		resp, val, err := decodeReply(b, make([]ocl.Event, n))
		var fe *BatchFormatError
		if err != nil {
			if !errors.As(err, &fe) {
				t.Fatalf("decodeReply failed with %T (%v), want *BatchFormatError", err, err)
			}
			return
		}
		if resp.ErrIdx < -1 || resp.ErrIdx >= int(n) {
			t.Fatalf("accepted a failure of command %d of %d", resp.ErrIdx, n)
		}
		for _, err := range []error{
			second(value[[]ocl.PlatformID](0, val, nil)),
			second(value[ocl.PlatformInfo](0, val, nil)),
			second(value[ocl.DeviceInfo](0, val, nil)),
			second(value[ocl.ContextInfo](0, val, nil)),
			second(value[ocl.CommandQueueInfo](0, val, nil)),
			second(value[ocl.MemObjectInfo](0, val, nil)),
			second(value[ocl.KernelInfo](0, val, nil)),
			second(value[ocl.KernelWorkGroupInfo](0, val, nil)),
			second(value[ocl.BuildInfo](0, val, nil)),
			second(value[ocl.EventProfile](0, val, nil)),
			second(value[[]byte](0, val, nil)),
		} {
			if err != nil && !errors.As(err, &fe) {
				t.Fatalf("value decode failed with %T (%v), want *BatchFormatError", err, err)
			}
		}
	})
}

func second[T any](_ T, err error) error { return err }
