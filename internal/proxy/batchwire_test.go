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

// wireSample is one command of every op, with and without wait lists.
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

// decodeAll runs the reader to the end of a frame.
func decodeAll(frame []byte) ([]BatchCmd, *batchReader, error) {
	rd, err := openBatch(frame)
	if err != nil {
		return nil, nil, err
	}
	var out []BatchCmd
	for i := 0; i < rd.N; i++ {
		var cmd BatchCmd
		if err := rd.next(&cmd); err != nil {
			return out, &rd, err
		}
		// Waits, WaitIdx and Value alias reader scratch: keep copies.
		cmd.Waits = append([]ocl.Event(nil), cmd.Waits...)
		cmd.WaitIdx = append([]int(nil), cmd.WaitIdx...)
		if cmd.Value != nil {
			cmd.Value = append([]byte{}, cmd.Value...)
		}
		out = append(out, cmd)
	}
	return out, &rd, nil
}

// TestBatchFrameRoundTrip: what BatchFrame writes, batchReader reads back
// field for field, nil values and empty wait lists included.
func TestBatchFrameRoundTrip(t *testing.T) {
	cmds, payload := wireSample()
	frame := frameOf(cmds, payload).bytes(42)
	got, rd, err := decodeAll(frame)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Epoch != 42 || !bytes.Equal(rd.data, payload) {
		t.Fatalf("header: epoch %d, %d data bytes", rd.Epoch, len(rd.data))
	}
	for i := range cmds {
		want := cmds[i]
		want.Waits = append([]ocl.Event(nil), want.Waits...)
		want.WaitIdx = append([]int(nil), want.WaitIdx...)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("command %d:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
	if w := rd.writeData(&got[3]); !bytes.Equal(w, payload[32:96]) {
		t.Errorf("write window = %d bytes at the wrong place", len(w))
	}
}

// TestBatchFrameRewindKeepsData: a retry re-encodes the commands over the
// payloads staged before the first attempt.
func TestBatchFrameRewindKeepsData(t *testing.T) {
	cmds, payload := wireSample()
	f := frameOf(cmds, payload)
	first := append([]byte(nil), f.bytes(0)...)
	f.Rewind()
	if f.Len() != 0 || f.DataLen() != len(payload) {
		t.Fatalf("after Rewind: %d commands, %d data bytes", f.Len(), f.DataLen())
	}
	for i := range cmds {
		f.Add(&cmds[i])
	}
	if !bytes.Equal(f.bytes(0), first) {
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
	var r EnqueueBatchResp
	_, err := f.api.exchange("clEnqueueBatch", Empty{}, []byte("not a batch frame at all"), &r, nil)
	if err == nil {
		t.Fatal("garbage frame accepted")
	}
	if _, err := f.api.EnqueueMarker(f.q); err != nil {
		t.Fatalf("connection unusable after a rejected frame: %v", err)
	}
}

// FuzzDecodeBatch: the command-stream decoder never panics and never reads
// past the payload (the race/bounds checker would catch it), every refusal
// is a *BatchFormatError, an accepted command's write window lies inside
// the data region and its in-batch waits name earlier commands, what was
// accepted re-encodes to a frame that decodes to the same commands, and
// the server's executor survives the stream against a live runtime.
func FuzzDecodeBatch(f *testing.F) {
	cmds, payload := wireSample()
	frame := frameOf(cmds, payload).bytes(7)
	f.Add(frame)
	f.Add(frameOf(nil, nil).bytes(0))
	f.Add(frame[:batchHeaderLen])
	f.Add(frame[:batchHeaderLen-1])
	f.Add(frame[:len(frame)/2])
	f.Add(frame[:len(frame)-3])
	for _, at := range []int{0, 4, 8, 15, batchHeaderLen + len(payload), batchHeaderLen + len(payload) + 2, len(frame) - 5} {
		flipped := append([]byte(nil), frame...)
		flipped[at] ^= 0x81
		f.Add(flipped)
	}
	node := proc.NewNode("fuzz", hw.TableISpec(), ocl.NVIDIA())
	rt := ocl.NewRuntime(node.Vendors[0], node.Spec, node.Clock)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, rd, err := decodeAll(data)
		var fe *BatchFormatError
		if err != nil && !errors.As(err, &fe) {
			t.Fatalf("decoder failed with %T (%v), want *BatchFormatError", err, err)
		}
		for i := range got {
			if got[i].Op == BatchWrite {
				_ = rd.writeData(&got[i]) // panics if the window were outside the data
			}
			for _, j := range got[i].WaitIdx {
				if j < 0 || j >= i {
					t.Fatalf("command %d accepted an in-batch wait on command %d", i, j)
				}
			}
		}
		if rd != nil {
			again, _, err2 := decodeAll(frameOf(got, rd.data).bytes(rd.Epoch))
			if err2 != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("accepted commands do not survive re-encoding (%v):\n got %+v\nthen %+v", err2, got, again)
			}
		}
		if _, _, err := runBatch(rt, data, nil); err != nil && !errors.As(err, &fe) {
			t.Fatalf("runBatch failed with %T (%v), want *BatchFormatError", err, err)
		}
	})
}
