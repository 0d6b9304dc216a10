package proxy

// The clEnqueueBatch command stream. A batch crosses the transport as the
// raw payload of one sequenced call — the gob request body is Empty — in a
// fixed little-endian layout:
//
//	header   "CLB1" | ncmds u32 | dataLen u64 | epoch u64          24 bytes
//	data     dataLen bytes: write payloads, referenced by [off, off+len)
//	commands ncmds records:
//	         op u8 | flags u8 | nwaits u16 | nidx u16 | body | waits | idx
//
// body is fixed per op (handles, offsets and sizes are u64, indices u32);
// a SetArg body ends with its value inline (valLen u32 + bytes). waits are
// nwaits u64 event handles that already exist server-side; idx are nidx
// u32 indices of earlier commands of the same batch whose events to wait
// on. The data region comes first so the producer can stage payloads as
// calls arrive and encode the commands — which need translated handles —
// only at the flush.

import (
	"encoding/binary"
	"fmt"

	"checl/internal/ocl"
)

const (
	batchMagic     = "CLB1"
	batchHeaderLen = 24
	cmdHeadLen     = 6

	flagBlocking = 1 << 0
	flagNilValue = 1 << 1 // SetArg: value is nil (a __local size-only argument)
)

// batchBodyLen is each op's fixed body length (SetArg: before the value).
var batchBodyLen = [...]int{
	BatchSetArg:  8 + 4 + 8 + 4,
	BatchWrite:   5 * 8,
	BatchRead:    4 * 8,
	BatchCopy:    6 * 8,
	BatchNDRange: 2*8 + 4 + 9*8,
	BatchMarker:  8,
	BatchBarrier: 8,
	BatchFlush:   8,
	BatchFinish:  8,
}

// BatchFormatError reports a command stream the decoder refused.
type BatchFormatError struct {
	Cmd    int // index of the offending command; -1 for the header
	Detail string
}

func (e *BatchFormatError) Error() string {
	return fmt.Sprintf("proxy: malformed batch (command %d): %s", e.Cmd, e.Detail)
}

// BatchFrame builds one command stream in a reusable buffer: Stage copies
// write payloads into the data region, Add appends commands after it.
type BatchFrame struct {
	buf  []byte
	data int // end of the data region
	n    int // commands encoded
}

// Reset empties the frame, keeping its buffer.
func (f *BatchFrame) Reset() {
	if cap(f.buf) < batchHeaderLen {
		f.buf = make([]byte, batchHeaderLen, 4096)
	}
	f.buf, f.data, f.n = f.buf[:batchHeaderLen], batchHeaderLen, 0
}

// ready makes the zero BatchFrame usable.
func (f *BatchFrame) ready() {
	if f.data == 0 {
		f.Reset()
	}
}

// Rewind drops the encoded commands and keeps the staged data: a retry
// re-encodes against rebound handles without re-copying payloads.
func (f *BatchFrame) Rewind() { f.buf, f.n = f.buf[:f.data], 0 }

// Stage copies p into the data region and returns its offset there. It
// must not be called between Add and the next Reset/Rewind.
func (f *BatchFrame) Stage(p []byte) int64 {
	f.ready()
	off := f.data - batchHeaderLen
	f.buf = append(f.buf[:f.data], p...)
	f.data = len(f.buf)
	return int64(off)
}

// DataLen is the number of staged payload bytes.
func (f *BatchFrame) DataLen() int { return max(f.data-batchHeaderLen, 0) }

// Len is the number of commands encoded.
func (f *BatchFrame) Len() int { return f.n }

// Add appends one command. cmd is only read; nothing of it is retained.
func (f *BatchFrame) Add(cmd *BatchCmd) {
	f.ready()
	var flags byte
	if cmd.Blocking {
		flags |= flagBlocking
	}
	if cmd.Op == BatchSetArg && cmd.Value == nil {
		flags |= flagNilValue
	}
	b := append(f.buf, byte(cmd.Op), flags)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(cmd.Waits)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(cmd.WaitIdx)))
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	switch cmd.Op {
	case BatchSetArg:
		u64(uint64(cmd.Kernel))
		b = binary.LittleEndian.AppendUint32(b, uint32(cmd.Index))
		u64(uint64(cmd.ArgSize))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(cmd.Value)))
		b = append(b, cmd.Value...)
	case BatchWrite:
		u64(uint64(cmd.Queue))
		u64(uint64(cmd.Mem))
		u64(uint64(cmd.Offset))
		u64(uint64(cmd.PayloadOff))
		u64(uint64(cmd.PayloadLen))
	case BatchRead:
		u64(uint64(cmd.Queue))
		u64(uint64(cmd.Mem))
		u64(uint64(cmd.Offset))
		u64(uint64(cmd.Size))
	case BatchCopy:
		u64(uint64(cmd.Queue))
		u64(uint64(cmd.Src))
		u64(uint64(cmd.Dst))
		u64(uint64(cmd.SrcOff))
		u64(uint64(cmd.DstOff))
		u64(uint64(cmd.Size))
	case BatchNDRange:
		u64(uint64(cmd.Queue))
		u64(uint64(cmd.Kernel))
		b = binary.LittleEndian.AppendUint32(b, uint32(cmd.Dims))
		for _, v := range [3][3]int{cmd.GOff, cmd.Global, cmd.Local} {
			for _, x := range v {
				u64(uint64(x))
			}
		}
	default: // marker, barrier, flush, finish — and unknown ops, refused by the decoder
		u64(uint64(cmd.Queue))
	}
	for _, w := range cmd.Waits {
		u64(uint64(w))
	}
	for _, j := range cmd.WaitIdx {
		b = binary.LittleEndian.AppendUint32(b, uint32(j))
	}
	f.buf = b
	f.n++
}

// bytes seals the header and returns the wire form.
func (f *BatchFrame) bytes(epoch uint64) []byte {
	f.ready()
	copy(f.buf, batchMagic)
	binary.LittleEndian.PutUint32(f.buf[4:], uint32(f.n))
	binary.LittleEndian.PutUint64(f.buf[8:], uint64(f.DataLen()))
	binary.LittleEndian.PutUint64(f.buf[16:], epoch)
	return f.buf
}

// batchReader decodes a command stream one command at a time. Every length
// is checked against the payload before it is used, so a hostile stream
// yields a *BatchFormatError and never an out-of-range access.
type batchReader struct {
	N     int    // commands announced by the header
	Epoch uint64 // speculative-epoch tag; 0 for ordinary batches
	data  []byte // the data region
	rest  []byte // undecoded commands
	i     int    // index of the next command

	waits []ocl.Event // scratch behind BatchCmd.Waits
	idx   []int       // scratch behind BatchCmd.WaitIdx
}

// openBatch validates the header and positions the reader on command 0.
func openBatch(payload []byte) (batchReader, error) {
	bad := func(format string, args ...any) (batchReader, error) {
		return batchReader{}, &BatchFormatError{Cmd: -1, Detail: fmt.Sprintf(format, args...)}
	}
	if len(payload) < batchHeaderLen {
		return bad("%d-byte frame is shorter than the %d-byte header", len(payload), batchHeaderLen)
	}
	if string(payload[:4]) != batchMagic {
		return bad("magic %q", payload[:4])
	}
	n := binary.LittleEndian.Uint32(payload[4:])
	dataLen := binary.LittleEndian.Uint64(payload[8:])
	body := payload[batchHeaderLen:]
	if dataLen > uint64(len(body)) {
		return bad("data region of %d bytes in a %d-byte frame", dataLen, len(payload))
	}
	if uint64(n)*cmdHeadLen > uint64(len(body))-dataLen {
		return bad("%d commands cannot fit the %d bytes after the data region", n, uint64(len(body))-dataLen)
	}
	return batchReader{
		N:     int(n),
		Epoch: binary.LittleEndian.Uint64(payload[16:]),
		data:  body[:dataLen],
		rest:  body[dataLen:],
	}, nil
}

// next decodes the next command into cmd. Waits, WaitIdx and Value alias
// reader scratch and the payload: they are valid until the following next.
func (r *batchReader) next(cmd *BatchCmd) error {
	i := r.i
	bad := func(format string, args ...any) error {
		return &BatchFormatError{Cmd: i, Detail: fmt.Sprintf(format, args...)}
	}
	b := r.rest
	if len(b) < cmdHeadLen {
		return bad("%d bytes left, want a %d-byte command head", len(b), cmdHeadLen)
	}
	op, flags := BatchOp(b[0]), b[1]
	nwaits := int(binary.LittleEndian.Uint16(b[2:]))
	nidx := int(binary.LittleEndian.Uint16(b[4:]))
	b = b[cmdHeadLen:]
	if int(op) >= len(batchBodyLen) {
		return bad("unknown op %d", op)
	}
	if len(b) < batchBodyLen[op] {
		return bad("%s body cut short: %d of %d bytes", op.Method(), len(b), batchBodyLen[op])
	}
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v
	}
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(b)
		b = b[4:]
		return v
	}
	*cmd = BatchCmd{Op: op, Blocking: flags&flagBlocking != 0}
	switch op {
	case BatchSetArg:
		cmd.Kernel = ocl.Kernel(u64())
		cmd.Index = int(int32(u32()))
		cmd.ArgSize = int64(u64())
		n := int(u32())
		if n > len(b) {
			return bad("clSetKernelArg value of %d bytes, %d left", n, len(b))
		}
		if flags&flagNilValue == 0 {
			cmd.Value = b[:n:n]
		}
		b = b[n:]
	case BatchWrite:
		cmd.Queue, cmd.Mem = ocl.CommandQueue(u64()), ocl.Mem(u64())
		cmd.Offset, cmd.PayloadOff, cmd.PayloadLen = int64(u64()), int64(u64()), int64(u64())
		if cmd.PayloadOff < 0 || cmd.PayloadLen < 0 || cmd.PayloadOff > int64(len(r.data))-cmd.PayloadLen {
			return bad("write payload [%d:+%d] outside the %d-byte data region", cmd.PayloadOff, cmd.PayloadLen, len(r.data))
		}
	case BatchRead:
		cmd.Queue, cmd.Mem = ocl.CommandQueue(u64()), ocl.Mem(u64())
		cmd.Offset, cmd.Size = int64(u64()), int64(u64())
	case BatchCopy:
		cmd.Queue, cmd.Src, cmd.Dst = ocl.CommandQueue(u64()), ocl.Mem(u64()), ocl.Mem(u64())
		cmd.SrcOff, cmd.DstOff, cmd.Size = int64(u64()), int64(u64()), int64(u64())
	case BatchNDRange:
		cmd.Queue, cmd.Kernel = ocl.CommandQueue(u64()), ocl.Kernel(u64())
		cmd.Dims = int(int32(u32()))
		for _, v := range [3]*[3]int{&cmd.GOff, &cmd.Global, &cmd.Local} {
			for k := range v {
				v[k] = int(u64())
			}
		}
	default:
		cmd.Queue = ocl.CommandQueue(u64())
	}
	if len(b) < 8*nwaits+4*nidx {
		return bad("%d waits and %d in-batch waits need %d bytes, %d left", nwaits, nidx, 8*nwaits+4*nidx, len(b))
	}
	r.waits, r.idx = r.waits[:0], r.idx[:0]
	for k := 0; k < nwaits; k++ {
		r.waits = append(r.waits, ocl.Event(u64()))
	}
	for k := 0; k < nidx; k++ {
		j := int(u32())
		if j >= i {
			return bad("in-batch wait on command %d, which has not run", j)
		}
		r.idx = append(r.idx, j)
	}
	if nwaits > 0 {
		cmd.Waits = r.waits
	}
	if nidx > 0 {
		cmd.WaitIdx = r.idx
	}
	r.rest = b
	r.i++
	return nil
}

// writeData is the payload window of a decoded BatchWrite.
func (r *batchReader) writeData(cmd *BatchCmd) []byte {
	return r.data[cmd.PayloadOff : cmd.PayloadOff+cmd.PayloadLen]
}
