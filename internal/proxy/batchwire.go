package proxy

// The command stream, the proxy's one wire. Every API call is a frame of
// command records on one ipc route — a synchronous call a frame of one, a
// queue flush a frame of many — and its answer is one reply record:
//
//	records  the request value's Recs: "CLB2" | ncmds u32, then per command
//	         op u8 | flags u8 | nwaits u16 | nidx u16 | blobLen u32
//	         | the op's u64 args (opSpecs) | nwaits u64 event handles
//	         | nidx u32 indices of earlier commands, whose handle is the event
//	args     the request value's Args: each record's blob (a kernel-argument
//	         value, host data, a source, a binary, build options, a kernel
//	         name, a device list), in record order
//	data     the call's raw payload: write data, at [off, off+len)
//	reply    errIdx i32 (-1: every command ran) | nres u32
//	         | nres × (cmd u32 | handle u64 | value blob)
//	         | when errIdx >= 0: status i32 | op blob | detail blob
//	blob     len u32 | bytes, all integers little-endian
//
// The request value and the reply cross the ring by reference and the
// framed pipe as gob; only data (and read results) ride as raw payload, the
// bytes the ring prices as arena traffic (DESIGN.md §13). A result's handle
// is the event an enqueue minted or the object a create made; its value is
// a query's answer in putValue's form.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"checl/internal/ipc"
	"checl/internal/ocl"
)

// BatchOp identifies one command of the stream. The first nine are the ops
// core queues; the rest only synchronous calls send.
type BatchOp int

const (
	BatchSetArg BatchOp = iota
	BatchWrite
	BatchRead
	BatchCopy
	BatchNDRange
	BatchMarker
	BatchBarrier
	BatchFlush
	BatchFinish
	opGetPlatformIDs
	opGetPlatformInfo
	opGetDeviceIDs
	opGetDeviceInfo
	opCreateContext
	opRetainContext
	opReleaseContext
	opGetContextInfo
	opCreateCommandQueue
	opRetainCommandQueue
	opReleaseCommandQueue
	opGetCommandQueueInfo
	opCreateBuffer
	opRetainMemObject
	opReleaseMemObject
	opGetMemObjectInfo
	opCreateSampler
	opRetainSampler
	opReleaseSampler
	opCreateProgramWithSource
	opCreateProgramWithBinary
	opBuildProgram
	opGetProgramBuildInfo
	opGetProgramBinary
	opRetainProgram
	opReleaseProgram
	opCreateKernel
	opRetainKernel
	opReleaseKernel
	opGetKernelInfo
	opGetKernelWorkGroupInfo
	opWaitForEvents
	opGetEventProfile
	opRetainEvent
	opReleaseEvent
	numOps
)

// opSpecs is each op's wire contract: the entry point it stands for, the
// args its record carries, and whether it changes proxy state. A frame
// holding an op that does is sequenced, so a retry after a lost reply is
// answered from the replay cache instead of running again; a frame of only
// queries, reads, finish, flush, barrier and wait goes unsequenced.
var opSpecs = [numOps]struct {
	method  string
	args    int
	mutates bool
}{
	BatchSetArg:               {"clSetKernelArg", 3, true},          // kernel, index, size; blob: the value
	BatchWrite:                {"clEnqueueWriteBuffer", 5, true},    // queue, mem, offset, data off, data len
	BatchRead:                 {"clEnqueueReadBuffer", 4, false},    // queue, mem, offset, size
	BatchCopy:                 {"clEnqueueCopyBuffer", 6, true},     // queue, src, dst, src off, dst off, size
	BatchNDRange:              {"clEnqueueNDRangeKernel", 12, true}, // queue, kernel, dims, offset, global, local
	BatchMarker:               {"clEnqueueMarker", 1, true},         // queue, as for the next three
	BatchBarrier:              {"clEnqueueBarrier", 1, false},
	BatchFlush:                {"clFlush", 1, false},
	BatchFinish:               {"clFinish", 1, false},
	opGetPlatformIDs:          {"clGetPlatformIDs", 0, false},
	opGetPlatformInfo:         {"clGetPlatformInfo", 1, false},
	opGetDeviceIDs:            {"clGetDeviceIDs", 2, false}, // platform, type mask
	opGetDeviceInfo:           {"clGetDeviceInfo", 1, false},
	opCreateContext:           {"clCreateContext", 0, true}, // blob: the devices, in putValue's form
	opRetainContext:           {"clRetainContext", 1, true},
	opReleaseContext:          {"clReleaseContext", 1, true},
	opGetContextInfo:          {"clGetContextInfo", 1, false},
	opCreateCommandQueue:      {"clCreateCommandQueue", 3, true}, // context, device, properties
	opRetainCommandQueue:      {"clRetainCommandQueue", 1, true},
	opReleaseCommandQueue:     {"clReleaseCommandQueue", 1, true},
	opGetCommandQueueInfo:     {"clGetCommandQueueInfo", 1, false},
	opCreateBuffer:            {"clCreateBuffer", 3, true}, // context, flags, size; blob: host data
	opRetainMemObject:         {"clRetainMemObject", 1, true},
	opReleaseMemObject:        {"clReleaseMemObject", 1, true},
	opGetMemObjectInfo:        {"clGetMemObjectInfo", 1, false},
	opCreateSampler:           {"clCreateSampler", 4, true}, // context, normalized, addressing, filter
	opRetainSampler:           {"clRetainSampler", 1, true},
	opReleaseSampler:          {"clReleaseSampler", 1, true},
	opCreateProgramWithSource: {"clCreateProgramWithSource", 1, true}, // context; blob: source
	opCreateProgramWithBinary: {"clCreateProgramWithBinary", 2, true}, // context, device; blob: binary
	opBuildProgram:            {"clBuildProgram", 1, true},            // program; blob: options
	opGetProgramBuildInfo:     {"clGetProgramBuildInfo", 2, false},    // program, device
	opGetProgramBinary:        {"clGetProgramBinary", 1, false},
	opRetainProgram:           {"clRetainProgram", 1, true},
	opReleaseProgram:          {"clReleaseProgram", 1, true},
	opCreateKernel:            {"clCreateKernel", 1, true}, // program; blob: name
	opRetainKernel:            {"clRetainKernel", 1, true},
	opReleaseKernel:           {"clReleaseKernel", 1, true},
	opGetKernelInfo:           {"clGetKernelInfo", 1, false},
	opGetKernelWorkGroupInfo:  {"clGetKernelWorkGroupInfo", 2, false}, // kernel, device
	opWaitForEvents:           {"clWaitForEvents", 0, false},          // the events are its wait list
	opGetEventProfile:         {"clGetEventProfilingInfo", 1, false},
	opRetainEvent:             {"clRetainEvent", 1, true},
	opReleaseEvent:            {"clReleaseEvent", 1, true},
}

// Method names the OpenCL entry point an op stands for, so an error can be
// attributed to the call the application made.
func (op BatchOp) Method() string {
	if op >= 0 && op < numOps {
		return opSpecs[op].method
	}
	return "clEnqueueBatch"
}

// mutates reports whether op changes proxy state; an op the decoder refuses
// counts as one.
func (op BatchOp) mutates() bool { return op < 0 || op >= numOps || opSpecs[op].mutates }

// BatchCmd is one of the nine queued ops in its typed form. A write's data
// sits in the frame's data region at [PayloadOff, PayloadOff+PayloadLen).
// Waits lists event handles that already exist server-side; WaitIdx
// references events minted by earlier commands of the same frame.
type BatchCmd struct {
	Op         BatchOp
	Queue      ocl.CommandQueue
	Kernel     ocl.Kernel
	Index      int    // SetArg: argument index
	ArgSize    int64  // SetArg: argument size
	Value      []byte // SetArg: argument bytes (nil for a __local size)
	Mem        ocl.Mem
	Src, Dst   ocl.Mem
	Blocking   bool
	Offset     int64
	SrcOff     int64
	DstOff     int64
	Size       int64
	PayloadOff int64
	PayloadLen int64
	Dims       int
	GOff       [3]int
	Global     [3]int
	Local      [3]int
	Waits      []ocl.Event
	WaitIdx    []int
}

// EnqueueBatchResp is a decoded reply. Commands before ErrIdx ran, and
// Events holds the handle each minted; the data of each read that ran is
// one raw part of the call, in read order. A failed command's error is in
// the Err* fields, as the runtime raised it; commands after it did not run.
type EnqueueBatchResp struct {
	Events    []ocl.Event
	ErrIdx    int // index of the failed command; -1 = all executed
	ErrOp     string
	ErrDetail string
	ErrStatus int32
}

const (
	frameMagic  = "CLB2"
	frameHeader = 8
	recordHead  = 10
	maxArgs     = 12

	flagBlocking = 1 << 0
	flagNilBlob  = 1 << 1 // the blob is nil, not empty (a __local argument, no host data)
)

var le = binary.LittleEndian

// BatchFormatError reports a frame or reply the decoder refused.
type BatchFormatError struct {
	Cmd    int // index of the offending command; -1 for the header
	Detail string
}

func (e *BatchFormatError) Error() string {
	return fmt.Sprintf("proxy: malformed frame (command %d): %s", e.Cmd, e.Detail)
}

func badFrame(cmd int, format string, args ...any) error {
	return &BatchFormatError{Cmd: cmd, Detail: fmt.Sprintf(format, args...)}
}

// request is a frame's request value (Recs and Args; its data region
// travels beside it) and the slot its reply lands in. A synchronous call's
// request comes from the requests pool.
type request struct {
	Recs   []byte
	Args   []byte
	reply  *[]byte
	pooled bool
}

// requests recycles synchronous calls' requests. One goes back only when
// its first delivery was answered: then no server goroutine still reads
// it, as it might after a dropped connection.
var requests = sync.Pool{New: func() any { return &request{pooled: true} }}

// newRequest is a pooled request holding an empty frame.
func newRequest() *request {
	req := requests.Get().(*request)
	req.Recs = startFrame(req.Recs)
	return req
}

// startFrame empties b and writes a frame header; seal fills in its count.
func startFrame(b []byte) []byte { return append(b[:0], frameMagic+"\x00\x00\x00\x00"...) }

func seal(recs []byte, n int) { le.PutUint32(recs[4:], uint32(n)) }

// appendRecord appends one record; args are the op's. The blob's bytes go
// in the request's Args, which the caller fills in record order.
func appendRecord(recs []byte, op BatchOp, blocking bool, blob []byte, waits []ocl.Event, idx []int, args ...uint64) []byte {
	var flags byte
	if blocking {
		flags |= flagBlocking
	}
	if blob == nil {
		flags |= flagNilBlob
	}
	b := le.AppendUint16(append(recs, byte(op), flags), uint16(len(waits)))
	b = le.AppendUint32(le.AppendUint16(b, uint16(len(idx))), uint32(len(blob)))
	for _, a := range args {
		b = le.AppendUint64(b, a)
	}
	for _, w := range waits {
		b = le.AppendUint64(b, uint64(w))
	}
	for _, j := range idx {
		b = le.AppendUint32(b, uint32(j))
	}
	return b
}

// appendCmd appends the record of one of the nine queued ops.
func appendCmd(recs []byte, c *BatchCmd) []byte {
	rec := func(blob []byte, args ...uint64) []byte {
		return appendRecord(recs, c.Op, c.Blocking, blob, c.Waits, c.WaitIdx, args...)
	}
	q := uint64(c.Queue)
	switch c.Op {
	case BatchSetArg:
		return rec(c.Value, uint64(c.Kernel), uint64(c.Index), uint64(c.ArgSize))
	case BatchWrite:
		return rec(nil, q, uint64(c.Mem), uint64(c.Offset), uint64(c.PayloadOff), uint64(c.PayloadLen))
	case BatchRead:
		return rec(nil, q, uint64(c.Mem), uint64(c.Offset), uint64(c.Size))
	case BatchCopy:
		return rec(nil, q, uint64(c.Src), uint64(c.Dst), uint64(c.SrcOff), uint64(c.DstOff), uint64(c.Size))
	case BatchNDRange:
		o, g, l := c.GOff, c.Global, c.Local
		return rec(nil, q, uint64(c.Kernel), uint64(c.Dims), uint64(o[0]), uint64(o[1]), uint64(o[2]),
			uint64(g[0]), uint64(g[1]), uint64(g[2]), uint64(l[0]), uint64(l[1]), uint64(l[2]))
	}
	return rec(nil, q) // marker, barrier, flush, finish — and ops the decoder refuses
}

// BatchFrame builds one frame in reusable buffers: Stage copies write
// payloads into the data region as calls arrive, Add encodes records —
// which need translated handles — at the flush.
type BatchFrame struct {
	req     request
	data    []byte
	n       int
	mutates bool
}

// Reset empties the frame, keeping its buffers.
func (f *BatchFrame) Reset() {
	f.data = f.data[:0]
	f.Rewind()
}

// Rewind drops the encoded commands and keeps the staged data: a retry
// re-encodes against rebound handles without re-copying payloads.
func (f *BatchFrame) Rewind() {
	f.req.Recs, f.req.Args, f.n, f.mutates = startFrame(f.req.Recs), f.req.Args[:0], 0, false
}

// Stage copies p into the data region and returns its offset there.
func (f *BatchFrame) Stage(p []byte) int64 {
	f.data = append(f.data, p...)
	return int64(len(f.data) - len(p))
}

// DataLen is the number of staged payload bytes.
func (f *BatchFrame) DataLen() int { return len(f.data) }

// Len is the number of commands encoded.
func (f *BatchFrame) Len() int { return f.n }

// Add appends one command. cmd is only read; nothing of it is retained.
func (f *BatchFrame) Add(cmd *BatchCmd) {
	if f.n == 0 {
		f.Rewind()
	}
	f.req.Recs = appendCmd(f.req.Recs, cmd)
	f.req.Args = append(f.req.Args, cmd.Value...)
	f.mutates = f.mutates || cmd.Op.mutates()
	f.n++
}

// request seals the header and returns the request value.
func (f *BatchFrame) request() *request {
	if f.n == 0 {
		f.Rewind()
	}
	seal(f.req.Recs, f.n)
	return &f.req
}

// record is one decoded command. blob, waits and idx alias the reader's
// scratch and the request: valid until the following next.
type record struct {
	op       BatchOp
	blocking bool
	args     [maxArgs]uint64
	blob     []byte
	waits    []ocl.Event
	idx      []int
}

// frameReader decodes a frame one record at a time. Every count and length
// is checked against what is left before it is used, so a hostile frame
// yields a *BatchFormatError and never an out-of-range access.
type frameReader struct {
	n, i       int // commands announced by the header; the next one
	recs, args []byte
	data       []byte
	waits      []ocl.Event // scratch behind record.waits
	idx        []int       // scratch behind record.idx
}

// openFrame validates the header and positions the reader on command 0.
func openFrame(req *request, data []byte) (frameReader, error) {
	if req == nil || len(req.Recs) < frameHeader || string(req.Recs[:4]) != frameMagic {
		return frameReader{}, badFrame(-1, "no %q frame header", frameMagic)
	}
	n := le.Uint32(req.Recs[4:])
	if uint64(n)*recordHead > uint64(len(req.Recs)-frameHeader) {
		return frameReader{}, badFrame(-1, "%d commands cannot fit %d bytes of records", n, len(req.Recs)-frameHeader)
	}
	return frameReader{n: int(n), recs: req.Recs[frameHeader:], args: req.Args, data: data}, nil
}

// next decodes the next record into rec.
func (r *frameReader) next(rec *record) error {
	i, b := r.i, r.recs
	if len(b) < recordHead {
		return badFrame(i, "%d bytes left, want a %d-byte record head", len(b), recordHead)
	}
	op, flags := BatchOp(b[0]), b[1]
	nwaits, nidx, blobLen := int(le.Uint16(b[2:])), int(le.Uint16(b[4:])), uint64(le.Uint32(b[6:]))
	*rec = record{op: op, blocking: flags&flagBlocking != 0}
	if op >= numOps {
		return badFrame(i, "unknown op %d", op)
	}
	nargs := opSpecs[op].args
	if b = b[recordHead:]; len(b) < 8*nargs+8*nwaits+4*nidx || blobLen > uint64(len(r.args)) {
		return badFrame(i, "%s record cut short", op.Method())
	}
	for k := range nargs {
		rec.args[k] = le.Uint64(b[8*k:])
	}
	b = b[8*nargs:]
	r.waits, r.idx = r.waits[:0], r.idx[:0]
	for k := range nwaits {
		r.waits = append(r.waits, ocl.Event(le.Uint64(b[8*k:])))
	}
	b = b[8*nwaits:]
	for k := range nidx {
		j := int(le.Uint32(b[4*k:]))
		if j >= i {
			return badFrame(i, "in-frame wait on command %d, which has not run", j)
		}
		r.idx = append(r.idx, j)
	}
	if off, n := rec.args[3], rec.args[4]; op == BatchWrite && (off > uint64(len(r.data)) || n > uint64(len(r.data))-off) {
		return badFrame(i, "write data [%d:+%d] outside the %d-byte data region", off, n, len(r.data))
	}
	if flags&flagNilBlob == 0 {
		if rec.blob = r.args[:blobLen:blobLen]; rec.blob == nil {
			rec.blob = []byte{}
		}
	}
	if nwaits > 0 {
		rec.waits = r.waits
	}
	if nidx > 0 {
		rec.idx = r.idx
	}
	r.recs, r.args = b[4*nidx:], r.args[blobLen:]
	r.i++
	return nil
}

// writeData is the data window of a decoded BatchWrite.
func (r *frameReader) writeData(rec *record) []byte {
	return r.data[rec.args[3] : rec.args[3]+rec.args[4]]
}

// ranAll is the reply of a frame whose commands all ran and returned
// nothing; it is shared, as no reply is written after it is built.
var ranAll = []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}

// replyWriter builds a reply in memory of its own: the replay cache keeps a
// sequenced call's reply by reference, so no reply may share memory that a
// later call writes. A query's value is written as it comes; the handles
// at the end, into a buffer sized for them.
type replyWriter struct {
	b []byte
	n uint32 // results written
}

// value records query i's answer v.
func (w *replyWriter) value(i int, v any) {
	if w.b == nil {
		w.b = append(make([]byte, 0, 64), ranAll...)
	}
	w.b = le.AppendUint64(le.AppendUint32(w.b, uint32(i)), 0)
	at := len(w.b)
	w.b = putValue(append(w.b, 0, 0, 0, 0), reflect.ValueOf(v))
	le.PutUint32(w.b[at:], uint32(len(w.b)-at-4))
	w.n++
}

// reply ends the reply: hs[i] is the handle command i minted (zero for
// none), and err, when non-nil, the error of command len(hs), an op.
func (w *replyWriter) reply(hs []uint64, op BatchOp, err error) *[]byte {
	name, detail, status, size := "", "", int32(-9999), 0
	if err != nil {
		name, detail = op.Method(), err.Error()
		var ec ipc.ErrorCoder
		if errors.As(err, &ec) {
			name, status, detail = ec.ErrorCode()
		}
		size = 12 + len(name) + len(detail)
	}
	for _, h := range hs {
		if h != 0 {
			size += 16
		}
	}
	if w.b == nil && size == 0 {
		return &ranAll
	}
	b := w.b
	if b == nil {
		b = append(make([]byte, 0, len(ranAll)+size), ranAll...)
	}
	for i, h := range hs {
		if h != 0 {
			b = le.AppendUint32(le.AppendUint64(le.AppendUint32(b, uint32(i)), h), 0)
			w.n++
		}
	}
	le.PutUint32(b[4:], w.n)
	if err != nil {
		le.PutUint32(b, uint32(len(hs)))
		b = appendBlob(appendBlob(le.AppendUint32(b, uint32(status)), name), detail)
	}
	return &b
}

// decodeReply reads the reply to a frame of len(events) commands into resp
// (all but Events) and events, the handle each minted; val is the last
// value in it, which
// for a one-command frame is the command's own. A reply that does not
// parse, or names a command outside the frame, is a *BatchFormatError.
func decodeReply(b []byte, events []ocl.Event) (resp EnqueueBatchResp, val []byte, err error) {
	c := cursor{b: b}
	resp.ErrIdx = int(int32(c.u32()))
	for k := c.u32(); k > 0 && c.err == nil; k-- {
		i, h, v := c.u32(), c.u64(), c.blob()
		if c.err == nil && uint64(i) >= uint64(len(events)) {
			return resp, nil, badFrame(int(i), "reply names command %d of %d", i, len(events))
		}
		if c.err == nil {
			events[i], val = ocl.Event(h), v
		}
	}
	if resp.ErrIdx < -1 || resp.ErrIdx >= len(events) {
		return resp, nil, badFrame(resp.ErrIdx, "reply fails command %d of %d", resp.ErrIdx, len(events))
	}
	if resp.ErrIdx >= 0 {
		resp.ErrStatus, resp.ErrOp, resp.ErrDetail = int32(c.u32()), string(c.blob()), string(c.blob())
	}
	if c.err != nil {
		return resp, nil, badFrame(-1, "reply: %v", c.err)
	}
	return resp, val, nil
}

// cursor reads what the encoders here appended. The first read past the
// end latches err, and every read after it returns zero.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) take(n uint64) []byte {
	if c.err == nil && n > uint64(len(c.b)) {
		c.err = fmt.Errorf("%d bytes wanted, %d left", n, len(c.b))
	}
	if c.err != nil {
		return nil
	}
	p := c.b[:n:n]
	c.b = c.b[n:]
	return p
}

func (c *cursor) u32() uint32 {
	if p := c.take(4); p != nil {
		return le.Uint32(p)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if p := c.take(8); p != nil {
		return le.Uint64(p)
	}
	return 0
}

func (c *cursor) blob() []byte { return c.take(uint64(c.u32())) }

func appendBlob[T string | []byte](b []byte, s T) []byte {
	return append(le.AppendUint32(b, uint32(len(s))), s...)
}

// putValue appends v's wire form: integers and bools as u64, strings and
// byte slices as blobs, other slices as a u32 count and their elements,
// arrays and structs element by element. It covers the results of
// ocl.API: handle lists, the info structs and a program binary.
func putValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return le.AppendUint64(b, 1)
		}
		return le.AppendUint64(b, 0)
	case reflect.Int, reflect.Int32, reflect.Int64:
		return le.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint32, reflect.Uint64:
		return le.AppendUint64(b, v.Uint())
	case reflect.String:
		return appendBlob(b, v.String())
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return appendBlob(b, v.Bytes())
		}
		b = le.AppendUint32(b, uint32(v.Len()))
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			b = putValue(b, v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			b = putValue(b, v.Field(i))
		}
	default:
		panic("proxy: no wire form for " + v.Type().String())
	}
	return b
}

// getValue reads into v (settable) what putValue wrote. Empty slices decode
// as nil, and no slice is sized beyond the bytes left to fill it.
func getValue(c *cursor, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(c.u64() != 0)
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(int64(c.u64()))
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(c.u64())
	case reflect.String:
		v.SetString(string(c.blob()))
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if p := c.blob(); len(p) > 0 {
				v.SetBytes(append([]byte(nil), p...))
			}
			return
		}
		n := uint64(c.u32())
		if n > uint64(len(c.b)) {
			c.take(n) // latches the error: n elements cannot fit
		}
		if n == 0 || c.err != nil {
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), int(n), int(n)))
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			getValue(c, v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			getValue(c, v.Field(i))
		}
	default:
		panic("proxy: no wire form for " + v.Type().String())
	}
}
