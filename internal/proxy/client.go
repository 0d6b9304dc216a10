package proxy

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"checl/internal/hw"
	"checl/internal/ipc"
	"checl/internal/ocl"
	"checl/internal/vtime"
)

// CostModel prices one forwarded API call: a fixed round-trip latency plus
// a copy of the payload at the given bandwidth. For a same-node proxy the
// bandwidth is host memcpy; for a remote proxy (the §V extension) it is
// the NIC. When Ring is set the call instead rides the shared-memory ring
// and is priced from its slot/poll/arena model.
type CostModel struct {
	CallLatency vtime.Duration // one-way; charged twice per round trip
	CopyBW      hw.Bandwidth
	Ring        *hw.RingModel // non-nil: price calls as ring traffic
}

// roundTrip prices one synchronous call moving n bytes.
func (m CostModel) roundTrip(n int64) vtime.Duration {
	if m.Ring != nil {
		return m.Ring.RoundTrip(n)
	}
	return 2*m.CallLatency + m.CopyBW.Transfer(n)
}

// BulkCut is the payload size from which copying the payload alone costs
// at least the round trip that queueing it behind other commands would
// save. core stages writes below it into the next batch frame and sends
// writes at or above it on their own zero-copy call, so the copy starts
// overlapping device work at once.
func (m CostModel) BulkCut() int64 {
	bw := m.CopyBW
	if m.Ring != nil {
		bw = m.Ring.ArenaBW
	}
	return int64(m.roundTrip(0).Seconds() * float64(bw))
}

// The client's transparent reconnect-and-retry loop: total tries per call
// (the first included), the wait before the first retry, and the cap on
// its exponential growth. Backoff is charged to the virtual clock like any
// other modelled wait.
const (
	retryAttempts   = 3
	retryBackoff    = 100 * vtime.Microsecond
	retryMaxBackoff = 10 * vtime.Millisecond
)

// Stats counts the traffic a client has forwarded and the transport
// failures it has absorbed.
type Stats struct {
	Calls      int64 // calls sent on the wire (retries included)
	Bytes      int64
	Batched    int64 // commands coalesced into clEnqueueBatch calls
	Speculated int64 // commands shipped by overlapped (epoch-tagged) batches
	Posted     int64 // always 0: kept for tools compiled against the field
	Retries    int64 // calls re-sent after a transport fault
	Reconnects int64 // fresh connections dialled to the same proxy
}

// Client implements ocl.API by forwarding every call to an API proxy over
// an ipc.Transport, charging the forwarding overhead to the application's
// clock. This is the client half of §III-A.
//
// When a redial function is installed (Spawn wires it to the proxy), a
// call that fails with ipc.ErrConnDown is transparently retried over a
// fresh connection to the same live proxy process. A frame that changes
// proxy state carries a sequence number, so a retry whose original
// execution succeeded (only the reply was lost) is answered from the
// server's dedupe cache instead of re-executed. Only when the proxy
// process itself is gone does the error reach the caller, where
// core.CheCL's failover takes over.
type Client struct {
	clock *vtime.Clock
	cost  CostModel

	mu     sync.Mutex
	conn   ipc.Transport
	redial func() (ipc.Transport, error) // nil: a dropped connection is final

	seq        atomic.Uint64
	calls      atomic.Int64
	bytes      atomic.Int64
	batched    atomic.Int64
	speculated atomic.Int64
	retries    atomic.Int64
	reconnects atomic.Int64
}

var _ ocl.API = (*Client)(nil)

// NewClient wraps an RPC transport as an API client.
func NewClient(conn ipc.Transport, clock *vtime.Clock, cost CostModel) *Client {
	return &Client{conn: conn, clock: clock, cost: cost}
}

// Stats reports the calls and bytes forwarded so far.
func (c *Client) Stats() Stats {
	return Stats{
		Calls:      c.calls.Load(),
		Bytes:      c.bytes.Load(),
		Batched:    c.batched.Load(),
		Speculated: c.speculated.Load(),
		Retries:    c.retries.Load(),
		Reconnects: c.reconnects.Load(),
	}
}

// Price reports what the client charges the application clock for one
// synchronous call moving n bytes on its transport.
func (c *Client) Price(n int64) vtime.Duration { return c.cost.roundTrip(n) }

// call makes one synchronous API call: a frame of one command, req, whose
// blob rides the request by reference, whose data (a write's payload) is
// the raw payload, and whose read lands in into. It returns the handle the
// command minted and the value it returned; a command the proxy refused
// comes back as the *ocl.Error it raised.
func (c *Client) call(op BatchOp, req *request, blob, data []byte, into [][]byte) (uint64, []byte, [][]byte, error) {
	seal(req.Recs, 1)
	req.Args = blob
	var ev [1]ocl.Event
	resp, val, parts, err := c.ship(req, ev[:], op.mutates(), data, into, nil)
	if err == nil && resp.ErrIdx >= 0 {
		err = &ocl.Error{Status: ocl.Status(resp.ErrStatus), Op: resp.ErrOp, Detail: resp.ErrDetail}
	}
	return uint64(ev[0]), val, parts, err
}

// op calls an entry point outside the nine queued ops.
func (c *Client) op(op BatchOp, blob []byte, args ...uint64) (uint64, []byte, error) {
	req := newRequest()
	req.Recs = appendRecord(req.Recs, op, false, blob, nil, nil, args...)
	h, val, _, err := c.call(op, req, blob, nil, nil)
	return h, val, err
}

// cmd calls one of the nine queued ops, from its typed form.
func (c *Client) cmd(cmd BatchCmd, data []byte, into [][]byte) (ocl.Event, [][]byte, error) {
	req := newRequest()
	req.Recs = appendCmd(req.Recs, &cmd)
	h, _, parts, err := c.call(cmd.Op, req, cmd.Value, data, into)
	return ocl.Event(h), parts, err
}

// ship sends one frame of len(events) commands — req as the request value,
// data as the raw payload — and decodes its reply into events, returning
// the last value in it. A frame that changes proxy state gets a fresh
// dedupe sequence number.
// price(n) returns the duration charged to the application clock for an
// exchange of n bytes; nil keeps the default synchronous round-trip price.
// A call that fails with ipc.ErrConnDown is retried over a fresh
// connection, re-sending the same frame under the same sequence number, so
// the server's dedupe cache treats every delivery as one call. Retry
// backoff and re-sends are always charged in full — only the final
// successful exchange is re-priced.
func (c *Client) ship(req *request, events []ocl.Event, mutates bool, data []byte, into [][]byte, price func(n int64) vtime.Duration) (EnqueueBatchResp, []byte, [][]byte, error) {
	if len(data) == 0 {
		data = nil // no raw frame on the framed pipe
	}
	var seq uint64
	if mutates {
		seq = c.seq.Add(1)
	}
	backoff := retryBackoff
	for attempt := 1; ; attempt++ {
		c.mu.Lock()
		conn := c.conn
		c.mu.Unlock()
		req.reply = nil
		parts, moved, err := conn.CallRaw(route, seq, req, data, &req.reply, into)
		c.calls.Add(1)
		c.bytes.Add(moved)
		if price != nil {
			c.clock.Advance(price(moved))
		} else {
			c.clock.Advance(c.cost.roundTrip(moved))
		}
		if err == nil {
			var reply []byte
			if req.reply != nil {
				reply = *req.reply
			}
			if attempt == 1 && req.pooled {
				req.Args, req.reply = nil, nil
				requests.Put(req)
			}
			resp, val, err := decodeReply(reply, events)
			return resp, val, parts, err
		}
		var re *ipc.RemoteError
		if errors.As(err, &re) {
			err = &ocl.Error{Status: ocl.Status(re.Status), Op: re.Op, Detail: re.Detail}
		}
		if !errors.Is(err, ipc.ErrConnDown) || attempt >= retryAttempts {
			return EnqueueBatchResp{}, nil, nil, err
		}
		c.clock.Advance(backoff)
		if backoff *= 2; backoff > retryMaxBackoff {
			backoff = retryMaxBackoff
		}
		if !c.reconnect(conn) {
			return EnqueueBatchResp{}, nil, nil, err
		}
		c.retries.Add(1)
	}
}

// reconnect swaps in a fresh connection if the failed one is still
// current. It reports whether a retry is worth attempting.
func (c *Client) reconnect(failed ipc.Transport) bool {
	c.mu.Lock()
	if c.redial == nil {
		c.mu.Unlock()
		return false
	}
	if c.conn != failed {
		c.mu.Unlock()
		return true // another caller already redialled
	}
	conn, err := c.redial()
	if err != nil {
		c.mu.Unlock()
		return false
	}
	old := c.conn
	c.conn = conn
	c.reconnects.Add(1)
	c.mu.Unlock()
	_ = old.Close()
	return true
}

// --- forwarded API surface (one method per OpenCL entry point) ---

// value decodes the answer of a query.
func value[T any](_ uint64, val []byte, err error) (T, error) {
	var v T
	if err == nil {
		c := cursor{b: val}
		if getValue(&c, reflect.ValueOf(&v).Elem()); c.err != nil {
			err = badFrame(0, "%T result: %v", v, c.err)
		}
	}
	return v, err
}

// handle is the object a create made.
func handle[H ~uint64](h uint64, _ []byte, err error) (H, error) { return H(h), err }

// done is the error of a call that returns nothing else.
func done(_ uint64, _ []byte, err error) error { return err }

// view is the bytes of s, uncopied, as a call's blob: a source, a kernel
// name, build options. Go strings are immutable, and so is the view: a
// synchronous call's blob rides its request by reference and nothing on
// either side of the wire writes it, and the server copies what it keeps.
// An empty s is an empty blob, not a nil one.
func view(s string) []byte {
	if s == "" {
		return []byte{}
	}
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

func (c *Client) GetPlatformIDs() ([]ocl.PlatformID, error) {
	return value[[]ocl.PlatformID](c.op(opGetPlatformIDs, nil))
}

func (c *Client) GetPlatformInfo(p ocl.PlatformID) (ocl.PlatformInfo, error) {
	return value[ocl.PlatformInfo](c.op(opGetPlatformInfo, nil, uint64(p)))
}

func (c *Client) GetDeviceIDs(p ocl.PlatformID, mask ocl.DeviceTypeMask) ([]ocl.DeviceID, error) {
	return value[[]ocl.DeviceID](c.op(opGetDeviceIDs, nil, uint64(p), uint64(mask)))
}

func (c *Client) GetDeviceInfo(d ocl.DeviceID) (ocl.DeviceInfo, error) {
	return value[ocl.DeviceInfo](c.op(opGetDeviceInfo, nil, uint64(d)))
}

func (c *Client) CreateContext(devices []ocl.DeviceID) (ocl.Context, error) {
	return handle[ocl.Context](c.op(opCreateContext, putValue(nil, reflect.ValueOf(devices))))
}

func (c *Client) RetainContext(x ocl.Context) error {
	return done(c.op(opRetainContext, nil, uint64(x)))
}

func (c *Client) ReleaseContext(x ocl.Context) error {
	return done(c.op(opReleaseContext, nil, uint64(x)))
}

func (c *Client) GetContextInfo(x ocl.Context) (ocl.ContextInfo, error) {
	return value[ocl.ContextInfo](c.op(opGetContextInfo, nil, uint64(x)))
}

func (c *Client) CreateCommandQueue(x ocl.Context, d ocl.DeviceID, props ocl.QueueProps) (ocl.CommandQueue, error) {
	return handle[ocl.CommandQueue](c.op(opCreateCommandQueue, nil, uint64(x), uint64(d), uint64(props)))
}

func (c *Client) RetainCommandQueue(q ocl.CommandQueue) error {
	return done(c.op(opRetainCommandQueue, nil, uint64(q)))
}

func (c *Client) ReleaseCommandQueue(q ocl.CommandQueue) error {
	return done(c.op(opReleaseCommandQueue, nil, uint64(q)))
}

func (c *Client) GetCommandQueueInfo(q ocl.CommandQueue) (ocl.CommandQueueInfo, error) {
	return value[ocl.CommandQueueInfo](c.op(opGetCommandQueueInfo, nil, uint64(q)))
}

// CreateBuffer sends hostData as the record's blob: on the ring it crosses
// by reference, uncopied and unpriced.
func (c *Client) CreateBuffer(x ocl.Context, flags ocl.MemFlags, size int64, hostData []byte) (ocl.Mem, error) {
	return handle[ocl.Mem](c.op(opCreateBuffer, hostData, uint64(x), uint64(flags), uint64(size)))
}

func (c *Client) RetainMemObject(m ocl.Mem) error {
	return done(c.op(opRetainMemObject, nil, uint64(m)))
}

func (c *Client) ReleaseMemObject(m ocl.Mem) error {
	return done(c.op(opReleaseMemObject, nil, uint64(m)))
}

func (c *Client) GetMemObjectInfo(m ocl.Mem) (ocl.MemObjectInfo, error) {
	return value[ocl.MemObjectInfo](c.op(opGetMemObjectInfo, nil, uint64(m)))
}

func (c *Client) CreateSampler(x ocl.Context, normalized bool, am ocl.AddressingMode, fm ocl.FilterMode) (ocl.Sampler, error) {
	norm := uint64(0)
	if normalized {
		norm = 1
	}
	return handle[ocl.Sampler](c.op(opCreateSampler, nil, uint64(x), norm, uint64(am), uint64(fm)))
}

func (c *Client) RetainSampler(s ocl.Sampler) error {
	return done(c.op(opRetainSampler, nil, uint64(s)))
}

func (c *Client) ReleaseSampler(s ocl.Sampler) error {
	return done(c.op(opReleaseSampler, nil, uint64(s)))
}

func (c *Client) CreateProgramWithSource(x ocl.Context, source string) (ocl.Program, error) {
	return handle[ocl.Program](c.op(opCreateProgramWithSource, view(source), uint64(x)))
}

func (c *Client) CreateProgramWithBinary(x ocl.Context, d ocl.DeviceID, binary []byte) (ocl.Program, error) {
	return handle[ocl.Program](c.op(opCreateProgramWithBinary, binary, uint64(x), uint64(d)))
}

func (c *Client) BuildProgram(p ocl.Program, options string) error {
	return done(c.op(opBuildProgram, view(options), uint64(p)))
}

func (c *Client) GetProgramBuildInfo(p ocl.Program, d ocl.DeviceID) (ocl.BuildInfo, error) {
	return value[ocl.BuildInfo](c.op(opGetProgramBuildInfo, nil, uint64(p), uint64(d)))
}

func (c *Client) GetProgramBinary(p ocl.Program) ([]byte, error) {
	return value[[]byte](c.op(opGetProgramBinary, nil, uint64(p)))
}

func (c *Client) RetainProgram(p ocl.Program) error {
	return done(c.op(opRetainProgram, nil, uint64(p)))
}

func (c *Client) ReleaseProgram(p ocl.Program) error {
	return done(c.op(opReleaseProgram, nil, uint64(p)))
}

func (c *Client) CreateKernel(p ocl.Program, name string) (ocl.Kernel, error) {
	return handle[ocl.Kernel](c.op(opCreateKernel, view(name), uint64(p)))
}

func (c *Client) RetainKernel(k ocl.Kernel) error { return done(c.op(opRetainKernel, nil, uint64(k))) }

func (c *Client) ReleaseKernel(k ocl.Kernel) error {
	return done(c.op(opReleaseKernel, nil, uint64(k)))
}

func (c *Client) GetKernelInfo(k ocl.Kernel) (ocl.KernelInfo, error) {
	return value[ocl.KernelInfo](c.op(opGetKernelInfo, nil, uint64(k)))
}

func (c *Client) GetKernelWorkGroupInfo(k ocl.Kernel, d ocl.DeviceID) (ocl.KernelWorkGroupInfo, error) {
	return value[ocl.KernelWorkGroupInfo](c.op(opGetKernelWorkGroupInfo, nil, uint64(k), uint64(d)))
}

func (c *Client) SetKernelArg(k ocl.Kernel, index int, size int64, value []byte) error {
	_, _, err := c.cmd(BatchCmd{Op: BatchSetArg, Kernel: k, Index: index, ArgSize: size, Value: value}, nil, nil)
	return err
}

// EnqueueWriteBuffer lends data to the call as its raw payload, uncopied.
func (c *Client) EnqueueWriteBuffer(q ocl.CommandQueue, m ocl.Mem, blocking bool, offset int64, data []byte, waits []ocl.Event) (ocl.Event, error) {
	ev, _, err := c.cmd(BatchCmd{Op: BatchWrite, Queue: q, Mem: m, Blocking: blocking, Offset: offset, PayloadLen: int64(len(data)), Waits: waits}, data, nil)
	return ev, err
}

func (c *Client) EnqueueReadBuffer(q ocl.CommandQueue, m ocl.Mem, blocking bool, offset, size int64, waits []ocl.Event) ([]byte, ocl.Event, error) {
	return c.EnqueueReadBufferInto(q, m, blocking, offset, size, waits, nil)
}

// EnqueueReadBufferInto is EnqueueReadBuffer with a caller-supplied
// destination: when buf's capacity covers the read, the data lands in it
// and the returned slice aliases buf (no allocation); otherwise a fresh
// buffer is returned.
func (c *Client) EnqueueReadBufferInto(q ocl.CommandQueue, m ocl.Mem, blocking bool, offset, size int64, waits []ocl.Event, buf []byte) ([]byte, ocl.Event, error) {
	ev, parts, err := c.cmd(BatchCmd{Op: BatchRead, Queue: q, Mem: m, Blocking: blocking, Offset: offset, Size: size, Waits: waits}, nil, [][]byte{buf})
	if len(parts) == 0 {
		return nil, ev, err
	}
	return parts[0], ev, err
}

func (c *Client) EnqueueCopyBuffer(q ocl.CommandQueue, src, dst ocl.Mem, srcOff, dstOff, size int64, waits []ocl.Event) (ocl.Event, error) {
	ev, _, err := c.cmd(BatchCmd{Op: BatchCopy, Queue: q, Src: src, Dst: dst, SrcOff: srcOff, DstOff: dstOff, Size: size, Waits: waits}, nil, nil)
	return ev, err
}

func (c *Client) EnqueueNDRangeKernel(q ocl.CommandQueue, k ocl.Kernel, dims int, offset, global, local [3]int, waits []ocl.Event) (ocl.Event, error) {
	ev, _, err := c.cmd(BatchCmd{Op: BatchNDRange, Queue: q, Kernel: k, Dims: dims, GOff: offset, Global: global, Local: local, Waits: waits}, nil, nil)
	return ev, err
}

func (c *Client) EnqueueMarker(q ocl.CommandQueue) (ocl.Event, error) {
	ev, _, err := c.cmd(BatchCmd{Op: BatchMarker, Queue: q}, nil, nil)
	return ev, err
}

func (c *Client) EnqueueBarrier(q ocl.CommandQueue) error { return c.onQueue(BatchBarrier, q) }

func (c *Client) Flush(q ocl.CommandQueue) error { return c.onQueue(BatchFlush, q) }

func (c *Client) Finish(q ocl.CommandQueue) error { return c.onQueue(BatchFinish, q) }

// onQueue calls a queued op that names only its queue and returns nothing.
func (c *Client) onQueue(op BatchOp, q ocl.CommandQueue) error {
	_, _, err := c.cmd(BatchCmd{Op: op, Queue: q}, nil, nil)
	return err
}

// WaitForEvents sends the events as its command's wait list.
func (c *Client) WaitForEvents(events []ocl.Event) error {
	req := newRequest()
	req.Recs = appendRecord(req.Recs, opWaitForEvents, false, nil, events, nil)
	_, _, _, err := c.call(opWaitForEvents, req, nil, nil, nil)
	return err
}

func (c *Client) GetEventProfile(e ocl.Event) (ocl.EventProfile, error) {
	return value[ocl.EventProfile](c.op(opGetEventProfile, nil, uint64(e)))
}

func (c *Client) RetainEvent(e ocl.Event) error { return done(c.op(opRetainEvent, nil, uint64(e))) }

func (c *Client) ReleaseEvent(e ocl.Event) error { return done(c.op(opReleaseEvent, nil, uint64(e))) }

// BulkCut reports this client's CostModel.BulkCut.
func (c *Client) BulkCut() int64 { return c.cost.BulkCut() }

// SendBatch ships a built frame as one call, sequenced when any of its
// commands changes proxy state. The k-th returned part is the data of the
// k-th BatchRead that ran.
func (c *Client) SendBatch(f *BatchFrame) (EnqueueBatchResp, [][]byte, error) {
	events := make([]ocl.Event, f.n)
	resp, _, parts, err := c.ship(f.request(), events, f.mutates, f.data, nil, nil)
	resp.Events = events
	if err == nil {
		c.batched.Add(int64(f.n))
	}
	return resp, parts, err
}

// frameOf builds the frame of a command list made ahead of time; payload is
// the concatenation of every BatchWrite's data, referenced by the commands'
// PayloadOff/PayloadLen.
func frameOf(cmds []BatchCmd, payload []byte) *BatchFrame {
	var f BatchFrame
	f.Stage(payload)
	for i := range cmds {
		f.Add(&cmds[i])
	}
	return &f
}

// ReadBatch ships a frame of reads, and the finishes that fence them, as
// one call: the k-th read lands in into[k] when its capacity suffices, and
// nothing on the way copies it again. Such a frame changes no proxy state,
// so it travels unsequenced like a single read — a retry re-executes it —
// and no replay cache pins its data.
//
// A non-zero epoch marks the frame as a speculative checkpoint drain,
// whose bulk transfer overlaps continued application progress: the
// application clock is charged only an empty round trip, and the modelled
// cost of the actual frame is returned so the caller can charge whatever
// its own progress did not hide. The data is complete at the exchange
// either way; only its cost is deferred.
func (c *Client) ReadBatch(cmds []BatchCmd, into [][]byte, epoch uint64) (EnqueueBatchResp, [][]byte, vtime.Duration, error) {
	var (
		frame vtime.Duration
		price func(n int64) vtime.Duration
	)
	if epoch != 0 {
		price = func(n int64) vtime.Duration {
			frame = c.cost.roundTrip(n)
			return c.cost.roundTrip(0)
		}
	}
	f := frameOf(cmds, nil)
	events := make([]ocl.Event, f.n)
	resp, _, parts, err := c.ship(f.request(), events, f.mutates, nil, into, price)
	resp.Events = events
	if err == nil {
		c.batched.Add(int64(len(cmds)))
		if epoch != 0 {
			c.speculated.Add(int64(len(cmds)))
		}
	}
	return resp, parts, frame, err
}
