package proxy

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"

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
// an ipc.Conn, charging the forwarding overhead to the application's
// clock. This is the client half of §III-A.
//
// When a redial function is installed (Spawn wires it to the proxy), a
// call that fails with ipc.ErrConnDown is transparently retried over a
// fresh connection to the same live proxy process. Mutating calls carry a
// sequence number, so a retry whose original execution succeeded (only
// the response was lost) is answered from the server's dedupe cache
// instead of re-executed. Only when the proxy process itself is gone does
// the error reach the caller, where core.CheCL's failover takes over.
type Client struct {
	clock *vtime.Clock
	cost  CostModel

	mu     sync.Mutex
	conn   ipc.Transport
	redial func() (ipc.Transport, error)
	closed bool

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

// SetRedial installs the function that dials a replacement connection to
// the same proxy after a transport fault.
func (c *Client) SetRedial(fn func() (ipc.Transport, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.redial = fn
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

// Close tears down the connection to the proxy and stops any further
// reconnect attempts.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	return conn.Close()
}

// idempotent reports whether method can be blindly re-sent: queries and
// reads change no proxy state worth deduping, so they go out with seq 0.
func idempotent(method string) bool {
	if strings.HasPrefix(method, "clGet") {
		return true
	}
	switch method {
	case "clFinish", "clFlush", "clWaitForEvents", "clEnqueueReadBuffer", "clEnqueueBarrier":
		return true
	}
	return false
}

// call forwards one API call, charging its modelled cost, retrying over a
// fresh connection when the transport dies under it.
func (c *Client) call(method string, req, resp any) error {
	_, err := c.exchange(method, req, nil, resp, nil)
	return err
}

// send is call for the entry points that return nothing but an error.
func (c *Client) send(method string, req any) error {
	var r Empty
	return c.call(method, req, &r)
}

// exchange is call with raw payloads both ways: rawReq, when non-nil, rides
// the request as a raw frame, and the raw parts the server attached to its
// response are returned, part k received into into[k] when its capacity
// suffices. Mutating methods get a fresh dedupe sequence number.
func (c *Client) exchange(method string, req any, rawReq []byte, resp any, into [][]byte) ([][]byte, error) {
	var seq uint64
	if !idempotent(method) {
		seq = c.seq.Add(1)
	}
	return c.exchangeSeqPriced(method, seq, req, rawReq, resp, into, nil)
}

// exchangeSeqPriced is exchange with the dedupe sequence number already
// assigned and a pluggable price for the successful wire exchange:
// price(n) returns the duration charged to the application clock for a
// frame of n bytes; nil keeps the default synchronous round-trip price.
// A call that fails with ipc.ErrConnDown is retried over a fresh
// connection, re-sending the same raw payload under the same sequence
// number, so the server's dedupe cache treats the whole frame set as one
// call. Retry backoff and re-sends are always charged in full — only the
// final successful exchange is re-priced.
func (c *Client) exchangeSeqPriced(method string, seq uint64, req any, rawReq []byte, resp any, into [][]byte, price func(n int64) vtime.Duration) ([][]byte, error) {
	backoff := retryBackoff
	var lastErr error
	for attempt := 1; ; attempt++ {
		c.mu.Lock()
		conn := c.conn
		c.mu.Unlock()
		parts, n, err := conn.CallRaw(method, seq, req, rawReq, resp, into)
		c.calls.Add(1)
		c.bytes.Add(n)
		if price != nil {
			c.clock.Advance(price(n))
		} else {
			c.clock.Advance(c.cost.roundTrip(n))
		}
		if err == nil {
			return parts, nil
		}
		var re *ipc.RemoteError
		if errors.As(err, &re) {
			return nil, &ocl.Error{Status: ocl.Status(re.Status), Op: re.Op, Detail: re.Detail}
		}
		if !errors.Is(err, ipc.ErrConnDown) {
			return nil, err
		}
		lastErr = err
		if attempt >= retryAttempts {
			return nil, lastErr
		}
		c.clock.Advance(backoff)
		if backoff *= 2; backoff > retryMaxBackoff {
			backoff = retryMaxBackoff
		}
		if !c.reconnect(conn) {
			return nil, lastErr
		}
		c.retries.Add(1)
	}
}

// reconnect swaps in a fresh connection if the failed one is still
// current. It reports whether a retry is worth attempting.
func (c *Client) reconnect(failed ipc.Transport) bool {
	c.mu.Lock()
	if c.closed || c.redial == nil {
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

func (c *Client) GetPlatformIDs() ([]ocl.PlatformID, error) {
	var r GetPlatformIDsResp
	err := c.call("clGetPlatformIDs", Empty{}, &r)
	return r.Platforms, err
}

func (c *Client) GetPlatformInfo(p ocl.PlatformID) (ocl.PlatformInfo, error) {
	var r GetPlatformInfoResp
	err := c.call("clGetPlatformInfo", GetPlatformInfoReq{Platform: p}, &r)
	return r.Info, err
}

func (c *Client) GetDeviceIDs(p ocl.PlatformID, mask ocl.DeviceTypeMask) ([]ocl.DeviceID, error) {
	var r GetDeviceIDsResp
	err := c.call("clGetDeviceIDs", GetDeviceIDsReq{Platform: p, Mask: mask}, &r)
	return r.Devices, err
}

func (c *Client) GetDeviceInfo(d ocl.DeviceID) (ocl.DeviceInfo, error) {
	var r GetDeviceInfoResp
	err := c.call("clGetDeviceInfo", GetDeviceInfoReq{Device: d}, &r)
	return r.Info, err
}

func (c *Client) CreateContext(devices []ocl.DeviceID) (ocl.Context, error) {
	var r CreateContextResp
	err := c.call("clCreateContext", CreateContextReq{Devices: devices}, &r)
	return r.Context, err
}

func (c *Client) RetainContext(ctx ocl.Context) error {
	return c.send("clRetainContext", ContextReq{Context: ctx})
}

func (c *Client) ReleaseContext(ctx ocl.Context) error {
	return c.send("clReleaseContext", ContextReq{Context: ctx})
}

func (c *Client) CreateCommandQueue(ctx ocl.Context, d ocl.DeviceID, props ocl.QueueProps) (ocl.CommandQueue, error) {
	var r CreateCommandQueueResp
	err := c.call("clCreateCommandQueue", CreateCommandQueueReq{Context: ctx, Device: d, Props: props}, &r)
	return r.Queue, err
}

func (c *Client) RetainCommandQueue(q ocl.CommandQueue) error {
	return c.send("clRetainCommandQueue", QueueReq{Queue: q})
}

func (c *Client) ReleaseCommandQueue(q ocl.CommandQueue) error {
	return c.send("clReleaseCommandQueue", QueueReq{Queue: q})
}

func (c *Client) CreateBuffer(ctx ocl.Context, flags ocl.MemFlags, size int64, hostData []byte) (ocl.Mem, error) {
	var r CreateBufferResp
	err := c.call("clCreateBuffer", CreateBufferReq{Context: ctx, Flags: flags, Size: size, HostData: hostData}, &r)
	return r.Mem, err
}

func (c *Client) RetainMemObject(m ocl.Mem) error {
	return c.send("clRetainMemObject", MemReq{Mem: m})
}

func (c *Client) ReleaseMemObject(m ocl.Mem) error {
	return c.send("clReleaseMemObject", MemReq{Mem: m})
}

func (c *Client) CreateSampler(ctx ocl.Context, normalized bool, am ocl.AddressingMode, fm ocl.FilterMode) (ocl.Sampler, error) {
	var r CreateSamplerResp
	err := c.call("clCreateSampler", CreateSamplerReq{Context: ctx, Normalized: normalized, AMode: am, FMode: fm}, &r)
	return r.Sampler, err
}

func (c *Client) RetainSampler(s ocl.Sampler) error {
	return c.send("clRetainSampler", SamplerReq{Sampler: s})
}

func (c *Client) ReleaseSampler(s ocl.Sampler) error {
	return c.send("clReleaseSampler", SamplerReq{Sampler: s})
}

func (c *Client) CreateProgramWithSource(ctx ocl.Context, source string) (ocl.Program, error) {
	var r CreateProgramResp
	err := c.call("clCreateProgramWithSource", CreateProgramWithSourceReq{Context: ctx, Source: source}, &r)
	return r.Program, err
}

func (c *Client) CreateProgramWithBinary(ctx ocl.Context, d ocl.DeviceID, binary []byte) (ocl.Program, error) {
	var r CreateProgramResp
	err := c.call("clCreateProgramWithBinary", CreateProgramWithBinaryReq{Context: ctx, Device: d, Binary: binary}, &r)
	return r.Program, err
}

func (c *Client) BuildProgram(p ocl.Program, options string) error {
	return c.send("clBuildProgram", BuildProgramReq{Program: p, Options: options})
}

func (c *Client) GetProgramBuildInfo(p ocl.Program, d ocl.DeviceID) (ocl.BuildInfo, error) {
	var r GetProgramBuildInfoResp
	err := c.call("clGetProgramBuildInfo", GetProgramBuildInfoReq{Program: p, Device: d}, &r)
	return r.Info, err
}

func (c *Client) GetProgramBinary(p ocl.Program) ([]byte, error) {
	var r GetProgramBinaryResp
	err := c.call("clGetProgramBinary", ProgramReq{Program: p}, &r)
	return r.Binary, err
}

func (c *Client) RetainProgram(p ocl.Program) error {
	return c.send("clRetainProgram", ProgramReq{Program: p})
}

func (c *Client) ReleaseProgram(p ocl.Program) error {
	return c.send("clReleaseProgram", ProgramReq{Program: p})
}

func (c *Client) CreateKernel(p ocl.Program, name string) (ocl.Kernel, error) {
	var r CreateKernelResp
	err := c.call("clCreateKernel", CreateKernelReq{Program: p, Name: name}, &r)
	return r.Kernel, err
}

func (c *Client) RetainKernel(k ocl.Kernel) error {
	return c.send("clRetainKernel", KernelReq{Kernel: k})
}

func (c *Client) ReleaseKernel(k ocl.Kernel) error {
	return c.send("clReleaseKernel", KernelReq{Kernel: k})
}

func (c *Client) SetKernelArg(k ocl.Kernel, index int, size int64, value []byte) error {
	return c.send("clSetKernelArg", SetKernelArgReq{Kernel: k, Index: index, Size: size, Value: value})
}

func (c *Client) EnqueueWriteBuffer(q ocl.CommandQueue, m ocl.Mem, blocking bool, offset int64, data []byte, waits []ocl.Event) (ocl.Event, error) {
	var r EventResp
	// The payload rides the raw frame: no gob encode, no intermediate copy.
	_, err := c.exchange("clEnqueueWriteBuffer", EnqueueWriteBufferReq{
		Queue: q, Mem: m, Blocking: blocking, Offset: offset, Waits: waits,
	}, data, &r, nil)
	return r.Event, err
}

func (c *Client) EnqueueReadBuffer(q ocl.CommandQueue, m ocl.Mem, blocking bool, offset, size int64, waits []ocl.Event) ([]byte, ocl.Event, error) {
	return c.EnqueueReadBufferInto(q, m, blocking, offset, size, waits, nil)
}

// EnqueueReadBufferInto is EnqueueReadBuffer with a caller-supplied
// destination: when buf's capacity covers the read, the data lands in it
// and the returned slice aliases buf (no allocation); otherwise a fresh
// buffer is returned.
func (c *Client) EnqueueReadBufferInto(q ocl.CommandQueue, m ocl.Mem, blocking bool, offset, size int64, waits []ocl.Event, buf []byte) ([]byte, ocl.Event, error) {
	var r EnqueueReadBufferResp
	// The data comes back as the response's raw frame.
	parts, err := c.exchange("clEnqueueReadBuffer", EnqueueReadBufferReq{
		Queue: q, Mem: m, Blocking: blocking, Offset: offset, Size: size, Waits: waits,
	}, nil, &r, [][]byte{buf})
	if len(parts) == 0 {
		return nil, r.Event, err
	}
	return parts[0], r.Event, err
}

// BulkCut reports this client's CostModel.BulkCut.
func (c *Client) BulkCut() int64 { return c.cost.BulkCut() }

// SendBatch ships a built command frame as one sequenced call. The k-th
// returned part is the data of the k-th BatchRead that executed.
func (c *Client) SendBatch(f *BatchFrame) (EnqueueBatchResp, [][]byte, error) {
	var r EnqueueBatchResp
	parts, err := c.exchange("clEnqueueBatch", Empty{}, f.bytes(0), &r, nil)
	if err == nil {
		c.batched.Add(int64(f.Len()))
	}
	return r, parts, err
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
// A non-zero epoch tags the frame as a speculative checkpoint drain, whose
// bulk transfer overlaps continued application progress: the application
// clock is charged only an empty round trip, and the modelled cost of the
// actual frame is returned so the caller can charge whatever its own
// progress did not hide. The data is complete at the exchange either way;
// only its cost is deferred.
func (c *Client) ReadBatch(cmds []BatchCmd, into [][]byte, epoch uint64) (EnqueueBatchResp, [][]byte, vtime.Duration, error) {
	var (
		r     EnqueueBatchResp
		frame vtime.Duration
		price func(n int64) vtime.Duration
	)
	if epoch != 0 {
		price = func(n int64) vtime.Duration {
			frame = c.cost.roundTrip(n)
			return c.cost.roundTrip(0)
		}
	}
	parts, err := c.exchangeSeqPriced("clEnqueueBatch", 0, Empty{}, frameOf(cmds, nil).bytes(epoch), &r, into, price)
	if err == nil {
		c.batched.Add(int64(len(cmds)))
		if epoch != 0 {
			c.speculated.Add(int64(len(cmds)))
		}
	}
	return r, parts, frame, err
}

func (c *Client) EnqueueCopyBuffer(q ocl.CommandQueue, src, dst ocl.Mem, srcOff, dstOff, size int64, waits []ocl.Event) (ocl.Event, error) {
	var r EventResp
	err := c.call("clEnqueueCopyBuffer", EnqueueCopyBufferReq{
		Queue: q, Src: src, Dst: dst, SrcOff: srcOff, DstOff: dstOff, Size: size, Waits: waits,
	}, &r)
	return r.Event, err
}

func (c *Client) EnqueueNDRangeKernel(q ocl.CommandQueue, k ocl.Kernel, dims int, offset, global, local [3]int, waits []ocl.Event) (ocl.Event, error) {
	var r EventResp
	err := c.call("clEnqueueNDRangeKernel", EnqueueNDRangeKernelReq{
		Queue: q, Kernel: k, Dims: dims, Offset: offset, Global: global, Local: local, Waits: waits,
	}, &r)
	return r.Event, err
}

func (c *Client) EnqueueMarker(q ocl.CommandQueue) (ocl.Event, error) {
	var r EventResp
	err := c.call("clEnqueueMarker", QueueReq{Queue: q}, &r)
	return r.Event, err
}

func (c *Client) EnqueueBarrier(q ocl.CommandQueue) error {
	return c.send("clEnqueueBarrier", QueueReq{Queue: q})
}

func (c *Client) Flush(q ocl.CommandQueue) error {
	return c.send("clFlush", QueueReq{Queue: q})
}

func (c *Client) Finish(q ocl.CommandQueue) error {
	return c.send("clFinish", QueueReq{Queue: q})
}

func (c *Client) WaitForEvents(events []ocl.Event) error {
	return c.send("clWaitForEvents", WaitForEventsReq{Events: events})
}

func (c *Client) GetMemObjectInfo(m ocl.Mem) (ocl.MemObjectInfo, error) {
	var r GetMemObjectInfoResp
	err := c.call("clGetMemObjectInfo", MemReq{Mem: m}, &r)
	return r.Info, err
}

func (c *Client) GetKernelInfo(k ocl.Kernel) (ocl.KernelInfo, error) {
	var r GetKernelInfoResp
	err := c.call("clGetKernelInfo", KernelReq{Kernel: k}, &r)
	return r.Info, err
}

func (c *Client) GetContextInfo(ctx ocl.Context) (ocl.ContextInfo, error) {
	var r GetContextInfoResp
	err := c.call("clGetContextInfo", ContextReq{Context: ctx}, &r)
	return r.Info, err
}

func (c *Client) GetCommandQueueInfo(q ocl.CommandQueue) (ocl.CommandQueueInfo, error) {
	var r GetCommandQueueInfoResp
	err := c.call("clGetCommandQueueInfo", QueueReq{Queue: q}, &r)
	return r.Info, err
}

func (c *Client) GetKernelWorkGroupInfo(k ocl.Kernel, d ocl.DeviceID) (ocl.KernelWorkGroupInfo, error) {
	var r GetKernelWorkGroupInfoResp
	err := c.call("clGetKernelWorkGroupInfo", GetKernelWorkGroupInfoReq{Kernel: k, Device: d}, &r)
	return r.Info, err
}

func (c *Client) GetEventProfile(e ocl.Event) (ocl.EventProfile, error) {
	var r GetEventProfileResp
	err := c.call("clGetEventProfilingInfo", EventReq{Event: e}, &r)
	return r.Profile, err
}

func (c *Client) RetainEvent(e ocl.Event) error {
	return c.send("clRetainEvent", EventReq{Event: e})
}

func (c *Client) ReleaseEvent(e ocl.Event) error {
	return c.send("clReleaseEvent", EventReq{Event: e})
}
