package core

// The submission queue: the one path for calls that return nothing the
// application can observe. clSetKernelArg and the non-blocking
// clEnqueue{Write,Copy}Buffer / NDRangeKernel / Marker / Barrier calls are
// recorded as commands and shipped as one clEnqueueBatch frame at the next
// synchronisation point: clFinish, clFlush, any read (its data must come
// back), a blocking write, clWaitForEvents, an event query, an object
// release, a program build, a bulk write (see EnqueueWriteBuffer) or a
// checkpoint.
//
// OpenCL's error-reporting semantics survive the queue the same way they
// survive a real out-of-order device: an enqueue may return CL_SUCCESS and
// fail later; the failure then surfaces at a synchronisation point, as a
// *BatchError naming the originating entry point and its position in the
// frame. Commands after the failure were never executed; their events
// stay unbound (real handle zero) and are skipped by wait-list
// translation.
//
// Exactly-once under faults is per frame: clEnqueueBatch is a sequenced
// call, so a connection crash mid-flush either retries the whole frame
// (answered from the server's dedupe cache if the first delivery executed,
// or held on the in-flight claim while it still does) or fails over,
// rebinds every object, and re-encodes the frame against the fresh real
// handles. Queued commands hold record pointers, never raw handles, so the
// re-encoding reads the rebound handles naturally.

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"checl/internal/ocl"
	"checl/internal/proxy"
)

// Queue growth caps: a queue that would pass either bound is flushed
// before the next command is accepted, so one frame stays bounded.
const (
	maxQueueCmds  = 256
	maxQueueBytes = 8 << 20
)

// queuedCmd is one queued command. It references database records by
// pointer — real handles are read only while the frame is encoded — and
// keeps its variable-length parts (argument bytes, wait list, write
// payload) in the queue's reused arenas, so queueing allocates nothing.
type queuedCmd struct {
	op       proxy.BatchOp
	blocking bool
	termRead bool // the application's own read: its data is returned
	shadow   bool // ShadowFull readback: the data lands in mem's shadow

	q    *queueRec
	k    *kernelRec
	prog *programRec
	mem  *memRec // write/read target, copy destination
	src  *memRec // copy source
	ev   *eventRec

	argIndex       int
	argSize        int64
	argOff, argLen int // SetArg: bytes in qargs; argLen < 0 is a nil value

	offset, srcOff, size int64 // offset doubles as the copy's dstOff
	dataOff              int64 // write: payload offset in the frame's data region

	dims                int
	goff, global, local [3]int

	waitOff, waitLen int // wait list in qwaits
}

// BatchError is the deferred error of a queued command, delivered at the
// flush (the next synchronisation point after the failing call).
type BatchError struct {
	Method string // entry point of the failing call, e.g. "clEnqueueWriteBuffer"
	Index  int    // position within the flushed frame
	Err    error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("checl: deferred %s (batched command %d): %v", e.Method, e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// PendingBatch reports how many commands are queued (diagnostics, tests).
func (c *CheCL) PendingBatch() int { return len(c.queue) }

// reserve makes room for cmds more commands carrying bytes of payload,
// flushing first if they would pass the caps. A deferred error from that
// flush surfaces here, attributed via *BatchError to the call that
// originally failed; the caller must then drop its own command without
// having applied any of its side effects.
func (c *CheCL) reserve(cmds, bytes int) error {
	depth := cmp.Or(c.queueDepth, maxQueueCmds)
	if len(c.queue) > 0 && (len(c.queue)+cmds > depth || c.frame.DataLen()+bytes > maxQueueBytes) {
		return c.Drain()
	}
	return nil
}

// push appends one command with its wait list and mints the CheCL event it
// will complete (kind "" mints none). The event's real handle stays zero
// until the flush binds it. An invalid wait handle fails here, at the
// call, with nothing queued.
func (c *CheCL) push(cmd queuedCmd, kind string, waits []ocl.Event) (*eventRec, error) {
	cmd.waitOff = len(c.qwaits)
	for _, w := range waits {
		rec, err := c.db.event(Handle(w))
		if err != nil {
			c.qwaits = c.qwaits[:cmd.waitOff]
			return nil, err
		}
		c.qwaits = append(c.qwaits, rec)
	}
	cmd.waitLen = len(waits)
	if kind != "" {
		cmd.ev = &eventRec{H: c.db.newHandle(hEvent), Seq: c.db.seq, Queue: cmd.q.H, Kind: kind, Refs: 1, qidx: len(c.queue) + 1}
		c.db.events[cmd.ev.H] = cmd.ev
	}
	c.queue = append(c.queue, cmd)
	return cmd.ev, nil
}

// Drain ships the queue, delivering any deferred error; terminal read data
// is discarded. Every sync point that is not itself a read calls it, and
// so do tools and tests before they inspect proxy-side state directly.
func (c *CheCL) Drain() error {
	_, err := c.flushBatchData()
	return err
}

// flushBatchData ships every queued command as one clEnqueueBatch call and
// distributes the results: pre-minted events are bound to the real events
// the server returned, ShadowFull readbacks are copied into their shadows,
// and the terminal read's data (if the flush point is a read) is returned.
// A failing command comes back as a *BatchError; the commands after it
// were not executed and their events stay unbound. Nothing queues while a
// flush runs — a failover's rebind talks to the proxy directly — so the
// queue and its arenas are reset only once the results are distributed.
func (c *CheCL) flushBatchData() ([]byte, error) {
	cmds := c.queue
	if len(cmds) == 0 {
		return nil, nil
	}
	defer func() {
		clear(cmds)
		c.queue, c.qargs, c.qwaits = cmds[:0], c.qargs[:0], c.qwaits[:0]
		c.frame.Reset()
	}()

	var (
		resp  proxy.EnqueueBatchResp
		reads [][]byte // data of the executed reads, in command order
	)
	err := c.forward("clEnqueueBatch", func(api *proxy.Client) error {
		// Encoding happens inside the retry closure: after a failover the
		// records carry fresh real handles, and the whole frame re-encodes
		// (over the payloads already staged) and re-ships as one atomic unit.
		c.frame.Rewind()
		for i := range cmds {
			if err := c.encode(&cmds[i]); err != nil {
				return err
			}
		}
		var e error
		resp, reads, e = api.SendBatch(&c.frame)
		return e
	})

	failed := len(cmds) // first command that did not run
	switch {
	case err != nil:
		// Transport-level failure after exhausted recovery: nothing
		// executed that we can observe.
		failed = 0
	case resp.ErrIdx >= 0 && resp.ErrIdx < len(cmds):
		failed = resp.ErrIdx
	}
	var termData []byte
	for i := range cmds {
		pc := &cmds[i]
		if pc.ev != nil {
			pc.ev.qidx = 0
			// An event that did not run stays unbound, so wait-list
			// translation skips it.
			pc.ev.Dummy = i >= failed
			if i < failed && i < len(resp.Events) {
				pc.ev.real = resp.Events[i]
			}
		}
		if pc.op == proxy.BatchRead && i < failed && len(reads) > 0 {
			if pc.shadow {
				copy(shadow(pc.mem), reads[0])
			}
			if pc.termRead {
				termData = reads[0]
			}
			reads = reads[1:]
		}
	}
	if err != nil {
		return nil, err
	}
	if failed < len(cmds) {
		method := cmds[failed].op.Method()
		op := resp.ErrOp
		if op == "" {
			op = method
		}
		return termData, &BatchError{
			Method: method,
			Index:  failed,
			Err:    ocl.Errf(op, ocl.Status(resp.ErrStatus), "%s", resp.ErrDetail),
		}
	}
	return termData, nil
}

// encode appends one queued command to the frame, translated to the real
// handles its records carry right now. In-frame event dependencies resolve
// by command index, taking precedence over any real handle a failover
// rebind minted meanwhile.
func (c *CheCL) encode(pc *queuedCmd) error {
	bc := proxy.BatchCmd{Op: pc.op, Blocking: pc.blocking}
	c.swaits, c.sidx = c.swaits[:0], c.sidx[:0]
	for _, rec := range c.qwaits[pc.waitOff : pc.waitOff+pc.waitLen] {
		switch {
		case rec.qidx > 0:
			c.sidx = append(c.sidx, rec.qidx-1)
		case rec.real != 0: // zero: a command that never ran — nothing to wait on
			c.swaits = append(c.swaits, rec.real)
		}
	}
	bc.Waits, bc.WaitIdx = c.swaits, c.sidx
	if pc.q != nil {
		bc.Queue = pc.q.real
	}
	switch pc.op {
	case proxy.BatchSetArg:
		var value []byte
		if pc.argLen >= 0 {
			value = c.qargs[pc.argOff : pc.argOff+pc.argLen]
		}
		fwd, _, err := c.translateArg(pc.prog, pc.k.Name, pc.argIndex, pc.argSize, value)
		if err != nil {
			return err
		}
		bc.Kernel, bc.Index, bc.ArgSize, bc.Value = pc.k.real, pc.argIndex, pc.argSize, fwd
	case proxy.BatchWrite:
		bc.Mem, bc.Offset = pc.mem.real, pc.offset
		bc.PayloadOff, bc.PayloadLen = pc.dataOff, pc.size
	case proxy.BatchRead:
		bc.Mem, bc.Offset, bc.Size = pc.mem.real, pc.offset, pc.size
	case proxy.BatchCopy:
		bc.Src, bc.Dst = pc.src.real, pc.mem.real
		bc.SrcOff, bc.DstOff, bc.Size = pc.srcOff, pc.offset, pc.size
	case proxy.BatchNDRange:
		bc.Kernel, bc.Dims = pc.k.real, pc.dims
		bc.GOff, bc.Global, bc.Local = pc.goff, pc.global, pc.local
	}
	c.frame.Add(&bc)
	return nil
}

// handleBytes encodes a real handle the way it crosses clSetKernelArg. The
// result aliases a per-attachment scratch: valid until the next call.
func (c *CheCL) handleBytes(h uint64) []byte {
	binary.LittleEndian.PutUint64(c.hbuf[:], h)
	return c.hbuf[:]
}
