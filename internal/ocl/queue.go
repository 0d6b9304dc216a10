package ocl

import (
	"encoding/binary"

	"checl/internal/clc"
	"checl/internal/hw"
	"checl/internal/vtime"
)

// hostToDevBW returns the bandwidth for host->device transfers on the
// queue's device: PCIe for GPUs, host memcpy for CPU devices.
func (r *Runtime) hostToDevBW(d *device) hw.Bandwidth {
	if d.model.Type == hw.DeviceCPU {
		return r.spec.Inter.Memcpy
	}
	return r.spec.Inter.PCIeHtoD
}

func (r *Runtime) devToHostBW(d *device) hw.Bandwidth {
	if d.model.Type == hw.DeviceCPU {
		return r.spec.Inter.Memcpy
	}
	return r.spec.Inter.PCIeDtoH
}

// waitsEnd computes the completion horizon of an event wait list. Caller
// holds r.mu.
func (r *Runtime) waitsEnd(op string, waits []Event) (vtime.Time, error) {
	var horizon vtime.Time
	for _, e := range waits {
		ev, ok := r.events[e]
		if !ok {
			return 0, Errf(op, InvalidEventWaitList, "unknown event %#x", uint64(e))
		}
		horizon = vtime.Max(horizon, ev.profile.End)
	}
	return horizon, nil
}

// newEvent mints a completed-at-end event on q. Caller holds r.mu.
func (r *Runtime) newEvent(q CommandQueue, kind string, queued, start, end vtime.Time) *eventObj {
	ev := &eventObj{
		id:    Event(r.newHandle(tagEvent)),
		refs:  1,
		queue: q,
		kind:  kind,
		profile: EventProfile{
			Queued: queued,
			Submit: queued,
			Start:  start,
			End:    end,
		},
	}
	r.events[ev.id] = ev
	return ev
}

// schedule computes an in-order command's start/end and advances the
// queue tail. Caller holds r.mu.
func (r *Runtime) schedule(q *queueObj, horizon vtime.Time, dur vtime.Duration) (start, end vtime.Time) {
	now := r.clock.Now()
	start = vtime.Max(vtime.Max(now, q.tail), horizon)
	end = start.Add(dur)
	q.tail = end
	return start, end
}

// EnqueueWriteBuffer implements clEnqueueWriteBuffer.
func (r *Runtime) EnqueueWriteBuffer(qid CommandQueue, mid Mem, blocking bool, offset int64, data []byte, waits []Event) (Event, error) {
	r.mu.Lock()
	q, ok := r.queues[qid]
	if !ok {
		r.mu.Unlock()
		return 0, Errf("clEnqueueWriteBuffer", InvalidCommandQueue, "unknown queue %#x", uint64(qid))
	}
	b, ok := r.buffers[mid]
	if !ok {
		r.mu.Unlock()
		return 0, Errf("clEnqueueWriteBuffer", InvalidMemObject, "unknown mem object %#x", uint64(mid))
	}
	if offset < 0 || offset+int64(len(data)) > b.size {
		r.mu.Unlock()
		return 0, Errf("clEnqueueWriteBuffer", InvalidValue,
			"write of %d bytes at offset %d exceeds buffer size %d", len(data), offset, b.size)
	}
	horizon, err := r.waitsEnd("clEnqueueWriteBuffer", waits)
	if err != nil {
		r.mu.Unlock()
		return 0, err
	}
	dev := r.devices[q.dev]
	dur := r.hostToDevBW(dev).Transfer(int64(len(data)))
	queued := r.clock.Now()
	start, end := r.schedule(q, horizon, dur)
	copy(b.data[offset:], data)
	ev := r.newEvent(qid, "write", queued, start, end)
	r.mu.Unlock()
	if blocking {
		r.clock.AdvanceTo(end)
	}
	return ev.id, nil
}

// EnqueueReadBuffer implements clEnqueueReadBuffer. The read data is
// returned (in real OpenCL it lands in a caller-supplied pointer).
func (r *Runtime) EnqueueReadBuffer(qid CommandQueue, mid Mem, blocking bool, offset, size int64, waits []Event) ([]byte, Event, error) {
	return r.EnqueueReadBufferInto(qid, mid, blocking, offset, size, waits, nil)
}

// EnqueueReadBufferInto is EnqueueReadBuffer with a caller-owned
// destination — the closest Go analogue of the real call's void* out
// pointer. When buf's capacity covers size the read lands in it and the
// returned slice aliases buf; otherwise a fresh slice is allocated.
func (r *Runtime) EnqueueReadBufferInto(qid CommandQueue, mid Mem, blocking bool, offset, size int64, waits []Event, buf []byte) ([]byte, Event, error) {
	r.mu.Lock()
	q, ok := r.queues[qid]
	if !ok {
		r.mu.Unlock()
		return nil, 0, Errf("clEnqueueReadBuffer", InvalidCommandQueue, "unknown queue %#x", uint64(qid))
	}
	b, ok := r.buffers[mid]
	if !ok {
		r.mu.Unlock()
		return nil, 0, Errf("clEnqueueReadBuffer", InvalidMemObject, "unknown mem object %#x", uint64(mid))
	}
	if offset < 0 || size < 0 || offset+size > b.size {
		r.mu.Unlock()
		return nil, 0, Errf("clEnqueueReadBuffer", InvalidValue,
			"read of %d bytes at offset %d exceeds buffer size %d", size, offset, b.size)
	}
	horizon, err := r.waitsEnd("clEnqueueReadBuffer", waits)
	if err != nil {
		r.mu.Unlock()
		return nil, 0, err
	}
	dev := r.devices[q.dev]
	dur := r.devToHostBW(dev).Transfer(size)
	queued := r.clock.Now()
	start, end := r.schedule(q, horizon, dur)
	out := buf
	if int64(cap(out)) >= size {
		out = out[:size]
	} else {
		out = make([]byte, size)
	}
	copy(out, b.data[offset:offset+size])
	ev := r.newEvent(qid, "read", queued, start, end)
	r.mu.Unlock()
	if blocking {
		r.clock.AdvanceTo(end)
	}
	return out, ev.id, nil
}

// EnqueueCopyBuffer implements clEnqueueCopyBuffer (device-internal copy).
func (r *Runtime) EnqueueCopyBuffer(qid CommandQueue, src, dst Mem, srcOff, dstOff, size int64, waits []Event) (Event, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.queues[qid]
	if !ok {
		return 0, Errf("clEnqueueCopyBuffer", InvalidCommandQueue, "unknown queue %#x", uint64(qid))
	}
	sb, ok := r.buffers[src]
	if !ok {
		return 0, Errf("clEnqueueCopyBuffer", InvalidMemObject, "unknown source %#x", uint64(src))
	}
	db, ok := r.buffers[dst]
	if !ok {
		return 0, Errf("clEnqueueCopyBuffer", InvalidMemObject, "unknown destination %#x", uint64(dst))
	}
	if srcOff < 0 || srcOff+size > sb.size || dstOff < 0 || dstOff+size > db.size {
		return 0, Errf("clEnqueueCopyBuffer", InvalidValue, "copy range out of bounds")
	}
	horizon, err := r.waitsEnd("clEnqueueCopyBuffer", waits)
	if err != nil {
		return 0, err
	}
	dev := r.devices[q.dev]
	dur := dev.model.MemBandwidth.Transfer(2 * size) // read + write on device memory
	queued := r.clock.Now()
	start, end := r.schedule(q, horizon, dur)
	copy(db.data[dstOff:dstOff+size], sb.data[srcOff:srcOff+size])
	ev := r.newEvent(qid, "copy", queued, start, end)
	return ev.id, nil
}

// defaultLocal picks a legal work-group geometry when the application
// passes a NULL local size, mirroring implementation-chosen sizes.
func defaultLocal(dims int, global [3]int, m hw.DeviceModel) [3]int {
	local := [3]int{1, 1, 1}
	limit := m.MaxWorkGroupSize
	if limit > m.MaxWorkItemSizes[0] {
		limit = m.MaxWorkItemSizes[0]
	}
	g := global[0]
	if g == 0 {
		g = 1
	}
	best := 1
	for c := 1; c <= limit && c <= g; c *= 2 {
		if g%c == 0 {
			best = c
		}
	}
	local[0] = best
	_ = dims
	return local
}

// EnqueueNDRangeKernel implements clEnqueueNDRangeKernel: the kernel is
// interpreted eagerly for functional results, and its dynamic operation
// profile is converted to virtual device time by the roofline model.
func (r *Runtime) EnqueueNDRangeKernel(qid CommandQueue, kid Kernel, dims int, offset, global, local [3]int, waits []Event) (Event, error) {
	r.mu.Lock()
	q, ok := r.queues[qid]
	if !ok {
		r.mu.Unlock()
		return 0, Errf("clEnqueueNDRangeKernel", InvalidCommandQueue, "unknown queue %#x", uint64(qid))
	}
	k, ok := r.kernels[kid]
	if !ok {
		r.mu.Unlock()
		return 0, Errf("clEnqueueNDRangeKernel", InvalidKernel, "unknown kernel %#x", uint64(kid))
	}
	prog, ok := r.programs[k.prog]
	if !ok || !prog.built {
		r.mu.Unlock()
		return 0, Errf("clEnqueueNDRangeKernel", InvalidProgramExec, "kernel's program not built")
	}
	dev := r.devices[q.dev]
	if dims < 1 || dims > 3 {
		r.mu.Unlock()
		return 0, Errf("clEnqueueNDRangeKernel", InvalidWorkDimension, "dims %d", dims)
	}
	if local == [3]int{} {
		local = defaultLocal(dims, global, dev.model)
	}
	if err := dev.model.FitsWorkGroup(local); err != nil {
		r.mu.Unlock()
		return 0, Errf("clEnqueueNDRangeKernel", InvalidWorkGroupSize, "%v", err)
	}

	// Translate argument slots to interpreter arguments. A mem-handle
	// argument's 8 bytes are the cl_mem handle value — the runtime (like
	// a real implementation) resolves it to device storage.
	args := make([]clc.KernelArg, len(k.args))
	var hostPtrBufs []*buffer
	var hostPtrBytes int64
	for i, slot := range k.args {
		if !slot.set {
			r.mu.Unlock()
			return 0, Errf("clEnqueueNDRangeKernel", InvalidKernelArgs,
				"argument %d (%s) of kernel %s not set", i, k.sig.Params[i].Name, k.name)
		}
		switch k.sig.Params[i].Kind {
		case clc.ParamMemHandle, clc.ParamImageHandle:
			if slot.size != 8 {
				r.mu.Unlock()
				return 0, Errf("clEnqueueNDRangeKernel", InvalidArgSize,
					"argument %d of kernel %s: handle argument must be 8 bytes", i, k.name)
			}
			h := Mem(binary.LittleEndian.Uint64(slot.bytes))
			b, ok := r.buffers[h]
			if !ok {
				r.mu.Unlock()
				return 0, Errf("clEnqueueNDRangeKernel", InvalidMemObject,
					"argument %d of kernel %s: %#x is not a mem object", i, k.name, uint64(h))
			}
			args[i] = clc.KernelArg{Mem: b.data}
			if b.useHostPtr {
				hostPtrBufs = append(hostPtrBufs, b)
				hostPtrBytes += b.size
			}
		case clc.ParamLocalSize:
			args[i] = clc.KernelArg{LocalSize: int(slot.size)}
		case clc.ParamSamplerHandle:
			h := Sampler(binary.LittleEndian.Uint64(slot.bytes))
			if _, ok := r.samplers[h]; !ok {
				r.mu.Unlock()
				return 0, Errf("clEnqueueNDRangeKernel", InvalidSampler,
					"argument %d of kernel %s: %#x is not a sampler", i, k.name, uint64(h))
			}
			args[i] = clc.KernelArg{Scalar: slot.bytes}
		default:
			args[i] = clc.KernelArg{Scalar: slot.bytes}
		}
	}
	horizon, err := r.waitsEnd("clEnqueueNDRangeKernel", waits)
	if err != nil {
		r.mu.Unlock()
		return 0, err
	}
	compiled := prog.compiled
	name := k.name
	queued := r.clock.Now()

	// CL_MEM_USE_HOST_PTR coherence (§III-D): the cached host copy is
	// sent to the device before the kernel and written back after it.
	for _, b := range hostPtrBufs {
		copy(b.data, b.hostPtr)
	}
	r.mu.Unlock()

	prof, execErr := compiled.Execute(name, clc.NDRange{Dims: dims, Offset: offset, Global: global, Local: local}, args, clc.ExecOptions{})
	if execErr != nil {
		return 0, Errf("clEnqueueNDRangeKernel", OutOfResources, "kernel execution failed: %v", execErr)
	}

	dur := dev.model.KernelTime(prof.Flops, prof.GlobalBytes)
	if hostPtrBytes > 0 && dev.model.Type != hw.DeviceCPU {
		dur += r.spec.Inter.PCIeHtoD.Transfer(hostPtrBytes)
		dur += r.spec.Inter.PCIeDtoH.Transfer(hostPtrBytes)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range hostPtrBufs {
		copy(b.hostPtr, b.data)
	}
	q, ok = r.queues[qid]
	if !ok {
		return 0, Errf("clEnqueueNDRangeKernel", InvalidCommandQueue, "queue released during launch")
	}
	start, end := r.schedule(q, horizon, dur)
	ev := r.newEvent(qid, "ndrange:"+name, queued, start, end)
	return ev.id, nil
}

// EnqueueMarker implements clEnqueueMarker: it returns immediately with an
// event that completes when all previously enqueued commands complete.
// CheCL calls this to mint dummy events after restart (§III-C).
func (r *Runtime) EnqueueMarker(qid CommandQueue) (Event, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.queues[qid]
	if !ok {
		return 0, Errf("clEnqueueMarker", InvalidCommandQueue, "unknown queue %#x", uint64(qid))
	}
	now := r.clock.Now()
	at := vtime.Max(now, q.tail)
	ev := r.newEvent(qid, "marker", now, at, at)
	return ev.id, nil
}

// EnqueueBarrier implements clEnqueueBarrier. Queues in this runtime are
// in-order, so the barrier is a semantic no-op that still validates its
// queue.
func (r *Runtime) EnqueueBarrier(qid CommandQueue) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.queues[qid]; !ok {
		return Errf("clEnqueueBarrier", InvalidCommandQueue, "unknown queue %#x", uint64(qid))
	}
	return nil
}

// Flush implements clFlush: all commands are already submitted in this
// runtime, so flushing only validates the queue.
func (r *Runtime) Flush(qid CommandQueue) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.queues[qid]; !ok {
		return Errf("clFlush", InvalidCommandQueue, "unknown queue %#x", uint64(qid))
	}
	return nil
}

// Finish implements clFinish: it blocks (advances the clock) until every
// command enqueued on the queue has completed.
func (r *Runtime) Finish(qid CommandQueue) error {
	r.mu.Lock()
	q, ok := r.queues[qid]
	if !ok {
		r.mu.Unlock()
		return Errf("clFinish", InvalidCommandQueue, "unknown queue %#x", uint64(qid))
	}
	tail := q.tail
	r.mu.Unlock()
	r.clock.AdvanceTo(tail)
	return nil
}

// WaitForEvents implements clWaitForEvents.
func (r *Runtime) WaitForEvents(events []Event) error {
	if len(events) == 0 {
		return Errf("clWaitForEvents", InvalidValue, "empty event list")
	}
	r.mu.Lock()
	horizon, err := r.waitsEnd("clWaitForEvents", events)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	r.clock.AdvanceTo(horizon)
	return nil
}

// GetEventProfile implements clGetEventProfilingInfo.
func (r *Runtime) GetEventProfile(e Event) (EventProfile, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev, ok := r.events[e]
	if !ok {
		return EventProfile{}, Errf("clGetEventProfilingInfo", InvalidEvent, "unknown event %#x", uint64(e))
	}
	return ev.profile, nil
}

// RetainEvent implements clRetainEvent.
func (r *Runtime) RetainEvent(e Event) error { return retain(r, r.events, "clRetainEvent", e) }

// ReleaseEvent implements clReleaseEvent.
func (r *Runtime) ReleaseEvent(e Event) error { return release(r, r.events, "clReleaseEvent", e) }

// QueueTail reports the completion horizon of a queue without blocking —
// used by CheCL's delayed-checkpoint mode and by tests to measure the
// synchronisation cost a checkpoint would incur now.
func (r *Runtime) QueueTail(qid CommandQueue) (vtime.Time, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.queues[qid]
	if !ok {
		return 0, Errf("QueueTail", InvalidCommandQueue, "unknown queue %#x", uint64(qid))
	}
	return q.tail, nil
}
