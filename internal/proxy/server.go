package proxy

import (
	"errors"

	"checl/internal/ipc"
	"checl/internal/ocl"
)

// readBufferInto reads through the API's caller-owned-destination variant
// when the implementation has one (the in-process Runtime does); otherwise
// it falls back to the allocating call and copies into buf when its
// capacity suffices. Either way the result lands in buf whenever
// cap(buf) >= size, which is what the pooled response paths rely on.
func readBufferInto(api ocl.API, q ocl.CommandQueue, m ocl.Mem, blocking bool, offset, size int64, waits []ocl.Event, buf []byte) ([]byte, ocl.Event, error) {
	type intoAPI interface {
		EnqueueReadBufferInto(q ocl.CommandQueue, m ocl.Mem, blocking bool, offset, size int64, waits []ocl.Event, buf []byte) ([]byte, ocl.Event, error)
	}
	if ri, ok := api.(intoAPI); ok {
		return ri.EnqueueReadBufferInto(q, m, blocking, offset, size, waits, buf)
	}
	data, ev, err := api.EnqueueReadBuffer(q, m, blocking, offset, size, waits)
	if err == nil && cap(buf) >= len(data) {
		buf = buf[:len(data)]
		copy(buf, data)
		return buf, ev, nil
	}
	return data, ev, err
}

// NewServer builds an RPC server that forwards every API method to api
// (normally an *ocl.Runtime living in the proxy process).
func NewServer(api ocl.API) *ipc.Server {
	s := ipc.NewServer()

	ipc.Register(s, "clGetPlatformIDs", func(Empty) (GetPlatformIDsResp, error) {
		ps, err := api.GetPlatformIDs()
		return GetPlatformIDsResp{Platforms: ps}, err
	})
	ipc.Register(s, "clGetPlatformInfo", func(r GetPlatformInfoReq) (GetPlatformInfoResp, error) {
		info, err := api.GetPlatformInfo(r.Platform)
		return GetPlatformInfoResp{Info: info}, err
	})
	ipc.Register(s, "clGetDeviceIDs", func(r GetDeviceIDsReq) (GetDeviceIDsResp, error) {
		ds, err := api.GetDeviceIDs(r.Platform, r.Mask)
		return GetDeviceIDsResp{Devices: ds}, err
	})
	ipc.Register(s, "clGetDeviceInfo", func(r GetDeviceInfoReq) (GetDeviceInfoResp, error) {
		info, err := api.GetDeviceInfo(r.Device)
		return GetDeviceInfoResp{Info: info}, err
	})

	ipc.Register(s, "clCreateContext", func(r CreateContextReq) (CreateContextResp, error) {
		c, err := api.CreateContext(r.Devices)
		return CreateContextResp{Context: c}, err
	})
	ipc.Register(s, "clRetainContext", func(r ContextReq) (Empty, error) {
		return Empty{}, api.RetainContext(r.Context)
	})
	ipc.Register(s, "clReleaseContext", func(r ContextReq) (Empty, error) {
		return Empty{}, api.ReleaseContext(r.Context)
	})

	ipc.Register(s, "clCreateCommandQueue", func(r CreateCommandQueueReq) (CreateCommandQueueResp, error) {
		q, err := api.CreateCommandQueue(r.Context, r.Device, r.Props)
		return CreateCommandQueueResp{Queue: q}, err
	})
	ipc.Register(s, "clRetainCommandQueue", func(r QueueReq) (Empty, error) {
		return Empty{}, api.RetainCommandQueue(r.Queue)
	})
	ipc.Register(s, "clReleaseCommandQueue", func(r QueueReq) (Empty, error) {
		return Empty{}, api.ReleaseCommandQueue(r.Queue)
	})

	ipc.Register(s, "clCreateBuffer", func(r CreateBufferReq) (CreateBufferResp, error) {
		m, err := api.CreateBuffer(r.Context, r.Flags, r.Size, r.HostData)
		return CreateBufferResp{Mem: m}, err
	})
	ipc.Register(s, "clRetainMemObject", func(r MemReq) (Empty, error) {
		return Empty{}, api.RetainMemObject(r.Mem)
	})
	ipc.Register(s, "clReleaseMemObject", func(r MemReq) (Empty, error) {
		return Empty{}, api.ReleaseMemObject(r.Mem)
	})

	ipc.Register(s, "clCreateSampler", func(r CreateSamplerReq) (CreateSamplerResp, error) {
		sm, err := api.CreateSampler(r.Context, r.Normalized, r.AMode, r.FMode)
		return CreateSamplerResp{Sampler: sm}, err
	})
	ipc.Register(s, "clRetainSampler", func(r SamplerReq) (Empty, error) {
		return Empty{}, api.RetainSampler(r.Sampler)
	})
	ipc.Register(s, "clReleaseSampler", func(r SamplerReq) (Empty, error) {
		return Empty{}, api.ReleaseSampler(r.Sampler)
	})

	ipc.Register(s, "clCreateProgramWithSource", func(r CreateProgramWithSourceReq) (CreateProgramResp, error) {
		p, err := api.CreateProgramWithSource(r.Context, r.Source)
		return CreateProgramResp{Program: p}, err
	})
	ipc.Register(s, "clCreateProgramWithBinary", func(r CreateProgramWithBinaryReq) (CreateProgramResp, error) {
		p, err := api.CreateProgramWithBinary(r.Context, r.Device, r.Binary)
		return CreateProgramResp{Program: p}, err
	})
	ipc.Register(s, "clBuildProgram", func(r BuildProgramReq) (Empty, error) {
		return Empty{}, api.BuildProgram(r.Program, r.Options)
	})
	ipc.Register(s, "clGetProgramBuildInfo", func(r GetProgramBuildInfoReq) (GetProgramBuildInfoResp, error) {
		info, err := api.GetProgramBuildInfo(r.Program, r.Device)
		return GetProgramBuildInfoResp{Info: info}, err
	})
	ipc.Register(s, "clGetProgramBinary", func(r ProgramReq) (GetProgramBinaryResp, error) {
		bin, err := api.GetProgramBinary(r.Program)
		return GetProgramBinaryResp{Binary: bin}, err
	})
	ipc.Register(s, "clRetainProgram", func(r ProgramReq) (Empty, error) {
		return Empty{}, api.RetainProgram(r.Program)
	})
	ipc.Register(s, "clReleaseProgram", func(r ProgramReq) (Empty, error) {
		return Empty{}, api.ReleaseProgram(r.Program)
	})

	ipc.Register(s, "clCreateKernel", func(r CreateKernelReq) (CreateKernelResp, error) {
		k, err := api.CreateKernel(r.Program, r.Name)
		return CreateKernelResp{Kernel: k}, err
	})
	ipc.Register(s, "clRetainKernel", func(r KernelReq) (Empty, error) {
		return Empty{}, api.RetainKernel(r.Kernel)
	})
	ipc.Register(s, "clReleaseKernel", func(r KernelReq) (Empty, error) {
		return Empty{}, api.ReleaseKernel(r.Kernel)
	})
	ipc.Register(s, "clSetKernelArg", func(r SetKernelArgReq) (Empty, error) {
		return Empty{}, api.SetKernelArg(r.Kernel, r.Index, r.Size, r.Value)
	})

	// Buffer transfers use raw payload frames: the write's data arrives as
	// a pooled slice (the runtime copies what it keeps) and the read's data
	// leaves as the response's raw frame, skipping gob both ways.
	ipc.RegisterRaw(s, "clEnqueueWriteBuffer", func(r EnqueueWriteBufferReq, payload []byte) (EventResp, []byte, error) {
		ev, err := api.EnqueueWriteBuffer(r.Queue, r.Mem, r.Blocking, r.Offset, payload, r.Waits)
		return EventResp{Event: ev}, nil, err
	})
	// Reads land in the destinations the transport lends (ipc.RegisterParts):
	// the client's own buffers on the ring, the connection's reusable
	// scratch on the framed stream.
	ipc.RegisterParts(s, "clEnqueueReadBuffer", func(r EnqueueReadBufferReq, _ []byte, into [][]byte) (EnqueueReadBufferResp, [][]byte, error) {
		data, ev, err := readBufferInto(api, r.Queue, r.Mem, r.Blocking, r.Offset, r.Size, r.Waits, lent(into, 0))
		return EnqueueReadBufferResp{Event: ev}, [][]byte{data}, err
	})
	ipc.RegisterParts(s, "clEnqueueBatch", func(_ Empty, payload []byte, into [][]byte) (EnqueueBatchResp, [][]byte, error) {
		return runBatch(api, payload, into)
	})
	ipc.Register(s, "clEnqueueCopyBuffer", func(r EnqueueCopyBufferReq) (EventResp, error) {
		ev, err := api.EnqueueCopyBuffer(r.Queue, r.Src, r.Dst, r.SrcOff, r.DstOff, r.Size, r.Waits)
		return EventResp{Event: ev}, err
	})
	ipc.Register(s, "clEnqueueNDRangeKernel", func(r EnqueueNDRangeKernelReq) (EventResp, error) {
		ev, err := api.EnqueueNDRangeKernel(r.Queue, r.Kernel, r.Dims, r.Offset, r.Global, r.Local, r.Waits)
		return EventResp{Event: ev}, err
	})
	ipc.Register(s, "clEnqueueMarker", func(r QueueReq) (EventResp, error) {
		ev, err := api.EnqueueMarker(r.Queue)
		return EventResp{Event: ev}, err
	})
	ipc.Register(s, "clEnqueueBarrier", func(r QueueReq) (Empty, error) {
		return Empty{}, api.EnqueueBarrier(r.Queue)
	})

	ipc.Register(s, "clFlush", func(r QueueReq) (Empty, error) {
		return Empty{}, api.Flush(r.Queue)
	})
	ipc.Register(s, "clFinish", func(r QueueReq) (Empty, error) {
		return Empty{}, api.Finish(r.Queue)
	})
	ipc.Register(s, "clWaitForEvents", func(r WaitForEventsReq) (Empty, error) {
		return Empty{}, api.WaitForEvents(r.Events)
	})
	ipc.Register(s, "clGetMemObjectInfo", func(r MemReq) (GetMemObjectInfoResp, error) {
		info, err := api.GetMemObjectInfo(r.Mem)
		return GetMemObjectInfoResp{Info: info}, err
	})
	ipc.Register(s, "clGetKernelInfo", func(r KernelReq) (GetKernelInfoResp, error) {
		info, err := api.GetKernelInfo(r.Kernel)
		return GetKernelInfoResp{Info: info}, err
	})
	ipc.Register(s, "clGetContextInfo", func(r ContextReq) (GetContextInfoResp, error) {
		info, err := api.GetContextInfo(r.Context)
		return GetContextInfoResp{Info: info}, err
	})
	ipc.Register(s, "clGetCommandQueueInfo", func(r QueueReq) (GetCommandQueueInfoResp, error) {
		info, err := api.GetCommandQueueInfo(r.Queue)
		return GetCommandQueueInfoResp{Info: info}, err
	})
	ipc.Register(s, "clGetKernelWorkGroupInfo", func(r GetKernelWorkGroupInfoReq) (GetKernelWorkGroupInfoResp, error) {
		info, err := api.GetKernelWorkGroupInfo(r.Kernel, r.Device)
		return GetKernelWorkGroupInfoResp{Info: info}, err
	})

	ipc.Register(s, "clGetEventProfilingInfo", func(r EventReq) (GetEventProfileResp, error) {
		p, err := api.GetEventProfile(r.Event)
		return GetEventProfileResp{Profile: p}, err
	})
	ipc.Register(s, "clRetainEvent", func(r EventReq) (Empty, error) {
		return Empty{}, api.RetainEvent(r.Event)
	})
	ipc.Register(s, "clReleaseEvent", func(r EventReq) (Empty, error) {
		return Empty{}, api.ReleaseEvent(r.Event)
	})

	return s
}

// runBatch executes a command stream in order. The first failing command
// stops the batch: its error is recorded in the response (index,
// attributed method, status) instead of failing the whole call, because
// the commands before it did execute and the client needs their events
// and read data. A command the decoder refuses fails in band the same way;
// only a malformed header fails the call. In-batch event dependencies
// (WaitIdx) are resolved against the events minted by earlier commands of
// the same run. The k-th executed read is the k-th returned part and lands
// in into[k] when that has the capacity; otherwise the runtime allocates
// it, after it has validated the command — nothing here is sized from a
// command the runtime has not accepted.
func runBatch(api ocl.API, payload []byte, into [][]byte) (EnqueueBatchResp, [][]byte, error) {
	rd, err := openBatch(payload)
	if err != nil {
		return EnqueueBatchResp{}, nil, err
	}
	resp := EnqueueBatchResp{
		Events:   make([]ocl.Event, rd.N),
		ReadLens: make([]int64, rd.N),
		ErrIdx:   -1,
	}
	var (
		parts [][]byte
		cmd   BatchCmd
	)
	for i := 0; i < rd.N; i++ {
		err := rd.next(&cmd)
		waits := cmd.Waits
		for _, j := range cmd.WaitIdx {
			if resp.Events[j] != 0 {
				waits = append(waits, resp.Events[j])
			}
		}
		var ev ocl.Event
		if err == nil { // else the decoder refused the record: reported in band
			switch cmd.Op {
			case BatchSetArg:
				err = api.SetKernelArg(cmd.Kernel, cmd.Index, cmd.ArgSize, cmd.Value)
			case BatchWrite:
				ev, err = api.EnqueueWriteBuffer(cmd.Queue, cmd.Mem, cmd.Blocking, cmd.Offset, rd.writeData(&cmd), waits)
			case BatchRead:
				var data []byte
				data, ev, err = readBufferInto(api, cmd.Queue, cmd.Mem, cmd.Blocking, cmd.Offset, cmd.Size, waits, lent(into, len(parts)))
				if err == nil {
					resp.ReadLens[i] = int64(len(data))
					parts = append(parts, data)
				}
			case BatchCopy:
				ev, err = api.EnqueueCopyBuffer(cmd.Queue, cmd.Src, cmd.Dst, cmd.SrcOff, cmd.DstOff, cmd.Size, waits)
			case BatchNDRange:
				ev, err = api.EnqueueNDRangeKernel(cmd.Queue, cmd.Kernel, cmd.Dims, cmd.GOff, cmd.Global, cmd.Local, waits)
			case BatchMarker:
				ev, err = api.EnqueueMarker(cmd.Queue)
			case BatchBarrier:
				err = api.EnqueueBarrier(cmd.Queue)
			case BatchFlush:
				err = api.Flush(cmd.Queue)
			case BatchFinish:
				err = api.Finish(cmd.Queue)
			}
		}
		if err != nil {
			resp.ErrIdx = i
			var ec ipc.ErrorCoder
			if errors.As(err, &ec) {
				resp.ErrOp, resp.ErrStatus, resp.ErrDetail = ec.ErrorCode()
			} else {
				resp.ErrOp = cmd.Op.Method()
				resp.ErrStatus = -9999
				resp.ErrDetail = err.Error()
			}
			break
		}
		resp.Events[i] = ev
	}
	return resp, parts, nil
}

// lent is the k-th destination the transport lent, emptied, or nil.
func lent(into [][]byte, k int) []byte {
	if k < len(into) {
		return into[k][:0]
	}
	return nil
}
