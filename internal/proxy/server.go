package proxy

import (
	"checl/internal/ipc"
	"checl/internal/ocl"
)

// route is the proxy's one ipc method: every call is a frame on it.
const route = "cl"

// NewServer builds the RPC server that runs every frame against the
// runtime living in the proxy process. Reads land in the destinations the
// transport lends (ipc.RegisterParts): the client's own buffers on the
// ring, the connection's reusable scratch on the framed stream.
func NewServer(rt *ocl.Runtime) *ipc.Server {
	s := ipc.NewServer()
	ipc.RegisterParts(s, route, func(req *request, data []byte, into [][]byte) (*[]byte, [][]byte, error) {
		return run(rt, req, data, into)
	})
	return s
}

// run executes a frame's commands in order. The first failing command
// stops the frame: its error goes in the reply (index, attributed method,
// status) instead of failing the call, because the commands before it did
// run and the client needs their results and read data. A record the
// decoder refuses fails in band the same way; only a malformed header
// fails the call. An in-frame wait names an earlier command of this run,
// whose result handle is the event. The k-th read that runs is the k-th
// returned part and lands in into[k] when that has the capacity;
// otherwise the runtime allocates it, after it has validated the command —
// nothing here is sized from a command the runtime has not accepted.
func run(rt *ocl.Runtime, req *request, data []byte, into [][]byte) (*[]byte, [][]byte, error) {
	rd, err := openFrame(req, data)
	if err != nil {
		return nil, nil, err
	}
	var (
		w     replyWriter
		parts [][]byte
		rec   record
		hs    = make([]uint64, 0, 64) // the handle each command minted
	)
	for i := 0; i < rd.n; i++ {
		var (
			h uint64
			v any // a query's answer
		)
		err := rd.next(&rec)
		if err == nil { // else the decoder refused the record: reported in band
			for _, j := range rec.idx {
				if hs[j] != 0 {
					rec.waits = append(rec.waits, ocl.Event(hs[j]))
				}
			}
			a := &rec.args
			q := ocl.CommandQueue(a[0])
			switch rec.op {
			case BatchSetArg:
				err = rt.SetKernelArg(ocl.Kernel(a[0]), int(a[1]), int64(a[2]), rec.blob)
			case BatchWrite:
				h, err = word(rt.EnqueueWriteBuffer(q, ocl.Mem(a[1]), rec.blocking, int64(a[2]), rd.writeData(&rec), rec.waits))
			case BatchRead:
				var p []byte
				var ev ocl.Event
				if p, ev, err = rt.EnqueueReadBufferInto(q, ocl.Mem(a[1]), rec.blocking, int64(a[2]), int64(a[3]), rec.waits, lent(into, len(parts))); err == nil {
					h, parts = uint64(ev), append(parts, p)
				}
			case BatchCopy:
				h, err = word(rt.EnqueueCopyBuffer(q, ocl.Mem(a[1]), ocl.Mem(a[2]), int64(a[3]), int64(a[4]), int64(a[5]), rec.waits))
			case BatchNDRange:
				h, err = word(rt.EnqueueNDRangeKernel(q, ocl.Kernel(a[1]), int(a[2]), ints3(a[3:]), ints3(a[6:]), ints3(a[9:]), rec.waits))
			case BatchMarker:
				h, err = word(rt.EnqueueMarker(q))
			case BatchBarrier:
				err = rt.EnqueueBarrier(q)
			case BatchFlush:
				err = rt.Flush(q)
			case BatchFinish:
				err = rt.Finish(q)
			case opGetPlatformIDs:
				v, err = rt.GetPlatformIDs()
			case opGetPlatformInfo:
				v, err = rt.GetPlatformInfo(ocl.PlatformID(a[0]))
			case opGetDeviceIDs:
				v, err = rt.GetDeviceIDs(ocl.PlatformID(a[0]), ocl.DeviceTypeMask(a[1]))
			case opGetDeviceInfo:
				v, err = rt.GetDeviceInfo(ocl.DeviceID(a[0]))
			case opCreateContext:
				var devs []ocl.DeviceID
				if devs, err = value[[]ocl.DeviceID](0, rec.blob, nil); err == nil {
					h, err = word(rt.CreateContext(devs))
				}
			case opRetainContext:
				err = rt.RetainContext(ocl.Context(a[0]))
			case opReleaseContext:
				err = rt.ReleaseContext(ocl.Context(a[0]))
			case opGetContextInfo:
				v, err = rt.GetContextInfo(ocl.Context(a[0]))
			case opCreateCommandQueue:
				h, err = word(rt.CreateCommandQueue(ocl.Context(a[0]), ocl.DeviceID(a[1]), ocl.QueueProps(a[2])))
			case opRetainCommandQueue:
				err = rt.RetainCommandQueue(q)
			case opReleaseCommandQueue:
				err = rt.ReleaseCommandQueue(q)
			case opGetCommandQueueInfo:
				v, err = rt.GetCommandQueueInfo(q)
			case opCreateBuffer:
				h, err = word(rt.CreateBuffer(ocl.Context(a[0]), ocl.MemFlags(a[1]), int64(a[2]), rec.blob))
			case opRetainMemObject:
				err = rt.RetainMemObject(ocl.Mem(a[0]))
			case opReleaseMemObject:
				err = rt.ReleaseMemObject(ocl.Mem(a[0]))
			case opGetMemObjectInfo:
				v, err = rt.GetMemObjectInfo(ocl.Mem(a[0]))
			case opCreateSampler:
				h, err = word(rt.CreateSampler(ocl.Context(a[0]), a[1] != 0, ocl.AddressingMode(a[2]), ocl.FilterMode(a[3])))
			case opRetainSampler:
				err = rt.RetainSampler(ocl.Sampler(a[0]))
			case opReleaseSampler:
				err = rt.ReleaseSampler(ocl.Sampler(a[0]))
			case opCreateProgramWithSource:
				h, err = word(rt.CreateProgramWithSource(ocl.Context(a[0]), string(rec.blob)))
			case opCreateProgramWithBinary:
				h, err = word(rt.CreateProgramWithBinary(ocl.Context(a[0]), ocl.DeviceID(a[1]), rec.blob))
			case opBuildProgram:
				err = rt.BuildProgram(ocl.Program(a[0]), string(rec.blob))
			case opGetProgramBuildInfo:
				v, err = rt.GetProgramBuildInfo(ocl.Program(a[0]), ocl.DeviceID(a[1]))
			case opGetProgramBinary:
				v, err = rt.GetProgramBinary(ocl.Program(a[0]))
			case opRetainProgram:
				err = rt.RetainProgram(ocl.Program(a[0]))
			case opReleaseProgram:
				err = rt.ReleaseProgram(ocl.Program(a[0]))
			case opCreateKernel:
				h, err = word(rt.CreateKernel(ocl.Program(a[0]), string(rec.blob)))
			case opRetainKernel:
				err = rt.RetainKernel(ocl.Kernel(a[0]))
			case opReleaseKernel:
				err = rt.ReleaseKernel(ocl.Kernel(a[0]))
			case opGetKernelInfo:
				v, err = rt.GetKernelInfo(ocl.Kernel(a[0]))
			case opGetKernelWorkGroupInfo:
				v, err = rt.GetKernelWorkGroupInfo(ocl.Kernel(a[0]), ocl.DeviceID(a[1]))
			case opWaitForEvents:
				err = rt.WaitForEvents(rec.waits)
			case opGetEventProfile:
				v, err = rt.GetEventProfile(ocl.Event(a[0]))
			case opRetainEvent:
				err = rt.RetainEvent(ocl.Event(a[0]))
			case opReleaseEvent:
				err = rt.ReleaseEvent(ocl.Event(a[0]))
			}
		}
		if err != nil {
			return w.reply(hs, rec.op, err), parts, nil
		}
		hs = append(hs, h)
		if v != nil {
			w.value(i, v)
		}
	}
	return w.reply(hs, 0, nil), parts, nil
}

// word is a minted handle as its record carries it.
func word[H ~uint64](h H, err error) (uint64, error) { return uint64(h), err }

func ints3(a []uint64) [3]int { return [3]int{int(a[0]), int(a[1]), int(a[2])} }

// lent is the k-th destination the transport lent, emptied, or nil.
func lent(into [][]byte, k int) []byte {
	if k < len(into) {
		return into[k][:0]
	}
	return nil
}
