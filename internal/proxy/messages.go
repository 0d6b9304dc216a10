// Package proxy implements the API proxy of §III-A: a separate process
// that is the only one to touch the OpenCL implementation. The application
// process holds a Client (which implements ocl.API by forwarding every
// call over internal/ipc); the proxy process runs a Server wrapping a real
// ocl.Runtime.
//
// Because the proxy — not the application — loads the vendor
// implementation, only the proxy's address space acquires device mappings,
// and the application process stays checkpointable by internal/cpr.
package proxy

import "checl/internal/ocl"

// Request/response message pairs, one per forwarded API entry point. The
// wire format is gob; fields are exported for encoding.

type (
	// Empty is the request or response of calls with no payload.
	Empty struct{}

	GetPlatformIDsResp struct{ Platforms []ocl.PlatformID }

	GetPlatformInfoReq  struct{ Platform ocl.PlatformID }
	GetPlatformInfoResp struct{ Info ocl.PlatformInfo }

	GetDeviceIDsReq struct {
		Platform ocl.PlatformID
		Mask     ocl.DeviceTypeMask
	}
	GetDeviceIDsResp struct{ Devices []ocl.DeviceID }

	GetDeviceInfoReq  struct{ Device ocl.DeviceID }
	GetDeviceInfoResp struct{ Info ocl.DeviceInfo }

	CreateContextReq  struct{ Devices []ocl.DeviceID }
	CreateContextResp struct{ Context ocl.Context }

	ContextReq struct{ Context ocl.Context }

	CreateCommandQueueReq struct {
		Context ocl.Context
		Device  ocl.DeviceID
		Props   ocl.QueueProps
	}
	CreateCommandQueueResp struct{ Queue ocl.CommandQueue }

	QueueReq struct{ Queue ocl.CommandQueue }

	CreateBufferReq struct {
		Context  ocl.Context
		Flags    ocl.MemFlags
		Size     int64
		HostData []byte
	}
	CreateBufferResp struct{ Mem ocl.Mem }

	MemReq struct{ Mem ocl.Mem }

	CreateSamplerReq struct {
		Context    ocl.Context
		Normalized bool
		AMode      ocl.AddressingMode
		FMode      ocl.FilterMode
	}
	CreateSamplerResp struct{ Sampler ocl.Sampler }

	SamplerReq struct{ Sampler ocl.Sampler }

	CreateProgramWithSourceReq struct {
		Context ocl.Context
		Source  string
	}
	CreateProgramWithBinaryReq struct {
		Context ocl.Context
		Device  ocl.DeviceID
		Binary  []byte
	}
	CreateProgramResp struct{ Program ocl.Program }

	BuildProgramReq struct {
		Program ocl.Program
		Options string
	}

	ProgramReq struct{ Program ocl.Program }

	GetProgramBuildInfoReq struct {
		Program ocl.Program
		Device  ocl.DeviceID
	}
	GetProgramBuildInfoResp struct{ Info ocl.BuildInfo }

	GetProgramBinaryResp struct{ Binary []byte }

	CreateKernelReq struct {
		Program ocl.Program
		Name    string
	}
	CreateKernelResp struct{ Kernel ocl.Kernel }

	KernelReq struct{ Kernel ocl.Kernel }

	SetKernelArgReq struct {
		Kernel ocl.Kernel
		Index  int
		Size   int64
		Value  []byte
	}

	// EnqueueWriteBufferReq carries no Data field: the payload travels as
	// the call's raw frame, skipping gob encoding (zero-copy on the wire).
	EnqueueWriteBufferReq struct {
		Queue    ocl.CommandQueue
		Mem      ocl.Mem
		Blocking bool
		Offset   int64
		Waits    []ocl.Event
	}
	EnqueueReadBufferReq struct {
		Queue    ocl.CommandQueue
		Mem      ocl.Mem
		Blocking bool
		Offset   int64
		Size     int64
		Waits    []ocl.Event
	}
	// EnqueueReadBufferResp carries no Data field: the payload comes back
	// as the response's raw frame.
	EnqueueReadBufferResp struct {
		Event ocl.Event
	}
	EnqueueCopyBufferReq struct {
		Queue  ocl.CommandQueue
		Src    ocl.Mem
		Dst    ocl.Mem
		SrcOff int64
		DstOff int64
		Size   int64
		Waits  []ocl.Event
	}
	EnqueueNDRangeKernelReq struct {
		Queue  ocl.CommandQueue
		Kernel ocl.Kernel
		Dims   int
		Offset [3]int
		Global [3]int
		Local  [3]int
		Waits  []ocl.Event
	}
	EventResp struct{ Event ocl.Event }

	WaitForEventsReq struct{ Events []ocl.Event }

	EventReq struct{ Event ocl.Event }

	GetEventProfileResp struct{ Profile ocl.EventProfile }

	GetMemObjectInfoResp      struct{ Info ocl.MemObjectInfo }
	GetKernelInfoResp         struct{ Info ocl.KernelInfo }
	GetContextInfoResp        struct{ Info ocl.ContextInfo }
	GetCommandQueueInfoResp   struct{ Info ocl.CommandQueueInfo }
	GetKernelWorkGroupInfoReq struct {
		Kernel ocl.Kernel
		Device ocl.DeviceID
	}
	GetKernelWorkGroupInfoResp struct{ Info ocl.KernelWorkGroupInfo }
)

// BatchOp identifies one deferred command inside a clEnqueueBatch frame.
// Calls that return nothing the application can observe are queued
// client-side and shipped as one sequenced call; the server executes them
// in order.
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
)

var batchMethods = [...]string{
	BatchSetArg:  "clSetKernelArg",
	BatchWrite:   "clEnqueueWriteBuffer",
	BatchRead:    "clEnqueueReadBuffer",
	BatchCopy:    "clEnqueueCopyBuffer",
	BatchNDRange: "clEnqueueNDRangeKernel",
	BatchMarker:  "clEnqueueMarker",
	BatchBarrier: "clEnqueueBarrier",
	BatchFlush:   "clFlush",
	BatchFinish:  "clFinish",
}

// Method names the OpenCL entry point a batched op stands for, so a
// deferred error can be attributed to the call the application made.
func (op BatchOp) Method() string {
	if op >= 0 && int(op) < len(batchMethods) {
		return batchMethods[op]
	}
	return "clEnqueueBatch"
}

// BatchCmd is one deferred command in its typed form; on the wire it is a
// record of the command stream in batchwire.go. Write payloads are not
// carried here: they sit in the frame's data region and are referenced by
// [PayloadOff, PayloadOff+PayloadLen). Waits lists event handles that
// already exist server-side; WaitIdx references events minted by earlier
// commands of the same batch (by command index).
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

// EnqueueBatchResp reports per-command results. Commands up to (and
// excluding) ErrIdx executed; their Events/ReadLens entries are valid and
// the data of each executed read is one raw part of the response, in read
// order. A
// failed command's error is carried in the Err* fields (resolved via
// ipc.ErrorCoder) so the client can surface it with correct attribution
// at the next sync point; commands after ErrIdx were not executed.
type EnqueueBatchResp struct {
	Events    []ocl.Event // per command; zero for ops that mint no event
	ReadLens  []int64     // per command; read-data length for BatchRead
	ErrIdx    int         // index of the failed command; -1 = all executed
	ErrOp     string
	ErrDetail string
	ErrStatus int32
}
