package main

import (
	"time"

	"checl/internal/ocl"
)

// tracedAPI is the bench-side ocl.API decorator. It sits between the load
// generator and whichever arm is under test (ocl.Runtime, proxy.Client or
// core.CheCL), times every call from outside the layer, counts errors,
// and notes kernel sources and launch sizes for the direct clc probes.
type tracedAPI struct {
	inner ocl.API
	rec   *recorder
}

var _ ocl.API = (*tracedAPI)(nil)

func workItems(dims int, global [3]int) int64 {
	n := int64(1)
	for i := 0; i < dims && i < 3; i++ {
		n *= int64(max(global[i], 1))
	}
	return n
}

func (a *tracedAPI) GetPlatformIDs() ([]ocl.PlatformID, error) {
	t0 := time.Now()
	v, err := a.inner.GetPlatformIDs()
	a.rec.api(opOther, "clGetPlatformIDs", t0, err)
	return v, err
}

func (a *tracedAPI) GetPlatformInfo(p ocl.PlatformID) (ocl.PlatformInfo, error) {
	t0 := time.Now()
	v, err := a.inner.GetPlatformInfo(p)
	a.rec.api(opOther, "clGetPlatformInfo", t0, err)
	return v, err
}

func (a *tracedAPI) GetDeviceIDs(p ocl.PlatformID, mask ocl.DeviceTypeMask) ([]ocl.DeviceID, error) {
	t0 := time.Now()
	v, err := a.inner.GetDeviceIDs(p, mask)
	a.rec.api(opOther, "clGetDeviceIDs", t0, err)
	return v, err
}

func (a *tracedAPI) GetDeviceInfo(d ocl.DeviceID) (ocl.DeviceInfo, error) {
	t0 := time.Now()
	v, err := a.inner.GetDeviceInfo(d)
	a.rec.api(opOther, "clGetDeviceInfo", t0, err)
	return v, err
}

func (a *tracedAPI) CreateContext(devices []ocl.DeviceID) (ocl.Context, error) {
	t0 := time.Now()
	v, err := a.inner.CreateContext(devices)
	a.rec.api(opOther, "clCreateContext", t0, err)
	return v, err
}

func (a *tracedAPI) RetainContext(c ocl.Context) error {
	t0 := time.Now()
	err := a.inner.RetainContext(c)
	a.rec.api(opOther, "clRetainContext", t0, err)
	return err
}

func (a *tracedAPI) ReleaseContext(c ocl.Context) error {
	t0 := time.Now()
	err := a.inner.ReleaseContext(c)
	a.rec.api(opOther, "clReleaseContext", t0, err)
	return err
}

func (a *tracedAPI) CreateCommandQueue(c ocl.Context, d ocl.DeviceID, props ocl.QueueProps) (ocl.CommandQueue, error) {
	t0 := time.Now()
	v, err := a.inner.CreateCommandQueue(c, d, props)
	a.rec.api(opOther, "clCreateCommandQueue", t0, err)
	return v, err
}

func (a *tracedAPI) RetainCommandQueue(q ocl.CommandQueue) error {
	t0 := time.Now()
	err := a.inner.RetainCommandQueue(q)
	a.rec.api(opOther, "clRetainCommandQueue", t0, err)
	return err
}

func (a *tracedAPI) ReleaseCommandQueue(q ocl.CommandQueue) error {
	t0 := time.Now()
	err := a.inner.ReleaseCommandQueue(q)
	a.rec.api(opOther, "clReleaseCommandQueue", t0, err)
	return err
}

func (a *tracedAPI) CreateBuffer(c ocl.Context, flags ocl.MemFlags, size int64, hostData []byte) (ocl.Mem, error) {
	t0 := time.Now()
	v, err := a.inner.CreateBuffer(c, flags, size, hostData)
	a.rec.api(opOther, "clCreateBuffer", t0, err)
	return v, err
}

func (a *tracedAPI) RetainMemObject(m ocl.Mem) error {
	t0 := time.Now()
	err := a.inner.RetainMemObject(m)
	a.rec.api(opOther, "clRetainMemObject", t0, err)
	return err
}

func (a *tracedAPI) ReleaseMemObject(m ocl.Mem) error {
	t0 := time.Now()
	err := a.inner.ReleaseMemObject(m)
	a.rec.api(opOther, "clReleaseMemObject", t0, err)
	return err
}

func (a *tracedAPI) CreateSampler(c ocl.Context, normalized bool, amode ocl.AddressingMode, fmode ocl.FilterMode) (ocl.Sampler, error) {
	t0 := time.Now()
	v, err := a.inner.CreateSampler(c, normalized, amode, fmode)
	a.rec.api(opOther, "clCreateSampler", t0, err)
	return v, err
}

func (a *tracedAPI) RetainSampler(s ocl.Sampler) error {
	t0 := time.Now()
	err := a.inner.RetainSampler(s)
	a.rec.api(opOther, "clRetainSampler", t0, err)
	return err
}

func (a *tracedAPI) ReleaseSampler(s ocl.Sampler) error {
	t0 := time.Now()
	err := a.inner.ReleaseSampler(s)
	a.rec.api(opOther, "clReleaseSampler", t0, err)
	return err
}

func (a *tracedAPI) CreateProgramWithSource(c ocl.Context, source string) (ocl.Program, error) {
	t0 := time.Now()
	v, err := a.inner.CreateProgramWithSource(c, source)
	a.rec.api(opOther, "clCreateProgramWithSource", t0, err)
	a.rec.sources = append(a.rec.sources, source)
	return v, err
}

func (a *tracedAPI) CreateProgramWithBinary(c ocl.Context, d ocl.DeviceID, binary []byte) (ocl.Program, error) {
	t0 := time.Now()
	v, err := a.inner.CreateProgramWithBinary(c, d, binary)
	a.rec.api(opOther, "clCreateProgramWithBinary", t0, err)
	return v, err
}

func (a *tracedAPI) BuildProgram(p ocl.Program, options string) error {
	t0 := time.Now()
	err := a.inner.BuildProgram(p, options)
	a.rec.api(opBuild, "clBuildProgram", t0, err)
	return err
}

func (a *tracedAPI) GetProgramBuildInfo(p ocl.Program, d ocl.DeviceID) (ocl.BuildInfo, error) {
	t0 := time.Now()
	v, err := a.inner.GetProgramBuildInfo(p, d)
	a.rec.api(opOther, "clGetProgramBuildInfo", t0, err)
	return v, err
}

func (a *tracedAPI) GetProgramBinary(p ocl.Program) ([]byte, error) {
	t0 := time.Now()
	v, err := a.inner.GetProgramBinary(p)
	a.rec.api(opOther, "clGetProgramInfo", t0, err)
	return v, err
}

func (a *tracedAPI) RetainProgram(p ocl.Program) error {
	t0 := time.Now()
	err := a.inner.RetainProgram(p)
	a.rec.api(opOther, "clRetainProgram", t0, err)
	return err
}

func (a *tracedAPI) ReleaseProgram(p ocl.Program) error {
	t0 := time.Now()
	err := a.inner.ReleaseProgram(p)
	a.rec.api(opOther, "clReleaseProgram", t0, err)
	return err
}

func (a *tracedAPI) CreateKernel(p ocl.Program, name string) (ocl.Kernel, error) {
	t0 := time.Now()
	v, err := a.inner.CreateKernel(p, name)
	a.rec.api(opOther, "clCreateKernel", t0, err)
	return v, err
}

func (a *tracedAPI) RetainKernel(k ocl.Kernel) error {
	t0 := time.Now()
	err := a.inner.RetainKernel(k)
	a.rec.api(opOther, "clRetainKernel", t0, err)
	return err
}

func (a *tracedAPI) ReleaseKernel(k ocl.Kernel) error {
	t0 := time.Now()
	err := a.inner.ReleaseKernel(k)
	a.rec.api(opOther, "clReleaseKernel", t0, err)
	return err
}

func (a *tracedAPI) SetKernelArg(k ocl.Kernel, index int, size int64, value []byte) error {
	t0 := time.Now()
	err := a.inner.SetKernelArg(k, index, size, value)
	a.rec.api(opSetArg, "clSetKernelArg", t0, err)
	return err
}

func (a *tracedAPI) EnqueueWriteBuffer(q ocl.CommandQueue, m ocl.Mem, blocking bool, offset int64, data []byte, waits []ocl.Event) (ocl.Event, error) {
	t0 := time.Now()
	v, err := a.inner.EnqueueWriteBuffer(q, m, blocking, offset, data, waits)
	a.rec.api(opXfer, "clEnqueueWriteBuffer", t0, err)
	return v, err
}

func (a *tracedAPI) EnqueueReadBuffer(q ocl.CommandQueue, m ocl.Mem, blocking bool, offset, size int64, waits []ocl.Event) ([]byte, ocl.Event, error) {
	t0 := time.Now()
	v, e, err := a.inner.EnqueueReadBuffer(q, m, blocking, offset, size, waits)
	a.rec.api(opXfer, "clEnqueueReadBuffer", t0, err)
	return v, e, err
}

func (a *tracedAPI) EnqueueCopyBuffer(q ocl.CommandQueue, src, dst ocl.Mem, srcOff, dstOff, size int64, waits []ocl.Event) (ocl.Event, error) {
	t0 := time.Now()
	v, err := a.inner.EnqueueCopyBuffer(q, src, dst, srcOff, dstOff, size, waits)
	a.rec.api(opXfer, "clEnqueueCopyBuffer", t0, err)
	return v, err
}

func (a *tracedAPI) EnqueueNDRangeKernel(q ocl.CommandQueue, k ocl.Kernel, dims int, offset, global, local [3]int, waits []ocl.Event) (ocl.Event, error) {
	t0 := time.Now()
	v, err := a.inner.EnqueueNDRangeKernel(q, k, dims, offset, global, local, waits)
	a.rec.api(opLaunch, "clEnqueueNDRangeKernel", t0, err)
	a.rec.items += workItems(dims, global)
	return v, err
}

func (a *tracedAPI) EnqueueMarker(q ocl.CommandQueue) (ocl.Event, error) {
	t0 := time.Now()
	v, err := a.inner.EnqueueMarker(q)
	a.rec.api(opSync, "clEnqueueMarker", t0, err)
	return v, err
}

func (a *tracedAPI) EnqueueBarrier(q ocl.CommandQueue) error {
	t0 := time.Now()
	err := a.inner.EnqueueBarrier(q)
	a.rec.api(opSync, "clEnqueueBarrier", t0, err)
	return err
}

func (a *tracedAPI) Flush(q ocl.CommandQueue) error {
	t0 := time.Now()
	err := a.inner.Flush(q)
	a.rec.api(opSync, "clFlush", t0, err)
	return err
}

func (a *tracedAPI) Finish(q ocl.CommandQueue) error {
	t0 := time.Now()
	err := a.inner.Finish(q)
	a.rec.api(opSync, "clFinish", t0, err)
	return err
}

func (a *tracedAPI) WaitForEvents(events []ocl.Event) error {
	t0 := time.Now()
	err := a.inner.WaitForEvents(events)
	a.rec.api(opSync, "clWaitForEvents", t0, err)
	return err
}

func (a *tracedAPI) GetMemObjectInfo(m ocl.Mem) (ocl.MemObjectInfo, error) {
	t0 := time.Now()
	v, err := a.inner.GetMemObjectInfo(m)
	a.rec.api(opOther, "clGetMemObjectInfo", t0, err)
	return v, err
}

func (a *tracedAPI) GetKernelInfo(k ocl.Kernel) (ocl.KernelInfo, error) {
	t0 := time.Now()
	v, err := a.inner.GetKernelInfo(k)
	a.rec.api(opOther, "clGetKernelInfo", t0, err)
	return v, err
}

func (a *tracedAPI) GetContextInfo(c ocl.Context) (ocl.ContextInfo, error) {
	t0 := time.Now()
	v, err := a.inner.GetContextInfo(c)
	a.rec.api(opOther, "clGetContextInfo", t0, err)
	return v, err
}

func (a *tracedAPI) GetCommandQueueInfo(q ocl.CommandQueue) (ocl.CommandQueueInfo, error) {
	t0 := time.Now()
	v, err := a.inner.GetCommandQueueInfo(q)
	a.rec.api(opOther, "clGetCommandQueueInfo", t0, err)
	return v, err
}

func (a *tracedAPI) GetKernelWorkGroupInfo(k ocl.Kernel, d ocl.DeviceID) (ocl.KernelWorkGroupInfo, error) {
	t0 := time.Now()
	v, err := a.inner.GetKernelWorkGroupInfo(k, d)
	a.rec.api(opOther, "clGetKernelWorkGroupInfo", t0, err)
	return v, err
}

func (a *tracedAPI) GetEventProfile(e ocl.Event) (ocl.EventProfile, error) {
	t0 := time.Now()
	v, err := a.inner.GetEventProfile(e)
	a.rec.api(opOther, "clGetEventProfilingInfo", t0, err)
	return v, err
}

func (a *tracedAPI) RetainEvent(e ocl.Event) error {
	t0 := time.Now()
	err := a.inner.RetainEvent(e)
	a.rec.api(opOther, "clRetainEvent", t0, err)
	return err
}

func (a *tracedAPI) ReleaseEvent(e ocl.Event) error {
	t0 := time.Now()
	err := a.inner.ReleaseEvent(e)
	a.rec.api(opOther, "clReleaseEvent", t0, err)
	return err
}
