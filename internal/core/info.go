package core

import (
	"checl/internal/ocl"
	"checl/internal/proxy"
)

// Info-query wrappers. These perform the *reverse* of the usual handle
// translation: a query like clGetKernelInfo(CL_KERNEL_PROGRAM) returns a
// handle, and the application must receive the CheCL handle — not the
// real one — or it would hold a value CheCL cannot rebind after restart.
// CheCL answers the handle-valued fields from its own object database and
// forwards the rest.

// query is what the info wrappers share: the live record of h, and the
// proxy's answer to q about the record's real object.
func query[R any, P record[R], H ~uint64, I any](c *CheCL, m map[Handle]P, h Handle, op string, q func(*proxy.Client, H) (I, error)) (P, I, error) {
	c.enterCall()
	r, err := get(m, h)
	if err != nil {
		var none I
		return nil, none, err
	}
	info, err := ask(c, op, func(api *proxy.Client) (I, error) { return q(api, H(*r.head().real)) })
	return r, info, err
}

// GetMemObjectInfo wraps clGetMemObjectInfo.
func (c *CheCL) GetMemObjectInfo(h ocl.Mem) (ocl.MemObjectInfo, error) {
	rec, info, err := query(c, c.db.mems, Handle(h), "clGetMemObjectInfo", (*proxy.Client).GetMemObjectInfo)
	if err != nil {
		return ocl.MemObjectInfo{}, err
	}
	info.Context = ocl.Context(rec.Ctx)
	info.RefCount = rec.Refs
	// Flags are reported as the application requested them, including
	// CL_MEM_USE_HOST_PTR, which CheCL strips before forwarding.
	info.Flags = rec.Flags
	return info, nil
}

// GetKernelInfo wraps clGetKernelInfo.
func (c *CheCL) GetKernelInfo(h ocl.Kernel) (ocl.KernelInfo, error) {
	rec, info, err := query(c, c.db.kernels, Handle(h), "clGetKernelInfo", (*proxy.Client).GetKernelInfo)
	if err != nil {
		return ocl.KernelInfo{}, err
	}
	info.Program = ocl.Program(rec.Prog)
	info.RefCount = rec.Refs
	if prec, perr := get(c.db.programs, rec.Prog); perr == nil {
		info.Context = ocl.Context(prec.Ctx)
	}
	return info, nil
}

// GetContextInfo wraps clGetContextInfo.
func (c *CheCL) GetContextInfo(h ocl.Context) (ocl.ContextInfo, error) {
	rec, info, err := query(c, c.db.contexts, Handle(h), "clGetContextInfo", (*proxy.Client).GetContextInfo)
	if err != nil {
		return ocl.ContextInfo{}, err
	}
	devs := make([]ocl.DeviceID, len(rec.Devices))
	for i, dh := range rec.Devices {
		devs[i] = ocl.DeviceID(dh)
	}
	info.Devices = devs
	info.RefCount = rec.Refs
	return info, nil
}

// GetCommandQueueInfo wraps clGetCommandQueueInfo.
func (c *CheCL) GetCommandQueueInfo(h ocl.CommandQueue) (ocl.CommandQueueInfo, error) {
	rec, info, err := query(c, c.db.queues, Handle(h), "clGetCommandQueueInfo", (*proxy.Client).GetCommandQueueInfo)
	if err != nil {
		return ocl.CommandQueueInfo{}, err
	}
	info.Context = ocl.Context(rec.Ctx)
	info.Device = ocl.DeviceID(rec.Device)
	info.RefCount = rec.Refs
	return info, nil
}

// GetKernelWorkGroupInfo wraps clGetKernelWorkGroupInfo. The answer
// depends only on the (kernel, device) pair for the life of the current
// binding, so it is cached; a rebind invalidates the cache because the
// kernel may land on different hardware.
func (c *CheCL) GetKernelWorkGroupInfo(h ocl.Kernel, d ocl.DeviceID) (ocl.KernelWorkGroupInfo, error) {
	c.enterCall()
	krec, err := get(c.db.kernels, Handle(h))
	if err != nil {
		return ocl.KernelWorkGroupInfo{}, err
	}
	drec, err := get(c.db.devices, Handle(d))
	if err != nil {
		return ocl.KernelWorkGroupInfo{}, err
	}
	key := wgInfoKey{kernel: krec.H, dev: drec.H}
	if info, ok := c.db.wgInfo[key]; ok {
		c.db.cacheHits++
		return info, nil
	}
	info, err := ask(c, "clGetKernelWorkGroupInfo", func(api *proxy.Client) (ocl.KernelWorkGroupInfo, error) {
		return api.GetKernelWorkGroupInfo(krec.real, drec.real)
	})
	if err == nil {
		c.db.wgInfo[key] = info
	}
	return info, err
}
