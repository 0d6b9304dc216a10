package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"

	"checl/internal/clc"
	"checl/internal/cpr"
	"checl/internal/hw"
	"checl/internal/ipc"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/proxy"
	"checl/internal/vtime"
)

// Mode selects when a signalled checkpoint is taken (§III-C).
type Mode int

// Checkpoint trigger modes.
const (
	// Immediate: the checkpoint (including a forced synchronisation) runs
	// at the next intercepted API call after the signal.
	Immediate Mode = iota
	// Delayed: the checkpoint is postponed to the next natural
	// synchronisation point (clFinish, clWaitForEvents, a blocking
	// transfer), avoiding the extra synchronisation overhead. The wait is
	// put to use at both ends. From the signal on, a speculative epoch
	// (BeginCheckpointEpoch) drains the dirty set while the application
	// keeps running, and the checkpoint commits it. After the copy phase
	// of a non-destructive store checkpoint the application is released
	// and the chunk/compress/write pipeline's time runs behind it; the next
	// checkpoint (or WaitBackgroundWrite) barriers on that time. Only the
	// time goes behind: the store checkpoint returns its manifest or its
	// error as in Immediate mode.
	Delayed
)

func (m Mode) String() string {
	if m == Delayed {
		return "delayed"
	}
	return "immediate"
}

// Options configures a CheCL attachment.
type Options struct {
	// VendorName selects the installed OpenCL implementation by platform
	// vendor string; empty selects the node's first installed vendor.
	VendorName string
	// PreferDeviceType biases device selection at restore time (runtime
	// processor selection, §IV-C); zero keeps the original device types.
	PreferDeviceType hw.DeviceType
	// Mode is the checkpoint trigger mode.
	Mode Mode
	// Backend is the underlying conventional CPR system (default BLCR).
	Backend cpr.Backend
	// Incremental enables the future-work incremental object
	// checkpointing (§III-D): only buffers possibly written since the
	// previous checkpoint are re-staged and re-written.
	Incremental bool
	// CkptFS/CkptPath are the destination of signal-triggered checkpoints.
	CkptFS   *proc.FS
	CkptPath string
	// Destructive enables the CheCUDA-style ablation: all OpenCL objects
	// are deleted before the dump and recreated after it, instead of
	// being kept alive in the proxy.
	Destructive bool
	// AutoFailover makes an unrecoverable proxy connection error spawn a
	// fresh proxy, rebind every object, and re-issue the interrupted call
	// instead of surfacing the error. It also keeps every buffer's shadow
	// copy current, so the rebind loses no data.
	AutoFailover bool
	// Fault injects transport faults on the app<->proxy connection
	// (testing and the proxy-crash ablation).
	Fault *ipc.FaultInjector
	// Transport selects the app<->proxy transport. The default
	// (proxy.TransportRing) is the shared-memory ring: SPSC
	// submission/completion queues and zero-copy bulk reads.
	// proxy.TransportPipe carries framed gob RPC over a pipe, the IPC the
	// paper's figures were measured over, and the figure harness pins it.
	// Fault plans, buffers and images are identical on either; the ring
	// is cheaper on both clocks (DESIGN.md "Options").
	Transport proxy.Transport
}

// CheCL is one attached instance of the tool: it implements ocl.API for
// the application while maintaining the CheCL object database.
type CheCL struct {
	app     *proc.Process
	opts    Options
	px      *proxy.Proxy
	db      *database
	pending bool // a signalled checkpoint is waiting (delayed mode)

	inFailover bool // a failover rebind is running; don't recurse
	fstats     FailoverStats
	lastCkpt   *CheckpointStats
	ckptErr    error    // see LastCheckpointError
	bg         *bgWrite // overlapped store write not yet barriered, nil when none
	// committedDB is the object database's encoding in the last image
	// this incarnation dumped or was restored from: the database region
	// is claimed clean while its encoding is this.
	committedDB []byte

	// The submission queue (queue.go): commands awaiting the next
	// synchronisation-point flush, the arenas behind their argument bytes
	// and wait lists, and the frame their write payloads are staged in.
	// The s* and *Mems slices are per-call scratch.
	queue      []queuedCmd
	qargs      []byte
	qwaits     []*eventRec
	frame      proxy.BatchFrame
	swaits     []ocl.Event
	sidx       []int
	boundBuf   []*memRec
	writtenBuf []*memRec
	hbuf       [8]byte
	// queueDepth is a test seam: a positive value replaces maxQueueCmds
	// (1 ships every command in a frame of its own).
	queueDepth int

	// Speculative checkpoint epoch (BeginCheckpointEpoch): the
	// in-flight overlapped drain, its sequence counter, the reason the
	// last epoch aborted (surfaced on the next checkpoint's stats), and
	// the cumulative checkpoint-stall accounting.
	epoch        *specEpoch
	epochSeq     uint64
	epochAborted string
	stall        vtime.StallTracker
}

var _ ocl.API = (*CheCL)(nil)

// Attach interposes CheCL on an application process: it forks the API
// proxy for the selected vendor and returns the API the application should
// use. This is what dynamically loading the CheCL libOpenCL.so does in the
// paper.
func Attach(app *proc.Process, opts Options) (*CheCL, error) {
	if opts.Backend == nil {
		opts.Backend = cpr.BLCR{}
	}
	c := &CheCL{app: app, opts: opts, db: newDatabase()}
	if err := c.spawn(); err != nil {
		return nil, err
	}
	return c, nil
}

// spawn forks a fresh API proxy for the application, on the vendor
// implementation Options.VendorName selects. A failed spawn leaves c.px as
// it was.
func (c *CheCL) spawn() error {
	node, name := c.app.Node(), c.opts.VendorName
	vendor := node.Vendor(name)
	switch {
	case name == "" && len(node.Vendors) == 0:
		return fmt.Errorf("checl: node %s has no OpenCL implementation installed", node.Name)
	case name == "":
		vendor = node.Vendors[0]
	case vendor == nil:
		return fmt.Errorf("checl: node %s has no OpenCL implementation by %q", node.Name, name)
	}
	px, err := proxy.SpawnWithOptions(c.app, vendor, proxy.SpawnOpts{Transport: c.opts.Transport, Fault: c.opts.Fault})
	if err != nil {
		return err
	}
	c.px = px
	return nil
}

// buildProgram runs clBuildProgram on api and returns the build's own
// time: what the call took on clock, less the transport's price for it.
// Every image stores that time (programRec.BuildCost), so it must not
// depend on which transport carried the call.
func buildProgram(api *proxy.Client, clock *vtime.Clock, p ocl.Program, options string) (vtime.Duration, error) {
	sw, sent := vtime.NewStopwatch(clock), api.Stats().Bytes
	if err := api.BuildProgram(p, options); err != nil {
		return 0, err
	}
	return sw.Elapsed() - api.Price(api.Stats().Bytes-sent), nil
}

// Proxy exposes the running API proxy (tests and tooling).
func (c *CheCL) Proxy() *proxy.Proxy { return c.px }

// App returns the application process CheCL is attached to.
func (c *CheCL) App() *proc.Process { return c.app }

// Options returns the attachment options.
func (c *CheCL) Options() Options { return c.opts }

// LastCheckpoint returns statistics of the most recent checkpoint, or nil
// when there is none or it failed. A write that went behind (Mode) adds its
// hidden share to Overlap here once it is barriered.
func (c *CheCL) LastCheckpoint() *CheckpointStats { return c.lastCkpt }

// ErrNoCheckpointDestination is what LastCheckpointError reports when a
// checkpoint was signalled and Options.CkptFS/CkptPath name no file.
var ErrNoCheckpointDestination = errors.New("checl: signalled checkpoint has no destination: Options.CkptFS/CkptPath unset")

// LastCheckpointError returns why the most recent signal-triggered
// checkpoint was not written, or nil; the next successful checkpoint
// clears it.
func (c *CheCL) LastCheckpointError() error { return c.ckptErr }

// ObjectCounts reports live CheCL objects per class.
func (c *CheCL) ObjectCounts() map[string]int { return c.db.Counts() }

// CacheStats describes the immutable-info caches: how many round trips
// they have absorbed and how many times they have been invalidated by a
// rebind (restart, failover, destructive checkpoint, processor
// re-selection).
type CacheStats struct {
	Gen  uint64 // invalidation generation
	Hits uint64 // round trips served from the object database
}

// CacheStats reports the info-cache counters.
func (c *CheCL) CacheStats() CacheStats {
	return CacheStats{Gen: c.db.cacheGen, Hits: c.db.cacheHits}
}

// Detach kills the API proxy. The application process survives. Commands
// still queued die with it, like commands in a real queue at process exit.
func (c *CheCL) Detach() { c.px.Kill() }

// enterCall runs at every intercepted API call: it polls for checkpoint
// signals and, in immediate mode, takes the checkpoint before the call
// proceeds.
func (c *CheCL) enterCall() {
	for {
		sig, ok := c.app.PollSignal()
		if !ok {
			break
		}
		if sig == proc.SIGUSR1 {
			c.pending = true
		}
	}
	if c.pending && c.opts.Mode == Delayed && c.epoch == nil {
		// Stop-free checkpointing: the epoch opens at signal receipt and
		// the overlapped drain runs while the application keeps going
		// until the delayed checkpoint fires at the next sync point. A
		// failed begin is not fatal — the checkpoint stop-drains instead.
		if err := c.BeginCheckpointEpoch(); err != nil {
			c.epochAborted = fmt.Sprintf("epoch begin: %v", err)
		}
	}
	if c.pending && c.opts.Mode == Immediate {
		c.triggerCheckpoint()
	}
}

// atSyncPoint runs after synchronisation calls; in delayed mode this is
// where a pending checkpoint fires (§III-C).
func (c *CheCL) atSyncPoint() {
	if c.pending && c.opts.Mode == Delayed {
		c.triggerCheckpoint()
	}
}

// triggerCheckpoint takes the signalled checkpoint. The application did
// not call it, so a failure has no return value to ride on: it is kept
// for LastCheckpointError.
func (c *CheCL) triggerCheckpoint() {
	c.pending = false
	if c.opts.CkptFS == nil || c.opts.CkptPath == "" {
		c.ckptErr = ErrNoCheckpointDestination
		return
	}
	_, c.ckptErr = c.Checkpoint(c.opts.CkptFS, c.opts.CkptPath)
}

// ---- platform & device wrappers ----

// GetPlatformIDs wraps clGetPlatformIDs, returning CheCL platform handles.
// The platform list is immutable for the life of a binding, so repeat
// calls are answered from the object database without a round trip; a
// restart or failover rebind invalidates the cache.
func (c *CheCL) GetPlatformIDs() ([]ocl.PlatformID, error) {
	c.enterCall()
	if c.db.platformList != nil {
		c.db.cacheHits++
		return append([]ocl.PlatformID(nil), c.db.platformList...), nil
	}
	var out []ocl.PlatformID
	err := c.forward("clGetPlatformIDs", func(api *proxy.Client) error {
		real, err := api.GetPlatformIDs()
		if err != nil {
			return err
		}
		out = make([]ocl.PlatformID, len(real))
		for i, rp := range real {
			rec, ok := byReal(c.db.platforms, uint64(rp))
			if !ok {
				info, err := api.GetPlatformInfo(rp)
				if err != nil {
					return err
				}
				rec = &platformRec{real: rp, Info: info}
				file(c.db, c.db.platforms, rec)
			}
			out[i] = ocl.PlatformID(rec.H)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.db.platformList = append([]ocl.PlatformID(nil), out...)
	return out, nil
}

// GetPlatformInfo wraps clGetPlatformInfo. The info was captured when
// the platform was discovered and is refreshed by every rebind, so it
// is served from the object database without a round trip.
func (c *CheCL) GetPlatformInfo(p ocl.PlatformID) (ocl.PlatformInfo, error) {
	c.enterCall()
	rec, err := get(c.db.platforms, Handle(p))
	if err != nil {
		return ocl.PlatformInfo{}, err
	}
	c.db.cacheHits++
	return rec.Info, nil
}

// GetDeviceIDs wraps clGetDeviceIDs, returning CheCL device handles.
// The per-(platform, mask) result is cached: the node's device set is
// immutable for the life of a binding, and a restart or failover rebind
// — which may land on different hardware — invalidates the cache.
func (c *CheCL) GetDeviceIDs(p ocl.PlatformID, mask ocl.DeviceTypeMask) ([]ocl.DeviceID, error) {
	c.enterCall()
	prec, err := get(c.db.platforms, Handle(p))
	if err != nil {
		return nil, err
	}
	key := deviceListKey{platform: prec.H, mask: mask}
	if cached, ok := c.db.deviceLists[key]; ok {
		c.db.cacheHits++
		return append([]ocl.DeviceID(nil), cached...), nil
	}
	var out []ocl.DeviceID
	err = c.forward("clGetDeviceIDs", func(api *proxy.Client) error {
		real, err := api.GetDeviceIDs(prec.real, mask)
		if err != nil {
			return err
		}
		out = make([]ocl.DeviceID, len(real))
		for i, rd := range real {
			rec, ok := byReal(c.db.devices, uint64(rd))
			if !ok {
				info, err := api.GetDeviceInfo(rd)
				if err != nil {
					return err
				}
				rec = &deviceRec{Platform: prec.H, real: rd, Info: info}
				file(c.db, c.db.devices, rec)
			}
			out[i] = ocl.DeviceID(rec.H)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.db.deviceLists[key] = append([]ocl.DeviceID(nil), out...)
	return out, nil
}

// GetDeviceInfo wraps clGetDeviceInfo. Like platform info, the device
// info was captured at discovery and is refreshed by every rebind, so
// it is served from the object database without a round trip.
func (c *CheCL) GetDeviceInfo(d ocl.DeviceID) (ocl.DeviceInfo, error) {
	c.enterCall()
	rec, err := get(c.db.devices, Handle(d))
	if err != nil {
		return ocl.DeviceInfo{}, err
	}
	c.db.cacheHits++
	return rec.Info, nil
}

// ask forwards one query and returns its answer.
func ask[T any](c *CheCL, op string, query func(api *proxy.Client) (T, error)) (T, error) {
	var v T
	err := c.forward(op, func(api *proxy.Client) (err error) {
		v, err = query(api)
		return err
	})
	return v, err
}

// retain is every clRetain* wrapper: the class's entry point, forwarded,
// and one more reference on the record once the proxy has taken it. An
// event may still be queued and have no real handle yet, so for an event
// the queue ships first.
func retain[R any, P record[R]](c *CheCL, m map[Handle]P, h Handle) error {
	c.enterCall()
	if _, events := any(m).(map[Handle]*eventRec); events {
		if err := c.Drain(); err != nil {
			return err
		}
	}
	r, err := get(m, h)
	if err != nil {
		return err
	}
	hd := r.head()
	k := &classes[hd.kind]
	if err := c.forward(k.retainOp, func(api *proxy.Client) error { return k.retain(api, *hd.real) }); err != nil {
		return err
	}
	*hd.refs++
	return nil
}

// release is every clRelease* wrapper. A queued command may name the
// object, so the queue ships first. The record goes when its last
// reference does, except a buffer that a live kernel still binds: it stays
// as a dead record, so that the kernel's clSetKernelArg still replays
// after a restore.
func release[R any, P record[R]](c *CheCL, m map[Handle]P, h Handle) error {
	c.enterCall()
	if err := c.Drain(); err != nil {
		return err
	}
	r, err := get(m, h)
	if err != nil {
		return err
	}
	hd := r.head()
	k := &classes[hd.kind]
	if err := c.forward(k.releaseOp, func(api *proxy.Client) error { return k.release(api, *hd.real) }); err != nil {
		return err
	}
	if *hd.refs--; *hd.refs > 0 {
		return nil
	}
	if mem, ok := any(r).(*memRec); ok {
		// An in-flight speculative copy of a released buffer must never
		// commit: the record either dies or becomes a dead placeholder.
		c.epochDrop(h)
		if c.memReferenced(h) {
			// Its contents are gone with the release, so the checkpoint
			// preprocess must never stage it again.
			mem.Released = true
			mem.Data = nil
			mem.Dirty = false
			mem.UseHostPtr = false
			mem.hostPtr = nil
			return nil
		}
	}
	delete(m, h)
	return nil
}

// Every class but platforms and devices has one create step: it makes the
// class's real object from the record, with the real handles of its
// parents. The live wrappers validate, build the record, forward its
// create and file it; a rebind runs the same creates over the whole
// database (rebindAll).

// ---- context wrappers ----

// create makes the context on its devices. A rebind's device remapping can
// alias several recorded devices onto one physical device, and a context
// must not list one twice.
func (r *contextRec) create(c *CheCL, api *proxy.Client) (err error) {
	devs := make([]ocl.DeviceID, 0, len(r.Devices))
	for _, dh := range r.Devices {
		d, err := get(c.db.devices, dh)
		if err != nil {
			return err
		}
		devs = append(devs, d.real)
	}
	r.real, err = api.CreateContext(dedupeDevices(devs))
	return err
}

func dedupeDevices(devs []ocl.DeviceID) []ocl.DeviceID {
	seen := map[ocl.DeviceID]bool{}
	out := devs[:0]
	for _, d := range devs {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// CreateContext wraps clCreateContext: the devices are CheCL handles and
// are translated before forwarding; the returned handle is a CheCL handle.
func (c *CheCL) CreateContext(devices []ocl.DeviceID) (ocl.Context, error) {
	c.enterCall()
	rec := &contextRec{Devices: make([]Handle, len(devices)), Refs: 1}
	for i, d := range devices {
		drec, err := get(c.db.devices, Handle(d))
		if err != nil {
			return 0, err
		}
		rec.Devices[i] = drec.H
	}
	if err := c.forward("clCreateContext", func(api *proxy.Client) error { return rec.create(c, api) }); err != nil {
		return 0, err
	}
	return ocl.Context(file(c.db, c.db.contexts, rec)), nil
}

// RetainContext wraps clRetainContext.
func (c *CheCL) RetainContext(h ocl.Context) error { return retain(c, c.db.contexts, Handle(h)) }

// ReleaseContext wraps clReleaseContext.
func (c *CheCL) ReleaseContext(h ocl.Context) error { return release(c, c.db.contexts, Handle(h)) }

// ---- queue wrappers ----

// create makes the queue on its context and device.
func (r *queueRec) create(c *CheCL, api *proxy.Client) error {
	ctx, err := get(c.db.contexts, r.Ctx)
	if err != nil {
		return err
	}
	dev, err := get(c.db.devices, r.Device)
	if err != nil {
		return err
	}
	r.real, err = api.CreateCommandQueue(ctx.real, dev.real, r.Props)
	return err
}

// CreateCommandQueue wraps clCreateCommandQueue.
func (c *CheCL) CreateCommandQueue(ctx ocl.Context, d ocl.DeviceID, props ocl.QueueProps) (ocl.CommandQueue, error) {
	c.enterCall()
	crec, err := get(c.db.contexts, Handle(ctx))
	if err != nil {
		return 0, err
	}
	drec, err := get(c.db.devices, Handle(d))
	if err != nil {
		return 0, err
	}
	rec := &queueRec{Ctx: crec.H, Device: drec.H, Props: props, Refs: 1}
	if err := c.forward("clCreateCommandQueue", func(api *proxy.Client) error { return rec.create(c, api) }); err != nil {
		return 0, err
	}
	return ocl.CommandQueue(file(c.db, c.db.queues, rec)), nil
}

// RetainCommandQueue wraps clRetainCommandQueue.
func (c *CheCL) RetainCommandQueue(h ocl.CommandQueue) error {
	return retain(c, c.db.queues, Handle(h))
}

// ReleaseCommandQueue wraps clReleaseCommandQueue.
func (c *CheCL) ReleaseCommandQueue(h ocl.CommandQueue) error {
	return release(c, c.db.queues, Handle(h))
}

// ---- buffer wrappers ----

// create makes the buffer on its context with the flags and host data
// clCreateBuffer is given: the application's on the live call, with
// CL_MEM_USE_HOST_PTR forwarded as a copy; none on a rebind, which uploads
// the contents last.
func (r *memRec) create(c *CheCL, api *proxy.Client, flags ocl.MemFlags, init []byte) error {
	ctx, err := get(c.db.contexts, r.Ctx)
	if err != nil {
		return err
	}
	r.real, err = api.CreateBuffer(ctx.real, flags, r.Size, init)
	return err
}

// CreateBuffer wraps clCreateBuffer. For CL_MEM_USE_HOST_PTR the host
// slice is remembered so kernel launches can emulate the caching protocol
// (§III-D) across the proxy boundary.
func (c *CheCL) CreateBuffer(ctx ocl.Context, flags ocl.MemFlags, size int64, hostData []byte) (ocl.Mem, error) {
	c.enterCall()
	crec, err := get(c.db.contexts, Handle(ctx))
	if err != nil {
		return 0, err
	}
	// CL_MEM_USE_HOST_PTR cannot alias across the proxy process boundary:
	// CheCL validates the host region itself, forwards the buffer with
	// copy semantics, and emulates the caching protocol around every
	// kernel launch (§III-D).
	useHost := flags&ocl.MemUseHostPtr != 0
	fwdFlags := flags
	if useHost {
		if hostData == nil || int64(len(hostData)) < size {
			return 0, ocl.Errf("clCreateBuffer", ocl.InvalidValue,
				"CL_MEM_USE_HOST_PTR requires a host region of at least %d bytes", size)
		}
		fwdFlags = (flags &^ ocl.MemUseHostPtr) | ocl.MemCopyHostPtr
	}
	rec := &memRec{Ctx: crec.H, Flags: flags, Size: size, Refs: 1, Dirty: true, UseHostPtr: useHost}
	if err := c.forward("clCreateBuffer", func(api *proxy.Client) error { return rec.create(c, api, fwdFlags, hostData) }); err != nil {
		return 0, err
	}
	if useHost {
		rec.hostPtr = hostData[:size]
	}
	c.shadowSeed(rec, hostData)
	return ocl.Mem(file(c.db, c.db.mems, rec)), nil
}

// RetainMemObject wraps clRetainMemObject.
func (c *CheCL) RetainMemObject(h ocl.Mem) error { return retain(c, c.db.mems, Handle(h)) }

// ReleaseMemObject wraps clReleaseMemObject.
func (c *CheCL) ReleaseMemObject(h ocl.Mem) error { return release(c, c.db.mems, Handle(h)) }

// memReferenced reports whether any live kernel's recorded argument still
// carries the mem handle h.
func (c *CheCL) memReferenced(h Handle) bool {
	for _, k := range c.db.kernels {
		for _, a := range k.Args {
			if a.Set && !a.Local && len(a.Raw) == 8 &&
				Handle(binary.LittleEndian.Uint64(a.Raw)) == h {
				return true
			}
		}
	}
	return false
}

// ---- sampler wrappers ----

// create makes the sampler on its context.
func (r *samplerRec) create(c *CheCL, api *proxy.Client) error {
	ctx, err := get(c.db.contexts, r.Ctx)
	if err != nil {
		return err
	}
	r.real, err = api.CreateSampler(ctx.real, r.Normalized, r.AMode, r.FMode)
	return err
}

// CreateSampler wraps clCreateSampler.
func (c *CheCL) CreateSampler(ctx ocl.Context, normalized bool, am ocl.AddressingMode, fm ocl.FilterMode) (ocl.Sampler, error) {
	c.enterCall()
	crec, err := get(c.db.contexts, Handle(ctx))
	if err != nil {
		return 0, err
	}
	rec := &samplerRec{Ctx: crec.H, Normalized: normalized, AMode: am, FMode: fm, Refs: 1}
	if err := c.forward("clCreateSampler", func(api *proxy.Client) error { return rec.create(c, api) }); err != nil {
		return 0, err
	}
	return ocl.Sampler(file(c.db, c.db.samplers, rec)), nil
}

// RetainSampler wraps clRetainSampler.
func (c *CheCL) RetainSampler(h ocl.Sampler) error { return retain(c, c.db.samplers, Handle(h)) }

// ReleaseSampler wraps clReleaseSampler.
func (c *CheCL) ReleaseSampler(h ocl.Sampler) error { return release(c, c.db.samplers, Handle(h)) }

// ---- program wrappers ----

// create makes the program on its context from its source, or from its
// binary for dev, and builds it when the application has. It returns the
// time the build took.
func (r *programRec) create(c *CheCL, api *proxy.Client, dev ocl.DeviceID) (vtime.Duration, error) {
	ctx, err := get(c.db.contexts, r.Ctx)
	if err != nil {
		return 0, err
	}
	if r.FromBinary {
		r.real, err = api.CreateProgramWithBinary(ctx.real, dev, r.Binary)
	} else {
		r.real, err = api.CreateProgramWithSource(ctx.real, r.Source)
	}
	if err != nil || !r.Built {
		return 0, err
	}
	sw := vtime.NewStopwatch(c.app.Clock())
	r.BuildCost, err = buildProgram(api, c.app.Clock(), r.real, r.Options)
	return sw.Elapsed(), err
}

// CreateProgramWithSource wraps clCreateProgramWithSource. CheCL parses
// the kernel parameter lists here (the paper does it with Clang) so that
// clSetKernelArg can later distinguish handles from scalars.
func (c *CheCL) CreateProgramWithSource(ctx ocl.Context, source string) (ocl.Program, error) {
	c.enterCall()
	crec, err := get(c.db.contexts, Handle(ctx))
	if err != nil {
		return 0, err
	}
	rec := &programRec{Ctx: crec.H, Source: source, Refs: 1}
	if err := c.forward("clCreateProgramWithSource", func(api *proxy.Client) error {
		_, err := rec.create(c, api, 0)
		return err
	}); err != nil {
		return 0, err
	}
	if compiled, cerr := clc.Compile(source); cerr == nil {
		rec.Sigs = compiled.Sigs
		rec.WriteSets = writeSets{}
		for _, sig := range compiled.Sigs {
			if ws, ok := compiled.WriteSet(sig.Name); ok {
				rec.WriteSets[sig.Name] = ws
			}
		}
	}
	return ocl.Program(file(c.db, c.db.programs, rec)), nil
}

// CreateProgramWithBinary wraps clCreateProgramWithBinary. Its use is
// deprecated under CheCL (§III-D): without source there are no parsed
// signatures, so clSetKernelArg falls back to the address-based heuristic,
// and the recorded binary may be invalid on the restart node.
func (c *CheCL) CreateProgramWithBinary(ctx ocl.Context, d ocl.DeviceID, binaryBlob []byte) (ocl.Program, error) {
	c.enterCall()
	crec, err := get(c.db.contexts, Handle(ctx))
	if err != nil {
		return 0, err
	}
	drec, err := get(c.db.devices, Handle(d))
	if err != nil {
		return 0, err
	}
	rec := &programRec{Ctx: crec.H, Binary: append([]byte(nil), binaryBlob...), FromBinary: true, Refs: 1}
	if err := c.forward("clCreateProgramWithBinary", func(api *proxy.Client) error {
		_, err := rec.create(c, api, drec.real)
		return err
	}); err != nil {
		return 0, err
	}
	return ocl.Program(file(c.db, c.db.programs, rec)), nil
}

// BuildProgram wraps clBuildProgram and records the measured build time —
// the Tr input of the migration-cost model.
func (c *CheCL) BuildProgram(h ocl.Program, options string) error {
	c.enterCall()
	if err := c.Drain(); err != nil {
		return err
	}
	rec, err := get(c.db.programs, Handle(h))
	if err != nil {
		return err
	}
	var cost vtime.Duration
	if err := c.forward("clBuildProgram", func(api *proxy.Client) (err error) {
		cost, err = buildProgram(api, c.app.Clock(), rec.real, options)
		return err
	}); err != nil {
		return err
	}
	rec.Built = true
	rec.Options = options
	rec.BuildCost = cost
	// A rebuild can change the build log: drop this program's cached
	// build-info entries.
	maps.DeleteFunc(c.db.buildInfo, func(k buildInfoKey, _ ocl.BuildInfo) bool { return k.prog == rec.H })
	return nil
}

// GetProgramBuildInfo wraps clGetProgramBuildInfo. The result is cached
// per (program, device): it only changes on a rebuild (which drops the
// entry) or a rebind (which invalidates every cache).
func (c *CheCL) GetProgramBuildInfo(h ocl.Program, d ocl.DeviceID) (ocl.BuildInfo, error) {
	c.enterCall()
	rec, err := get(c.db.programs, Handle(h))
	if err != nil {
		return ocl.BuildInfo{}, err
	}
	drec, err := get(c.db.devices, Handle(d))
	if err != nil {
		return ocl.BuildInfo{}, err
	}
	key := buildInfoKey{prog: rec.H, dev: drec.H}
	if info, ok := c.db.buildInfo[key]; ok {
		c.db.cacheHits++
		return info, nil
	}
	info, err := ask(c, "clGetProgramBuildInfo", func(api *proxy.Client) (ocl.BuildInfo, error) {
		return api.GetProgramBuildInfo(rec.real, drec.real)
	})
	if err == nil {
		c.db.buildInfo[key] = info
	}
	return info, err
}

// GetProgramBinary wraps clGetProgramInfo(CL_PROGRAM_BINARIES).
func (c *CheCL) GetProgramBinary(h ocl.Program) ([]byte, error) {
	_, bin, err := query(c, c.db.programs, Handle(h), "clGetProgramBinary", (*proxy.Client).GetProgramBinary)
	return bin, err
}

// RetainProgram wraps clRetainProgram.
func (c *CheCL) RetainProgram(h ocl.Program) error { return retain(c, c.db.programs, Handle(h)) }

// ReleaseProgram wraps clReleaseProgram.
func (c *CheCL) ReleaseProgram(h ocl.Program) error { return release(c, c.db.programs, Handle(h)) }

// ---- kernel wrappers ----

// create makes the kernel from its program.
func (r *kernelRec) create(c *CheCL, api *proxy.Client) error {
	prog, err := get(c.db.programs, r.Prog)
	if err != nil {
		return err
	}
	r.real, err = api.CreateKernel(prog.real, r.Name)
	return err
}

// CreateKernel wraps clCreateKernel.
func (c *CheCL) CreateKernel(p ocl.Program, name string) (ocl.Kernel, error) {
	c.enterCall()
	prec, err := get(c.db.programs, Handle(p))
	if err != nil {
		return 0, err
	}
	// A program created from binary has no parsed signature: the argument
	// count is unknown to CheCL and the slot list grows on demand.
	nargs := 0
	if sig, ok := clc.Lookup(prec.Sigs, name); ok {
		nargs = len(sig.Params)
	}
	rec := &kernelRec{Prog: prec.H, Name: name, Args: make([]argRec, nargs), Refs: 1}
	if err := c.forward("clCreateKernel", func(api *proxy.Client) error { return rec.create(c, api) }); err != nil {
		return 0, err
	}
	return ocl.Kernel(file(c.db, c.db.kernels, rec)), nil
}

// RetainKernel wraps clRetainKernel.
func (c *CheCL) RetainKernel(h ocl.Kernel) error { return retain(c, c.db.kernels, Handle(h)) }

// ReleaseKernel wraps clReleaseKernel.
func (c *CheCL) ReleaseKernel(h ocl.Kernel) error { return release(c, c.db.kernels, Handle(h)) }

// SetKernelArg wraps clSetKernelArg — the call whose (void*, size_t)
// contract required the signature machinery of §III-B. The raw bytes the
// application passed are recorded for restart replay; handle-bearing
// arguments are translated from CheCL to real handle space when the queue
// is flushed. The call keeps its order relative to queued launches by
// riding the queue; it is validated here, and a runtime-side failure
// surfaces at the flush.
func (c *CheCL) SetKernelArg(h ocl.Kernel, index int, size int64, value []byte) error {
	c.enterCall()
	rec, err := get(c.db.kernels, Handle(h))
	if err != nil {
		return err
	}
	prec, err := get(c.db.programs, rec.Prog)
	if err != nil {
		return err
	}
	_, local, err := c.translateArg(prec, rec.Name, index, size, value)
	if err != nil {
		return err
	}
	if err := c.reserve(1, 0); err != nil {
		return err
	}
	cmd := queuedCmd{op: proxy.BatchSetArg, k: rec, prog: prec, argIndex: index, argSize: size, argOff: len(c.qargs), argLen: -1}
	if value != nil {
		c.qargs = append(c.qargs, value...)
		cmd.argLen = len(value)
	}
	c.push(cmd, "", nil) //nolint:errcheck // no wait list: cannot fail
	for index >= len(rec.Args) {
		rec.Args = append(rec.Args, argRec{})
	}
	arg := &rec.Args[index]
	arg.Set, arg.Size, arg.Local = true, size, local
	if arg.Raw = append(arg.Raw[:0], value...); value == nil {
		arg.Raw = nil
	}
	return nil
}

// translateArg converts one clSetKernelArg value from CheCL handle space
// to real handle space. It returns the bytes to forward — valid until the
// next translateArg — and whether the parameter is a __local size-only
// argument.
func (c *CheCL) translateArg(prec *programRec, kernel string, index int, size int64, value []byte) ([]byte, bool, error) {
	if sig, ok := clc.Lookup(prec.Sigs, kernel); ok && index < len(sig.Params) {
		switch sig.Params[index].Kind {
		case clc.ParamLocalSize:
			return nil, true, nil
		case clc.ParamMemHandle, clc.ParamImageHandle:
			if size != 8 || len(value) != 8 {
				return nil, false, ocl.Errf("clSetKernelArg", ocl.InvalidArgSize,
					"kernel %s argument %d (%s) is a mem handle and must be 8 bytes",
					kernel, index, sig.Params[index].Name)
			}
			mh := Handle(binary.LittleEndian.Uint64(value))
			// A dead record too: a kernel may still name a released buffer.
			mrec, ok := c.db.mems[mh]
			if !ok {
				_, err := get(c.db.mems, mh)
				return nil, false, err
			}
			return c.handleBytes(uint64(mrec.real)), false, nil
		case clc.ParamSamplerHandle:
			if size != 8 || len(value) != 8 {
				return nil, false, ocl.Errf("clSetKernelArg", ocl.InvalidArgSize,
					"kernel %s argument %d is a sampler handle and must be 8 bytes", kernel, index)
			}
			sh := Handle(binary.LittleEndian.Uint64(value))
			srec, err := get(c.db.samplers, sh)
			if err != nil {
				return nil, false, err
			}
			return c.handleBytes(uint64(srec.real)), false, nil
		default:
			return value, false, nil
		}
	}
	// No parsed signature (program from binary): fall back to the
	// address-based heuristic of §III-D — an 8-byte value that matches a
	// live CheCL handle is assumed to BE one. A scalar that happens to
	// collide with a handle value is mis-translated; this is the
	// documented false-positive risk.
	if value == nil {
		return nil, true, nil
	}
	if size == 8 && len(value) == 8 {
		maybe := Handle(binary.LittleEndian.Uint64(value))
		if mrec, ok := c.db.mems[maybe]; ok {
			return c.handleBytes(uint64(mrec.real)), false, nil
		}
		if srec, ok := c.db.samplers[maybe]; ok {
			return c.handleBytes(uint64(srec.real)), false, nil
		}
	}
	return value, false, nil
}

// ---- enqueue wrappers ----

// translateWaits converts a CheCL event wait list to real events. An
// event with no real handle — a queued command that never executed
// because its frame failed earlier — is skipped: its deferred error was
// already delivered and there is nothing to wait on.
func (c *CheCL) translateWaits(waits []ocl.Event) ([]ocl.Event, error) {
	if len(waits) == 0 {
		return nil, nil
	}
	out := make([]ocl.Event, 0, len(waits))
	for _, w := range waits {
		rec, err := get(c.db.events, Handle(w))
		if err != nil {
			return nil, err
		}
		if rec.real == 0 {
			continue
		}
		out = append(out, rec.real)
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// wrapEvent registers a real event and returns its CheCL handle.
func (c *CheCL) wrapEvent(q Handle, kind string, real ocl.Event) ocl.Event {
	return ocl.Event(file(c.db, c.db.events, &eventRec{Queue: q, Kind: kind, Refs: 1, real: real}))
}

// EnqueueWriteBuffer wraps clEnqueueWriteBuffer. A write below the
// transport's bulk cut is copied once into the next frame's data region
// and queued (a blocking one flushes the queue with itself as the last
// command). A write at or above the cut — where the copy alone costs as
// much as the round trip queueing would save — is never staged: the queue
// is flushed and the payload goes out on its own zero-copy call, so the
// transfer starts overlapping device work at once.
func (c *CheCL) EnqueueWriteBuffer(q ocl.CommandQueue, m ocl.Mem, blocking bool, offset int64, data []byte, waits []ocl.Event) (ocl.Event, error) {
	c.enterCall()
	qrec, err := get(c.db.queues, Handle(q))
	if err != nil {
		return 0, err
	}
	mrec, err := get(c.db.mems, Handle(m))
	if err != nil {
		return 0, err
	}
	var ev ocl.Event
	if int64(len(data)) < c.px.Client.BulkCut() {
		if err := c.reserve(1, len(data)); err != nil {
			return 0, err
		}
		rec, err := c.push(queuedCmd{
			op: proxy.BatchWrite, q: qrec, mem: mrec, blocking: blocking,
			offset: offset, size: int64(len(data)),
		}, "write", waits)
		if err != nil {
			return 0, err
		}
		c.queue[len(c.queue)-1].dataOff = c.frame.Stage(data)
		ev = ocl.Event(rec.H)
		if blocking {
			if err := c.Drain(); err != nil {
				return 0, err
			}
		}
	} else {
		if err := c.Drain(); err != nil {
			return 0, err
		}
		// The wait list translates inside the closure: after a failover the
		// rebound events are fresh dummy markers, not the stale real handles.
		var real ocl.Event
		err = c.forward("clEnqueueWriteBuffer", func(api *proxy.Client) error {
			rw, e := c.translateWaits(waits)
			if e != nil {
				return e
			}
			real, e = api.EnqueueWriteBuffer(qrec.real, mrec.real, blocking, offset, data, rw)
			return e
		})
		if err != nil {
			return 0, err
		}
		ev = c.wrapEvent(qrec.H, "write", real)
	}
	// Side effects only once the command is queued or sent: a write dropped
	// by a failed capacity flush must leave no shadow bytes behind.
	mrec.Dirty = true
	c.epochTouch(mrec)
	c.shadowWrite(mrec, offset, data)
	if blocking {
		c.atSyncPoint()
	}
	return ev, nil
}

// EnqueueReadBuffer wraps clEnqueueReadBuffer.
func (c *CheCL) EnqueueReadBuffer(q ocl.CommandQueue, m ocl.Mem, blocking bool, offset, size int64, waits []ocl.Event) ([]byte, ocl.Event, error) {
	return c.EnqueueReadBufferInto(q, m, blocking, offset, size, waits, nil)
}

// EnqueueReadBufferInto is EnqueueReadBuffer with a caller-owned
// destination: when buf has capacity for size bytes the read lands in it
// (the returned slice then aliases buf). Every read is a flush point — its
// data must come back now. On an empty queue it goes out on the zero-copy
// raw call and the steady state allocates nothing on the client side;
// behind queued commands it rides the frame as its last command, so the
// whole run costs one round trip, and is copied out of the response.
func (c *CheCL) EnqueueReadBufferInto(q ocl.CommandQueue, m ocl.Mem, blocking bool, offset, size int64, waits []ocl.Event, buf []byte) ([]byte, ocl.Event, error) {
	c.enterCall()
	qrec, err := get(c.db.queues, Handle(q))
	if err != nil {
		return nil, 0, err
	}
	mrec, err := get(c.db.mems, Handle(m))
	if err != nil {
		return nil, 0, err
	}
	var (
		data []byte
		ev   ocl.Event
	)
	if len(c.queue) == 0 {
		var real ocl.Event
		err = c.forward("clEnqueueReadBuffer", func(api *proxy.Client) error {
			rw, e := c.translateWaits(waits)
			if e != nil {
				return e
			}
			data, real, e = api.EnqueueReadBufferInto(qrec.real, mrec.real, blocking, offset, size, rw, buf)
			return e
		})
		if err != nil {
			return nil, 0, err
		}
		ev = c.wrapEvent(qrec.H, "read", real)
	} else {
		if err := c.reserve(1, 0); err != nil {
			return nil, 0, err
		}
		rec, err := c.push(queuedCmd{
			op: proxy.BatchRead, q: qrec, mem: mrec, blocking: true,
			offset: offset, size: size, termRead: true,
		}, "read", waits)
		if err != nil {
			return nil, 0, err
		}
		if data, err = c.flushBatchData(); err != nil {
			return nil, 0, err
		}
		if buf != nil && cap(buf) >= len(data) {
			data = append(buf[:0], data...)
		}
		ev = ocl.Event(rec.H)
	}
	// A read refreshes our knowledge of the region — fold it into the shadow.
	c.shadowWrite(mrec, offset, data)
	if blocking {
		c.atSyncPoint()
	}
	return data, ev, nil
}

// EnqueueCopyBuffer wraps clEnqueueCopyBuffer.
func (c *CheCL) EnqueueCopyBuffer(q ocl.CommandQueue, src, dst ocl.Mem, srcOff, dstOff, size int64, waits []ocl.Event) (ocl.Event, error) {
	c.enterCall()
	qrec, err := get(c.db.queues, Handle(q))
	if err != nil {
		return 0, err
	}
	srec, err := get(c.db.mems, Handle(src))
	if err != nil {
		return 0, err
	}
	drec, err := get(c.db.mems, Handle(dst))
	if err != nil {
		return 0, err
	}
	if err := c.reserve(1, 0); err != nil {
		return 0, err
	}
	ev, err := c.push(queuedCmd{
		op: proxy.BatchCopy, q: qrec, src: srec, mem: drec,
		srcOff: srcOff, offset: dstOff, size: size,
	}, "copy", waits)
	if err != nil {
		return 0, err
	}
	drec.Dirty = true
	c.epochTouch(drec)
	c.shadowCopy(srec, drec, srcOff, dstOff, size)
	return ocl.Event(ev.H), nil
}

// EnqueueNDRangeKernel wraps clEnqueueNDRangeKernel. Buffers the kernel
// may write (per the parsed write set, or all bound buffers without one)
// are marked dirty for incremental checkpointing. USE_HOST_PTR buffers get
// the §III-D cache protocol: host copy sent before the launch and written
// back after it.
func (c *CheCL) EnqueueNDRangeKernel(q ocl.CommandQueue, k ocl.Kernel, dims int, offset, global, local [3]int, waits []ocl.Event) (ocl.Event, error) {
	c.enterCall()
	qrec, err := get(c.db.queues, Handle(q))
	if err != nil {
		return 0, err
	}
	krec, err := get(c.db.kernels, Handle(k))
	if err != nil {
		return 0, err
	}
	prec, err := get(c.db.programs, krec.Prog)
	if err != nil {
		return 0, err
	}
	c.boundBuf = c.boundMems(c.boundBuf[:0], prec, krec)
	boundMems := c.boundBuf
	written := c.writtenMems(prec, krec, boundMems)

	usesHostPtr := false
	for _, mrec := range boundMems {
		if mrec.UseHostPtr && mrec.hostPtr != nil {
			usesHostPtr = true
			break
		}
	}
	if krec.launchKind == "" {
		krec.launchKind = "ndrange:" + krec.Name
	}
	var ev ocl.Event
	if !usesHostPtr {
		// The per-launch shadow readbacks ride the same frame as the
		// launch; their data is copied into the shadows at the flush.
		readbacks := c.shadowReadback(written)
		if err := c.reserve(1+len(readbacks), 0); err != nil {
			return 0, err
		}
		rec, err := c.push(queuedCmd{
			op: proxy.BatchNDRange, q: qrec, k: krec,
			dims: dims, goff: offset, global: global, local: local,
		}, krec.launchKind, waits)
		if err != nil {
			return 0, err
		}
		for _, m := range readbacks {
			c.push(queuedCmd{op: proxy.BatchRead, q: qrec, mem: m, blocking: true, size: m.Size, shadow: true}, "", nil) //nolint:errcheck // no wait list: cannot fail
		}
		ev = ocl.Event(rec.H)
	} else {
		// USE_HOST_PTR launches need the synchronous §III-D cache protocol;
		// the queue must land first to preserve command order.
		if err := c.Drain(); err != nil {
			return 0, err
		}
		// The whole launch interaction — wait-list translation, USE_HOST_PTR
		// push, the launch itself, the shadow readback, and the
		// USE_HOST_PTR pull — is one atomic retry unit: a proxy crash
		// anywhere inside re-runs it end to end against the rebound handles,
		// so the shadow/host copies always reflect a completed launch.
		var real ocl.Event
		err = c.forward("clEnqueueNDRangeKernel", func(api *proxy.Client) error {
			rw, e := c.translateWaits(waits)
			if e != nil {
				return e
			}
			for _, mrec := range boundMems { // push host copies before the launch
				if mrec.UseHostPtr && mrec.hostPtr != nil {
					if _, e := api.EnqueueWriteBuffer(qrec.real, mrec.real, true, 0, mrec.hostPtr, nil); e != nil {
						return e
					}
				}
			}
			real, e = api.EnqueueNDRangeKernel(qrec.real, krec.real, dims, offset, global, local, rw)
			if e != nil {
				return e
			}
			for _, m := range c.shadowReadback(written) {
				data, _, e := api.EnqueueReadBuffer(qrec.real, m.real, true, 0, m.Size, nil)
				if e != nil {
					return e
				}
				m.Data = data
			}
			for _, mrec := range boundMems { // pull results back after it
				if mrec.UseHostPtr && mrec.hostPtr != nil {
					data, _, e := api.EnqueueReadBuffer(qrec.real, mrec.real, true, 0, mrec.Size, nil)
					if e != nil {
						return e
					}
					copy(mrec.hostPtr, data)
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		ev = c.wrapEvent(qrec.H, krec.launchKind, real)
	}

	// Dirty marking for incremental checkpointing, once the launch is
	// queued or done. A USE_HOST_PTR buffer is dirtied by the cache
	// protocol itself: the pre-launch push makes the device copy track the
	// application-owned host region, which can change without any OpenCL
	// call — so it can never be assumed clean.
	for _, mrec := range written {
		mrec.Dirty = true
		c.epochTouch(mrec)
	}
	for _, mrec := range boundMems {
		if mrec.UseHostPtr {
			mrec.Dirty = true
			c.epochTouch(mrec)
		}
	}
	return ev, nil
}

// writtenMems resolves the buffers a kernel launch may write: the parsed
// write set when the program source was analysed, else every bound buffer.
// The result is per-call scratch (or bound itself).
func (c *CheCL) writtenMems(prec *programRec, krec *kernelRec, bound []*memRec) []*memRec {
	ws, ok := prec.WriteSets[krec.Name]
	if !ok {
		return bound
	}
	sig, _ := clc.Lookup(prec.Sigs, krec.Name)
	out := c.writtenBuf[:0]
	for _, idx := range ws {
		if idx < len(krec.Args) && krec.Args[idx].Set && idx < len(sig.Params) {
			mh := Handle(binary.LittleEndian.Uint64(krec.Args[idx].Raw))
			if mrec, ok := c.db.mems[mh]; ok {
				out = append(out, mrec)
			}
		}
	}
	c.writtenBuf = out
	return out
}

// boundMems appends to out the mem records currently bound to
// handle-bearing arguments of the kernel.
func (c *CheCL) boundMems(out []*memRec, prec *programRec, krec *kernelRec) []*memRec {
	sig, hasSig := clc.Lookup(prec.Sigs, krec.Name)
	for i, a := range krec.Args {
		if !a.Set || a.Local || len(a.Raw) != 8 {
			continue
		}
		if hasSig && i < len(sig.Params) && !sig.Params[i].Kind.IsHandle() {
			continue
		}
		mh := Handle(binary.LittleEndian.Uint64(a.Raw))
		if mrec, ok := c.db.mems[mh]; ok {
			out = append(out, mrec)
		}
	}
	return out
}

// queueOnly handles the calls that carry nothing but their queue. A
// plain one (nil) is queued. A sync one ships the queue with itself as the
// last command, so a run of queued commands plus the sync costs exactly
// one round trip; with nothing queued there is nothing to carry and it
// goes out as the plain call it wraps.
func (c *CheCL) queueOnly(q ocl.CommandQueue, op proxy.BatchOp, kind string, sync func(*proxy.Client, ocl.CommandQueue) error) (*eventRec, error) {
	c.enterCall()
	qrec, err := get(c.db.queues, Handle(q))
	if err != nil {
		return nil, err
	}
	if sync != nil && len(c.queue) == 0 {
		return nil, c.forward(op.Method(), func(api *proxy.Client) error { return sync(api, qrec.real) })
	}
	if err := c.reserve(1, 0); err != nil {
		return nil, err
	}
	ev, _ := c.push(queuedCmd{op: op, q: qrec}, kind, nil)
	if sync != nil {
		return nil, c.Drain()
	}
	return ev, nil
}

// EnqueueMarker wraps clEnqueueMarker.
func (c *CheCL) EnqueueMarker(q ocl.CommandQueue) (ocl.Event, error) {
	ev, err := c.queueOnly(q, proxy.BatchMarker, "marker", nil)
	if err != nil {
		return 0, err
	}
	return ocl.Event(ev.H), nil
}

// EnqueueBarrier wraps clEnqueueBarrier.
func (c *CheCL) EnqueueBarrier(q ocl.CommandQueue) error {
	_, err := c.queueOnly(q, proxy.BatchBarrier, "", nil)
	return err
}

// Flush wraps clFlush. It promises the queued commands will run: they
// ship now, this flush included.
func (c *CheCL) Flush(q ocl.CommandQueue) error {
	_, err := c.queueOnly(q, proxy.BatchFlush, "", (*proxy.Client).Flush)
	return err
}

// Finish wraps clFinish; it is a synchronisation point for delayed
// checkpointing.
func (c *CheCL) Finish(q ocl.CommandQueue) error {
	if _, err := c.queueOnly(q, proxy.BatchFinish, "", (*proxy.Client).Finish); err != nil {
		return err
	}
	c.atSyncPoint()
	return nil
}

// WaitForEvents wraps clWaitForEvents; it is a synchronisation point for
// delayed checkpointing.
func (c *CheCL) WaitForEvents(events []ocl.Event) error {
	c.enterCall()
	// An event wait is a synchronisation point: queued commands (which
	// may include the waited-on ones) must reach the proxy first.
	if err := c.Drain(); err != nil {
		return err
	}
	if err := c.forward("clWaitForEvents", func(api *proxy.Client) error {
		rw, e := c.translateWaits(events)
		if e != nil {
			return e
		}
		return api.WaitForEvents(rw)
	}); err != nil {
		return err
	}
	c.atSyncPoint()
	return nil
}

// GetEventProfile wraps clGetEventProfilingInfo.
func (c *CheCL) GetEventProfile(e ocl.Event) (ocl.EventProfile, error) {
	c.enterCall()
	// The event may still be pending in the queue; land it first.
	if err := c.Drain(); err != nil {
		return ocl.EventProfile{}, err
	}
	rec, err := get(c.db.events, Handle(e))
	if err != nil {
		return ocl.EventProfile{}, err
	}
	return ask(c, "clGetEventProfilingInfo", func(api *proxy.Client) (ocl.EventProfile, error) { return api.GetEventProfile(rec.real) })
}

// create mints the event as a marker on its queue (§III-C). It runs only
// on a rebind, which finds the queues empty: the marker completes at once
// and stands in for the completed event the record was made for.
func (r *eventRec) create(c *CheCL, api *proxy.Client) error {
	q, err := get(c.db.queues, r.Queue)
	if err != nil {
		return err
	}
	if r.real, err = api.EnqueueMarker(q.real); err != nil {
		return err
	}
	r.Dummy = true
	return nil
}

// RetainEvent wraps clRetainEvent.
func (c *CheCL) RetainEvent(e ocl.Event) error { return retain(c, c.db.events, Handle(e)) }

// ReleaseEvent wraps clReleaseEvent.
func (c *CheCL) ReleaseEvent(e ocl.Event) error { return release(c, c.db.events, Handle(e)) }
