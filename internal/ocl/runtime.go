package ocl

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"

	"checl/internal/clc"
	"checl/internal/hw"
	"checl/internal/vtime"
)

// handle class tags, encoded in the low nibble of every handle so that
// diagnostics can name the class of a stray handle.
const (
	tagPlatform = iota + 1
	tagDevice
	tagContext
	tagQueue
	tagMem
	tagSampler
	tagProgram
	tagKernel
	tagEvent
)

// runtimeGen distinguishes runtime instances: a fresh runtime (e.g. the
// new API proxy forked on restart) mints handles from a different
// generation, so recreated objects get different handle values — the
// behaviour that makes CheCL's handle rebinding necessary.
var runtimeGen atomic.Uint64

// Runtime is one in-process OpenCL implementation instance. All methods
// are safe for concurrent use.
type Runtime struct {
	vendor *Vendor
	spec   hw.SystemSpec
	clock  *vtime.Clock

	mu   sync.Mutex
	gen  uint64
	seq  uint64
	plat *platform

	devices  map[DeviceID]*device
	contexts map[Context]*context
	queues   map[CommandQueue]*queueObj
	buffers  map[Mem]*buffer
	samplers map[Sampler]*samplerObj
	programs map[Program]*programObj
	kernels  map[Kernel]*kernelObj
	events   map[Event]*eventObj
}

var _ API = (*Runtime)(nil)

type platform struct {
	id      PlatformID
	info    PlatformInfo
	devices []DeviceID
}

type device struct {
	id    DeviceID
	model hw.DeviceModel
}

type context struct {
	id        Context
	refs      int
	devices   []DeviceID
	allocated int64
	memLimit  int64
}

type queueObj struct {
	id    CommandQueue
	refs  int
	ctx   Context
	dev   DeviceID
	props QueueProps
	tail  vtime.Time
}

type buffer struct {
	id         Mem
	refs       int
	ctx        Context
	flags      MemFlags
	size       int64
	data       []byte
	useHostPtr bool
	hostPtr    []byte // aliased host region for MemUseHostPtr
}

type samplerObj struct {
	id         Sampler
	refs       int
	ctx        Context
	normalized bool
	amode      AddressingMode
	fmode      FilterMode
}

type programObj struct {
	id         Program
	refs       int
	ctx        Context
	source     string
	fromBinary bool
	built      bool
	buildLog   string
	options    string
	compiled   *clc.Program
}

type argSlot struct {
	set   bool
	size  int64
	bytes []byte // nil for __local arguments
}

type kernelObj struct {
	id   Kernel
	refs int
	prog Program
	name string
	sig  clc.KernelSig
	args []argSlot
}

type eventObj struct {
	id      Event
	refs    int
	queue   CommandQueue
	kind    string
	profile EventProfile
}

// refCounted is an object of one of the seven reference-counted classes:
// it reports its reference count, and the noun and Status an unknown
// handle of its class is refused with. unknown is called on the nil
// object, so it reads no field.
type refCounted interface {
	refCount() *int
	unknown() (noun string, st Status)
}

func (c *context) refCount() *int             { return &c.refs }
func (q *queueObj) refCount() *int            { return &q.refs }
func (b *buffer) refCount() *int              { return &b.refs }
func (s *samplerObj) refCount() *int          { return &s.refs }
func (p *programObj) refCount() *int          { return &p.refs }
func (k *kernelObj) refCount() *int           { return &k.refs }
func (e *eventObj) refCount() *int            { return &e.refs }
func (*context) unknown() (string, Status)    { return "context", InvalidContext }
func (*queueObj) unknown() (string, Status)   { return "queue", InvalidCommandQueue }
func (*buffer) unknown() (string, Status)     { return "mem object", InvalidMemObject }
func (*samplerObj) unknown() (string, Status) { return "sampler", InvalidSampler }
func (*programObj) unknown() (string, Status) { return "program", InvalidProgram }
func (*kernelObj) unknown() (string, Status)  { return "kernel", InvalidKernel }
func (*eventObj) unknown() (string, Status)   { return "event", InvalidEvent }

// lookup finds id in m under r.mu, or refuses it as op.
func lookup[K ~uint64, V refCounted](m map[K]V, op string, id K) (V, error) {
	o, ok := m[id]
	if !ok {
		noun, st := o.unknown()
		return o, Errf(op, st, "unknown %s %#x", noun, uint64(id))
	}
	return o, nil
}

// retain is every clRetain* call: one more reference to id.
func retain[K ~uint64, V refCounted](r *Runtime, m map[K]V, op string, id K) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	o, err := lookup(m, op, id)
	if err != nil {
		return err
	}
	*o.refCount()++
	return nil
}

// release is every clRelease* call: one reference fewer to id, which goes
// with its last one; a buffer returns its bytes to its context's budget.
func release[K ~uint64, V refCounted](r *Runtime, m map[K]V, op string, id K) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	o, err := lookup(m, op, id)
	if err != nil {
		return err
	}
	refs := o.refCount()
	if *refs--; *refs > 0 {
		return nil
	}
	if b, ok := any(o).(*buffer); ok {
		if ctx, ok := r.contexts[b.ctx]; ok {
			ctx.allocated -= b.size
		}
	}
	delete(m, id)
	return nil
}

// NewRuntime constructs a runtime for the given vendor on a machine with
// the given specification and clock. The clock is shared with the owning
// (simulated) process so that blocking API calls advance process time.
func NewRuntime(vendor *Vendor, spec hw.SystemSpec, clock *vtime.Clock) *Runtime {
	r := &Runtime{
		vendor:   vendor,
		spec:     spec,
		clock:    clock,
		gen:      runtimeGen.Add(1),
		devices:  map[DeviceID]*device{},
		contexts: map[Context]*context{},
		queues:   map[CommandQueue]*queueObj{},
		buffers:  map[Mem]*buffer{},
		samplers: map[Sampler]*samplerObj{},
		programs: map[Program]*programObj{},
		kernels:  map[Kernel]*kernelObj{},
		events:   map[Event]*eventObj{},
	}
	r.plat = &platform{
		id: PlatformID(r.newHandle(tagPlatform)),
		info: PlatformInfo{
			Name:    vendor.PlatformName,
			Vendor:  vendor.PlatformVendor,
			Version: vendor.PlatformVersion,
			Profile: "FULL_PROFILE",
		},
	}
	for _, m := range vendor.Devices {
		d := &device{id: DeviceID(r.newHandle(tagDevice)), model: m}
		r.devices[d.id] = d
		r.plat.devices = append(r.plat.devices, d.id)
	}
	return r
}

// Vendor returns the vendor this runtime implements.
func (r *Runtime) Vendor() *Vendor { return r.vendor }

// Clock returns the virtual clock the runtime charges costs to.
func (r *Runtime) Clock() *vtime.Clock { return r.clock }

// newHandle mints an opaque handle value. Callers must hold r.mu or be in
// the constructor.
func (r *Runtime) newHandle(tag int) uint64 {
	r.seq++
	return r.gen<<40 | r.seq<<8 | uint64(tag)
}

// ---- platform & device queries ----

// GetPlatformIDs implements clGetPlatformIDs.
func (r *Runtime) GetPlatformIDs() ([]PlatformID, error) {
	return []PlatformID{r.plat.id}, nil
}

// GetPlatformInfo implements clGetPlatformInfo.
func (r *Runtime) GetPlatformInfo(p PlatformID) (PlatformInfo, error) {
	if p != r.plat.id {
		return PlatformInfo{}, Errf("clGetPlatformInfo", InvalidPlatform, "unknown platform %#x", uint64(p))
	}
	return r.plat.info, nil
}

// GetDeviceIDs implements clGetDeviceIDs.
func (r *Runtime) GetDeviceIDs(p PlatformID, mask DeviceTypeMask) ([]DeviceID, error) {
	if p != r.plat.id {
		return nil, Errf("clGetDeviceIDs", InvalidPlatform, "unknown platform %#x", uint64(p))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	selects := func(t hw.DeviceType) bool {
		if mask == DeviceTypeAll {
			return true
		}
		switch t {
		case hw.DeviceCPU:
			return mask&DeviceTypeCPU != 0
		case hw.DeviceGPU:
			return mask&(DeviceTypeGPU|DeviceTypeDefault) != 0
		default:
			return false
		}
	}
	var out []DeviceID
	for _, id := range r.plat.devices {
		if selects(r.devices[id].model.Type) {
			out = append(out, id)
		}
	}
	if len(out) == 0 {
		return nil, Errf("clGetDeviceIDs", DeviceNotFound, "no device matches mask %#x", uint32(mask))
	}
	return out, nil
}

// GetDeviceInfo implements clGetDeviceInfo.
func (r *Runtime) GetDeviceInfo(id DeviceID) (DeviceInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.devices[id]
	if !ok {
		return DeviceInfo{}, Errf("clGetDeviceInfo", InvalidDevice, "unknown device %#x", uint64(id))
	}
	m := d.model
	return DeviceInfo{
		Name:             m.Name,
		Vendor:           m.Vendor,
		Type:             m.Type,
		GlobalMemSize:    m.GlobalMemory,
		MaxWorkGroupSize: m.MaxWorkGroupSize,
		MaxWorkItemSizes: m.MaxWorkItemSizes,
		ComputeUnits:     m.ComputeUnits,
		MaxAllocSize:     m.GlobalMemory / 4,
	}, nil
}

// ---- contexts ----

// CreateContext implements clCreateContext.
func (r *Runtime) CreateContext(devices []DeviceID) (Context, error) {
	if len(devices) == 0 {
		return 0, Errf("clCreateContext", InvalidValue, "no devices")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	limit := int64(0)
	for _, id := range devices {
		d, ok := r.devices[id]
		if !ok {
			return 0, Errf("clCreateContext", InvalidDevice, "unknown device %#x", uint64(id))
		}
		if limit == 0 || d.model.GlobalMemory < limit {
			limit = d.model.GlobalMemory
		}
	}
	c := &context{
		id:       Context(r.newHandle(tagContext)),
		refs:     1,
		devices:  append([]DeviceID(nil), devices...),
		memLimit: limit,
	}
	r.contexts[c.id] = c
	return c.id, nil
}

// RetainContext implements clRetainContext.
func (r *Runtime) RetainContext(id Context) error {
	return retain(r, r.contexts, "clRetainContext", id)
}

// ReleaseContext implements clReleaseContext.
func (r *Runtime) ReleaseContext(id Context) error {
	return release(r, r.contexts, "clReleaseContext", id)
}

// ---- command queues ----

// CreateCommandQueue implements clCreateCommandQueue.
func (r *Runtime) CreateCommandQueue(c Context, d DeviceID, props QueueProps) (CommandQueue, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ctx, ok := r.contexts[c]
	if !ok {
		return 0, Errf("clCreateCommandQueue", InvalidContext, "unknown context %#x", uint64(c))
	}
	found := false
	for _, id := range ctx.devices {
		if id == d {
			found = true
			break
		}
	}
	if !found {
		return 0, Errf("clCreateCommandQueue", InvalidDevice, "device %#x not in context", uint64(d))
	}
	q := &queueObj{
		id:    CommandQueue(r.newHandle(tagQueue)),
		refs:  1,
		ctx:   c,
		dev:   d,
		props: props,
		tail:  r.clock.Now(),
	}
	r.queues[q.id] = q
	return q.id, nil
}

// RetainCommandQueue implements clRetainCommandQueue.
func (r *Runtime) RetainCommandQueue(id CommandQueue) error {
	return retain(r, r.queues, "clRetainCommandQueue", id)
}

// ReleaseCommandQueue implements clReleaseCommandQueue.
func (r *Runtime) ReleaseCommandQueue(id CommandQueue) error {
	return release(r, r.queues, "clReleaseCommandQueue", id)
}

// ---- buffers ----

// CreateBuffer implements clCreateBuffer.
func (r *Runtime) CreateBuffer(c Context, flags MemFlags, size int64, hostData []byte) (Mem, error) {
	if size <= 0 {
		return 0, Errf("clCreateBuffer", InvalidBufferSize, "size %d", size)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ctx, ok := r.contexts[c]
	if !ok {
		return 0, Errf("clCreateBuffer", InvalidContext, "unknown context %#x", uint64(c))
	}
	if ctx.allocated+size > ctx.memLimit {
		return 0, Errf("clCreateBuffer", MemObjectAllocFailure,
			"allocation of %d bytes exceeds device memory (%d of %d in use)",
			size, ctx.allocated, ctx.memLimit)
	}
	useHost := flags&MemUseHostPtr != 0
	if (useHost || flags&MemCopyHostPtr != 0) && hostData == nil {
		return 0, Errf("clCreateBuffer", InvalidValue, "host pointer flags set but no host data")
	}
	if (useHost || flags&MemCopyHostPtr != 0) && int64(len(hostData)) < size {
		return 0, Errf("clCreateBuffer", InvalidValue, "host data smaller than buffer size")
	}
	b := &buffer{
		id:         Mem(r.newHandle(tagMem)),
		refs:       1,
		ctx:        c,
		flags:      flags,
		size:       size,
		data:       make([]byte, size),
		useHostPtr: useHost,
	}
	if flags&MemCopyHostPtr != 0 {
		copy(b.data, hostData[:size])
	}
	if useHost {
		b.hostPtr = hostData[:size]
		copy(b.data, hostData[:size])
	}
	ctx.allocated += size
	r.buffers[b.id] = b
	return b.id, nil
}

// RetainMemObject implements clRetainMemObject.
func (r *Runtime) RetainMemObject(id Mem) error { return retain(r, r.buffers, "clRetainMemObject", id) }

// ReleaseMemObject implements clReleaseMemObject.
func (r *Runtime) ReleaseMemObject(id Mem) error {
	return release(r, r.buffers, "clReleaseMemObject", id)
}

// ---- samplers ----

// CreateSampler implements clCreateSampler.
func (r *Runtime) CreateSampler(c Context, normalized bool, amode AddressingMode, fmode FilterMode) (Sampler, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.contexts[c]; !ok {
		return 0, Errf("clCreateSampler", InvalidContext, "unknown context %#x", uint64(c))
	}
	s := &samplerObj{
		id:         Sampler(r.newHandle(tagSampler)),
		refs:       1,
		ctx:        c,
		normalized: normalized,
		amode:      amode,
		fmode:      fmode,
	}
	r.samplers[s.id] = s
	return s.id, nil
}

// RetainSampler implements clRetainSampler.
func (r *Runtime) RetainSampler(id Sampler) error {
	return retain(r, r.samplers, "clRetainSampler", id)
}

// ReleaseSampler implements clReleaseSampler.
func (r *Runtime) ReleaseSampler(id Sampler) error {
	return release(r, r.samplers, "clReleaseSampler", id)
}

// ---- programs ----

// CreateProgramWithSource implements clCreateProgramWithSource.
func (r *Runtime) CreateProgramWithSource(c Context, source string) (Program, error) {
	if source == "" {
		return 0, Errf("clCreateProgramWithSource", InvalidValue, "empty source")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.contexts[c]; !ok {
		return 0, Errf("clCreateProgramWithSource", InvalidContext, "unknown context %#x", uint64(c))
	}
	p := &programObj{
		id:     Program(r.newHandle(tagProgram)),
		refs:   1,
		ctx:    c,
		source: source,
	}
	r.programs[p.id] = p
	return p.id, nil
}

// programBinary is the serialised "device binary" format; it embeds the
// producing vendor so that a binary built for one implementation is
// rejected by another — the incompatibility that makes the paper deprecate
// clCreateProgramWithBinary under CheCL (§III-D).
type programBinary struct {
	Vendor string
	Source string
}

// CreateProgramWithBinary implements clCreateProgramWithBinary.
func (r *Runtime) CreateProgramWithBinary(c Context, d DeviceID, binary []byte) (Program, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.contexts[c]; !ok {
		return 0, Errf("clCreateProgramWithBinary", InvalidContext, "unknown context %#x", uint64(c))
	}
	if _, ok := r.devices[d]; !ok {
		return 0, Errf("clCreateProgramWithBinary", InvalidDevice, "unknown device %#x", uint64(d))
	}
	var pb programBinary
	if err := gob.NewDecoder(bytes.NewReader(binary)).Decode(&pb); err != nil {
		return 0, Errf("clCreateProgramWithBinary", InvalidBinary, "undecodable binary: %v", err)
	}
	if pb.Vendor != r.vendor.PlatformVendor {
		return 0, Errf("clCreateProgramWithBinary", InvalidBinary,
			"binary built by %q cannot load on %q", pb.Vendor, r.vendor.PlatformVendor)
	}
	p := &programObj{
		id:         Program(r.newHandle(tagProgram)),
		refs:       1,
		ctx:        c,
		source:     pb.Source,
		fromBinary: true,
	}
	r.programs[p.id] = p
	return p.id, nil
}

// BuildProgram implements clBuildProgram. The build charges the vendor's
// modelled compile time to the clock; AMD's compiler model is markedly
// slower, reproducing the Fig. 7 recompilation asymmetry.
func (r *Runtime) BuildProgram(id Program, options string) error {
	r.mu.Lock()
	p, ok := r.programs[id]
	if !ok {
		r.mu.Unlock()
		return Errf("clBuildProgram", InvalidProgram, "unknown program %#x", uint64(id))
	}
	source := p.source
	fromBinary := p.fromBinary
	r.mu.Unlock()

	compiled, cerr := clc.Compile(source)
	nKernels := 0
	if cerr == nil {
		nKernels = len(compiled.Sigs)
	}
	// Loading a prebuilt binary skips the front end; charge only the base.
	var buildTime vtime.Duration
	if fromBinary {
		buildTime = r.vendor.Compiler.Base / 4
	} else {
		buildTime = r.vendor.Compiler.BuildTime(len(source), nKernels)
	}
	r.clock.Advance(buildTime)

	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok = r.programs[id]
	if !ok {
		return Errf("clBuildProgram", InvalidProgram, "program released during build")
	}
	p.options = options
	if cerr != nil {
		p.built = false
		p.buildLog = cerr.Error()
		return Errf("clBuildProgram", BuildProgramFailure, "%v", cerr)
	}
	p.built = true
	p.buildLog = "build succeeded"
	p.compiled = compiled
	return nil
}

// GetProgramBuildInfo implements clGetProgramBuildInfo.
func (r *Runtime) GetProgramBuildInfo(id Program, d DeviceID) (BuildInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.programs[id]
	if !ok {
		return BuildInfo{}, Errf("clGetProgramBuildInfo", InvalidProgram, "unknown program %#x", uint64(id))
	}
	return BuildInfo{Success: p.built, Log: p.buildLog}, nil
}

// GetProgramBinary implements clGetProgramInfo(CL_PROGRAM_BINARIES).
func (r *Runtime) GetProgramBinary(id Program) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.programs[id]
	if !ok {
		return nil, Errf("clGetProgramInfo", InvalidProgram, "unknown program %#x", uint64(id))
	}
	if !p.built {
		return nil, Errf("clGetProgramInfo", InvalidProgramExec, "program not built")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(programBinary{Vendor: r.vendor.PlatformVendor, Source: p.source}); err != nil {
		return nil, Errf("clGetProgramInfo", OutOfHostMemory, "%v", err)
	}
	return buf.Bytes(), nil
}

// RetainProgram implements clRetainProgram.
func (r *Runtime) RetainProgram(id Program) error {
	return retain(r, r.programs, "clRetainProgram", id)
}

// ReleaseProgram implements clReleaseProgram.
func (r *Runtime) ReleaseProgram(id Program) error {
	return release(r, r.programs, "clReleaseProgram", id)
}

// ---- kernels ----

// CreateKernel implements clCreateKernel.
func (r *Runtime) CreateKernel(pid Program, name string) (Kernel, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.programs[pid]
	if !ok {
		return 0, Errf("clCreateKernel", InvalidProgram, "unknown program %#x", uint64(pid))
	}
	if !p.built || p.compiled == nil {
		return 0, Errf("clCreateKernel", InvalidProgramExec, "program not built")
	}
	sig, ok := clc.Lookup(p.compiled.Sigs, name)
	if !ok {
		return 0, Errf("clCreateKernel", InvalidKernelName, "no kernel %q in program", name)
	}
	k := &kernelObj{
		id:   Kernel(r.newHandle(tagKernel)),
		refs: 1,
		prog: pid,
		name: name,
		sig:  sig,
		args: make([]argSlot, len(sig.Params)),
	}
	r.kernels[k.id] = k
	return k.id, nil
}

// RetainKernel implements clRetainKernel.
func (r *Runtime) RetainKernel(id Kernel) error { return retain(r, r.kernels, "clRetainKernel", id) }

// ReleaseKernel implements clReleaseKernel.
func (r *Runtime) ReleaseKernel(id Kernel) error { return release(r, r.kernels, "clReleaseKernel", id) }

// SetKernelArg implements clSetKernelArg. value carries the raw argument
// bytes; for __local parameters value must be nil and size is the per-
// work-group allocation.
func (r *Runtime) SetKernelArg(id Kernel, index int, size int64, value []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	k, ok := r.kernels[id]
	if !ok {
		return Errf("clSetKernelArg", InvalidKernel, "unknown kernel %#x", uint64(id))
	}
	if index < 0 || index >= len(k.args) {
		return Errf("clSetKernelArg", InvalidArgIndex, "index %d of %d", index, len(k.args))
	}
	kind := k.sig.Params[index].Kind
	if kind == clc.ParamLocalSize {
		if value != nil {
			return Errf("clSetKernelArg", InvalidArgValue, "__local argument must have a NULL value")
		}
		if size <= 0 {
			return Errf("clSetKernelArg", InvalidArgSize, "__local argument needs a positive size")
		}
		k.args[index] = argSlot{set: true, size: size}
		return nil
	}
	if value == nil {
		return Errf("clSetKernelArg", InvalidArgValue, "NULL value for non-local argument %d", index)
	}
	if int64(len(value)) != size {
		return Errf("clSetKernelArg", InvalidArgSize, "size %d does not match value length %d", size, len(value))
	}
	k.args[index] = argSlot{set: true, size: size, bytes: append([]byte(nil), value...)}
	return nil
}

var _ = fmt.Sprintf // keep fmt imported if diagnostics change
