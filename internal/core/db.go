// Package core implements CheCL itself — the paper's contribution. It is a
// transparent interposition layer that implements the same ocl.API surface
// an application would use against a vendor runtime, but:
//
//   - forwards every call to an API proxy process (internal/proxy), so the
//     application process never acquires device mappings and stays
//     checkpointable by a conventional CPR system (internal/cpr);
//   - hands the application *CheCL handles* instead of real OpenCL handles
//     and records, per object, everything needed to recreate it (§III-B);
//   - parses every kernel's OpenCL C parameter list so clSetKernelArg
//     arguments carrying handles are recognised and translated;
//   - checkpoints in four phases (sync, preprocess, write, postprocess)
//     and restores objects in dependency order with dummy events minted by
//     clEnqueueMarker (§III-C);
//   - migrates processes across nodes, vendors and device kinds, and
//     predicts the migration cost with Tm = α·M + Tr + β (§IV-C).
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"checl/internal/clc"
	"checl/internal/ocl"
	"checl/internal/vtime"
)

// Handle is a CheCL handle: the opaque value the application sees instead
// of a real OpenCL handle. Its value is stable across checkpoint/restart —
// the real handle behind it is silently rebound.
type Handle uint64

// handle class tags (low nibble of every CheCL handle).
const (
	hPlatform = iota + 1
	hDevice
	hContext
	hQueue
	hMem
	hSampler
	hProgram
	hKernel
	hEvent
)

var classNames = map[int]string{
	hPlatform: "platform",
	hDevice:   "device",
	hContext:  "context",
	hQueue:    "cmd_que",
	hMem:      "mem",
	hSampler:  "sampler",
	hProgram:  "prog",
	hKernel:   "kernel",
	hEvent:    "event",
}

// RestoreOrder is the dependency-ordered class list of §III-C: objects are
// restored in this order and deleted in reverse.
var RestoreOrder = []string{
	"platform", "device", "context", "cmd_que", "mem", "sampler", "prog", "kernel", "event",
}

func (h Handle) class() int { return int(h & 0xF) }

// Class names the object class of the handle ("mem", "prog", ...).
func (h Handle) Class() string { return classNames[h.class()] }

// CheCL-handle values live in a distinctive range so that accidental
// confusion with real handles is detectable in tests and so the
// address-based heuristic for binary programs (§III-D) has something to
// match against.
const handleBase = 0x00c4ec1d0000

// database holds every CheCL object, keyed by CheCL handle. It is the
// "database managed to hold the pointers to all CheCL objects" of §III-C.
// All access is serialised by the owning CheCL's mutex.
type database struct {
	seq uint64

	platforms map[Handle]*platformRec
	devices   map[Handle]*deviceRec
	contexts  map[Handle]*contextRec
	queues    map[Handle]*queueRec
	mems      map[Handle]*memRec
	samplers  map[Handle]*samplerRec
	programs  map[Handle]*programRec
	kernels   map[Handle]*kernelRec
	events    map[Handle]*eventRec

	// Immutable-info caches: answers to queries that cannot change while
	// the current real-handle binding lives. They are transient by
	// construction (unexported, so never serialised into a checkpoint)
	// and invalidateCaches drops them whenever the binding changes — a
	// restart, a failover rebind, a destructive checkpoint, a processor
	// re-selection — so a stale answer from dead hardware is never served.
	platformList []ocl.PlatformID
	deviceLists  map[deviceListKey][]ocl.DeviceID
	buildInfo    map[buildInfoKey]ocl.BuildInfo
	wgInfo       map[wgInfoKey]ocl.KernelWorkGroupInfo
	cacheGen     uint64 // bumped by every invalidation
	cacheHits    uint64 // round trips avoided
}

type deviceListKey struct {
	platform Handle
	mask     ocl.DeviceTypeMask
}

type buildInfoKey struct{ prog, dev Handle }

type wgInfoKey struct{ kernel, dev Handle }

// invalidateCaches drops every immutable-info cache. Called whenever
// real handles are rebound: the cached answers described the old
// binding's hardware.
func (db *database) invalidateCaches() {
	db.platformList = nil
	db.deviceLists = nil
	db.buildInfo = nil
	db.wgInfo = nil
	db.cacheGen++
}

func newDatabase() *database {
	return &database{
		platforms: map[Handle]*platformRec{},
		devices:   map[Handle]*deviceRec{},
		contexts:  map[Handle]*contextRec{},
		queues:    map[Handle]*queueRec{},
		mems:      map[Handle]*memRec{},
		samplers:  map[Handle]*samplerRec{},
		programs:  map[Handle]*programRec{},
		kernels:   map[Handle]*kernelRec{},
		events:    map[Handle]*eventRec{},
	}
}

func (db *database) newHandle(tag int) Handle {
	db.seq++
	return Handle(handleBase | db.seq<<4 | uint64(tag))
}

// Record types: one per OpenCL object class. Every record keeps the
// creation arguments in *CheCL handle space* (stable across restart) plus
// the current real handle (rebound on restart). Exported fields are
// serialised into the checkpoint image.

type platformRec struct {
	H    Handle
	Seq  uint64
	real ocl.PlatformID
	Info ocl.PlatformInfo
}

type deviceRec struct {
	H        Handle
	Seq      uint64
	Platform Handle
	real     ocl.DeviceID
	Info     ocl.DeviceInfo
}

type contextRec struct {
	H       Handle
	Seq     uint64
	Devices []Handle
	Refs    int
	real    ocl.Context
}

type queueRec struct {
	H      Handle
	Seq    uint64
	Ctx    Handle
	Device Handle
	Props  ocl.QueueProps
	Refs   int
	real   ocl.CommandQueue
}

type memRec struct {
	H          Handle
	Seq        uint64
	Ctx        Handle
	Flags      ocl.MemFlags
	Size       int64
	Refs       int
	Data       []byte // staged device contents (preprocess phase)
	Dirty      bool   // may differ from Data (incremental mode)
	UseHostPtr bool
	Released   bool // refcount hit zero but a live kernel still binds it
	real       ocl.Mem
	hostPtr    []byte // app-side region for CL_MEM_USE_HOST_PTR
}

type samplerRec struct {
	H          Handle
	Seq        uint64
	Ctx        Handle
	Normalized bool
	AMode      ocl.AddressingMode
	FMode      ocl.FilterMode
	Refs       int
	real       ocl.Sampler
}

type programRec struct {
	H          Handle
	Seq        uint64
	Ctx        Handle
	Source     string
	Binary     []byte // as passed to clCreateProgramWithBinary (deprecated path)
	FromBinary bool
	Built      bool
	Options    string
	Sigs       []clc.KernelSig
	WriteSets  writeSets // kernel -> indices of params it may write
	Refs       int
	BuildCost  vtime.Duration // measured build time (input to Tr prediction)
	real       ocl.Program
}

// writeSets maps kernel name -> indices of params the kernel may write.
// Plain gob map encoding is iteration-ordered (random), which would make
// two encodings of an unchanged database differ and defeat the checkpoint
// store's content-defined dedup — so it gob-encodes as a key-sorted list.
type writeSets map[string][]int

type writeSetEntry struct {
	Name string
	Idx  []int
}

// GobEncode implements gob.GobEncoder deterministically.
func (w writeSets) GobEncode() ([]byte, error) {
	entries := make([]writeSetEntry, 0, len(w))
	for name, idx := range w {
		entries = append(entries, writeSetEntry{Name: name, Idx: idx})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entries); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (w *writeSets) GobDecode(data []byte) error {
	var entries []writeSetEntry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&entries); err != nil {
		return err
	}
	*w = writeSets{}
	for _, e := range entries {
		(*w)[e.Name] = e.Idx
	}
	return nil
}

type argRec struct {
	Set   bool
	Size  int64
	Raw   []byte // bytes exactly as the application passed them (CheCL space)
	Local bool
}

type kernelRec struct {
	H    Handle
	Seq  uint64
	Prog Handle
	Name string
	Args []argRec
	Refs int
	real ocl.Kernel

	launchKind string // "ndrange:"+Name, built on the first launch
}

type eventRec struct {
	H     Handle
	Seq   uint64
	Queue Handle
	Kind  string
	Refs  int
	Dummy bool // re-minted via clEnqueueMarker after restart
	real  ocl.Event
	qidx  int // 1 + position in the submission queue while queued there, else 0
}

// lookups with class-checked errors.

func (db *database) platform(h Handle) (*platformRec, error) {
	if r, ok := db.platforms[h]; ok {
		return r, nil
	}
	return nil, ocl.Errf("CheCL", ocl.InvalidPlatform, "%#x is not a live CheCL platform handle", uint64(h))
}

func (db *database) device(h Handle) (*deviceRec, error) {
	if r, ok := db.devices[h]; ok {
		return r, nil
	}
	return nil, ocl.Errf("CheCL", ocl.InvalidDevice, "%#x is not a live CheCL device handle", uint64(h))
}

func (db *database) context(h Handle) (*contextRec, error) {
	if r, ok := db.contexts[h]; ok {
		return r, nil
	}
	return nil, ocl.Errf("CheCL", ocl.InvalidContext, "%#x is not a live CheCL context handle", uint64(h))
}

func (db *database) queue(h Handle) (*queueRec, error) {
	if r, ok := db.queues[h]; ok {
		return r, nil
	}
	return nil, ocl.Errf("CheCL", ocl.InvalidCommandQueue, "%#x is not a live CheCL queue handle", uint64(h))
}

func (db *database) mem(h Handle) (*memRec, error) {
	if r, ok := db.mems[h]; ok && !r.Released {
		return r, nil
	}
	return nil, ocl.Errf("CheCL", ocl.InvalidMemObject, "%#x is not a live CheCL mem handle", uint64(h))
}

// memAny is mem including dead (Released) records: the restore-time
// clSetKernelArg replay must still resolve a handle a kernel captured
// before the application dropped its last reference.
func (db *database) memAny(h Handle) (*memRec, error) {
	if r, ok := db.mems[h]; ok {
		return r, nil
	}
	return nil, ocl.Errf("CheCL", ocl.InvalidMemObject, "%#x is not a live CheCL mem handle", uint64(h))
}

func (db *database) sampler(h Handle) (*samplerRec, error) {
	if r, ok := db.samplers[h]; ok {
		return r, nil
	}
	return nil, ocl.Errf("CheCL", ocl.InvalidSampler, "%#x is not a live CheCL sampler handle", uint64(h))
}

func (db *database) program(h Handle) (*programRec, error) {
	if r, ok := db.programs[h]; ok {
		return r, nil
	}
	return nil, ocl.Errf("CheCL", ocl.InvalidProgram, "%#x is not a live CheCL program handle", uint64(h))
}

func (db *database) kernel(h Handle) (*kernelRec, error) {
	if r, ok := db.kernels[h]; ok {
		return r, nil
	}
	return nil, ocl.Errf("CheCL", ocl.InvalidKernel, "%#x is not a live CheCL kernel handle", uint64(h))
}

func (db *database) event(h Handle) (*eventRec, error) {
	if r, ok := db.events[h]; ok {
		return r, nil
	}
	return nil, ocl.Errf("CheCL", ocl.InvalidEvent, "%#x is not a live CheCL event handle", uint64(h))
}

// ordered iteration helpers (creation order = Seq order), so restore
// replays creations deterministically and parents exist before children.

func orderedVals[R any](m map[Handle]*R, seq func(*R) uint64) []*R {
	out := make([]*R, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return seq(out[i]) < seq(out[j]) })
	return out
}

func (db *database) orderedContexts() []*contextRec {
	return orderedVals(db.contexts, func(r *contextRec) uint64 { return r.Seq })
}
func (db *database) orderedQueues() []*queueRec {
	return orderedVals(db.queues, func(r *queueRec) uint64 { return r.Seq })
}
func (db *database) orderedMems() []*memRec {
	return orderedVals(db.mems, func(r *memRec) uint64 { return r.Seq })
}
func (db *database) orderedSamplers() []*samplerRec {
	return orderedVals(db.samplers, func(r *samplerRec) uint64 { return r.Seq })
}
func (db *database) orderedPrograms() []*programRec {
	return orderedVals(db.programs, func(r *programRec) uint64 { return r.Seq })
}
func (db *database) orderedKernels() []*kernelRec {
	return orderedVals(db.kernels, func(r *kernelRec) uint64 { return r.Seq })
}
func (db *database) orderedEvents() []*eventRec {
	return orderedVals(db.events, func(r *eventRec) uint64 { return r.Seq })
}

// Counts reports live objects per class (diagnostics and tests).
func (db *database) Counts() map[string]int {
	// Dead (Released) mem records stay in the map only so kernel-arg
	// replay can resolve them after a restore; the application-visible
	// count excludes them.
	liveMems := 0
	for _, m := range db.mems {
		if !m.Released {
			liveMems++
		}
	}
	return map[string]int{
		"platform": len(db.platforms),
		"device":   len(db.devices),
		"context":  len(db.contexts),
		"cmd_que":  len(db.queues),
		"mem":      liveMems,
		"sampler":  len(db.samplers),
		"prog":     len(db.programs),
		"kernel":   len(db.kernels),
		"event":    len(db.events),
	}
}

// derefAll copies the records behind recs, in order (nil for none).
func derefAll[R any](recs []*R) []R {
	var out []R
	for _, r := range recs {
		out = append(out, *r)
	}
	return out
}

// adopt files a private copy of every decoded record under its handle.
func adopt[R any](m map[Handle]*R, recs []R, h func(*R) Handle) {
	for i := range recs {
		r := recs[i]
		m[h(&r)] = &r
	}
}

// snapshot is the serialisable form of the database stored in the
// application process's "checl.db" memory region at checkpoint time.
type snapshot struct {
	Seq       uint64
	Platforms []platformRec
	Devices   []deviceRec
	Contexts  []contextRec
	Queues    []queueRec
	Mems      []memRec
	Samplers  []samplerRec
	Programs  []programRec
	Kernels   []kernelRec
	Events    []eventRec
}

// encode serialises the database with every mem record's staged Data
// left out: the dump path stores each buffer's bytes as its own process
// memory region (one store segment per buffer), so the contents must not
// also ride inside the database blob — that would defeat the per-buffer
// clean-segment reuse and double the image size.
func (db *database) encode() ([]byte, error) {
	var s snapshot
	s.Seq = db.seq
	s.Platforms = derefAll(orderedVals(db.platforms, func(r *platformRec) uint64 { return r.Seq }))
	s.Devices = derefAll(orderedVals(db.devices, func(r *deviceRec) uint64 { return r.Seq }))
	s.Contexts = derefAll(db.orderedContexts())
	s.Queues = derefAll(db.orderedQueues())
	s.Mems = derefAll(db.orderedMems())
	for i := range s.Mems {
		s.Mems[i].Data = nil
	}
	s.Samplers = derefAll(db.orderedSamplers())
	s.Programs = derefAll(db.orderedPrograms())
	s.Kernels = derefAll(db.orderedKernels())
	s.Events = derefAll(db.orderedEvents())
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("checl: encoding object database: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeDatabase reconstructs a database (real handles unbound) from a
// serialised snapshot.
func decodeDatabase(data []byte) (*database, error) {
	var s snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("checl: decoding object database: %w", err)
	}
	db := newDatabase()
	db.seq = s.Seq
	adopt(db.platforms, s.Platforms, func(r *platformRec) Handle { return r.H })
	adopt(db.devices, s.Devices, func(r *deviceRec) Handle { return r.H })
	adopt(db.contexts, s.Contexts, func(r *contextRec) Handle { return r.H })
	adopt(db.queues, s.Queues, func(r *queueRec) Handle { return r.H })
	adopt(db.mems, s.Mems, func(r *memRec) Handle { return r.H })
	adopt(db.samplers, s.Samplers, func(r *samplerRec) Handle { return r.H })
	adopt(db.programs, s.Programs, func(r *programRec) Handle { return r.H })
	adopt(db.kernels, s.Kernels, func(r *kernelRec) Handle { return r.H })
	adopt(db.events, s.Events, func(r *eventRec) Handle { return r.H })
	return db, nil
}

// liveObjects totals live objects across every class.
func (db *database) liveObjects() int {
	n := 0
	for _, v := range db.Counts() {
		n += v
	}
	return n
}
