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
	"checl/internal/proxy"
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

// class is what the generic record code knows of one object class: its
// name in RestoreOrder, how a failed lookup reports a handle, and, for a
// class whose references the application counts, its clRetain*/clRelease*
// entry points on the proxy.
type class struct {
	name, what          string
	status              ocl.Status
	retainOp, releaseOp string
	retain, release     func(*proxy.Client, uint64) error
}

// classes is indexed by class tag, the low nibble of a handle.
var classes = [16]class{
	hPlatform: {name: "platform", what: "platform", status: ocl.InvalidPlatform},
	hDevice:   {name: "device", what: "device", status: ocl.InvalidDevice},
	hContext:  counted("context", "context", ocl.InvalidContext, "Context", (*proxy.Client).RetainContext, (*proxy.Client).ReleaseContext),
	hQueue:    counted("cmd_que", "queue", ocl.InvalidCommandQueue, "CommandQueue", (*proxy.Client).RetainCommandQueue, (*proxy.Client).ReleaseCommandQueue),
	hMem:      counted("mem", "mem", ocl.InvalidMemObject, "MemObject", (*proxy.Client).RetainMemObject, (*proxy.Client).ReleaseMemObject),
	hSampler:  counted("sampler", "sampler", ocl.InvalidSampler, "Sampler", (*proxy.Client).RetainSampler, (*proxy.Client).ReleaseSampler),
	hProgram:  counted("prog", "program", ocl.InvalidProgram, "Program", (*proxy.Client).RetainProgram, (*proxy.Client).ReleaseProgram),
	hKernel:   counted("kernel", "kernel", ocl.InvalidKernel, "Kernel", (*proxy.Client).RetainKernel, (*proxy.Client).ReleaseKernel),
	hEvent:    counted("event", "event", ocl.InvalidEvent, "Event", (*proxy.Client).RetainEvent, (*proxy.Client).ReleaseEvent),
}

// counted is the class entry of a reference-counted class whose entry
// points are clRetain<api> and clRelease<api>.
func counted[H ~uint64](name, what string, status ocl.Status, api string, retain, release func(*proxy.Client, H) error) class {
	return class{
		name: name, what: what, status: status,
		retainOp: "clRetain" + api, releaseOp: "clRelease" + api,
		retain:  func(p *proxy.Client, h uint64) error { return retain(p, H(h)) },
		release: func(p *proxy.Client, h uint64) error { return release(p, H(h)) },
	}
}

// RestoreOrder is the dependency-ordered class list of §III-C: objects are
// restored in this order and deleted in reverse.
var RestoreOrder = []string{
	"platform", "device", "context", "cmd_que", "mem", "sampler", "prog", "kernel", "event",
}

// Class names the object class of the handle ("mem", "prog", ...).
func (h Handle) Class() string { return classes[h&0xF].name }

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
	clear(db.deviceLists)
	clear(db.buildInfo)
	clear(db.wgInfo)
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

		deviceLists: map[deviceListKey][]ocl.DeviceID{},
		buildInfo:   map[buildInfoKey]ocl.BuildInfo{},
		wgInfo:      map[wgInfoKey]ocl.KernelWorkGroupInfo{},
	}
}

func (db *database) newHandle(tag int) Handle {
	db.seq++
	return Handle(handleBase + db.seq<<4 | uint64(tag))
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

// object is a record as the generic code sees it: head is the part every
// class has.
type object interface{ head() head }

// record is a pointer to a record type, where the generic code needs the
// type it points to.
type record[R any] interface {
	*R
	object
}

// head is a record's class tag and, by reference, its handle, creation
// order, reference count (nil for platforms and devices, which have none)
// and current real handle.
type head struct {
	kind int
	h    *Handle
	seq  *uint64
	refs *int
	real *uint64
}

func (r *platformRec) head() head { return head{hPlatform, &r.H, &r.Seq, nil, (*uint64)(&r.real)} }
func (r *deviceRec) head() head   { return head{hDevice, &r.H, &r.Seq, nil, (*uint64)(&r.real)} }
func (r *contextRec) head() head  { return head{hContext, &r.H, &r.Seq, &r.Refs, (*uint64)(&r.real)} }
func (r *queueRec) head() head    { return head{hQueue, &r.H, &r.Seq, &r.Refs, (*uint64)(&r.real)} }
func (r *memRec) head() head      { return head{hMem, &r.H, &r.Seq, &r.Refs, (*uint64)(&r.real)} }
func (r *samplerRec) head() head  { return head{hSampler, &r.H, &r.Seq, &r.Refs, (*uint64)(&r.real)} }
func (r *programRec) head() head  { return head{hProgram, &r.H, &r.Seq, &r.Refs, (*uint64)(&r.real)} }
func (r *kernelRec) head() head   { return head{hKernel, &r.H, &r.Seq, &r.Refs, (*uint64)(&r.real)} }
func (r *eventRec) head() head    { return head{hEvent, &r.H, &r.Seq, &r.Refs, (*uint64)(&r.real)} }

// get returns the live record of h in its class's map m, or the class's
// invalid-handle error. A dead mem record (Released) is not live.
func get[R any, P record[R]](m map[Handle]P, h Handle) (P, error) {
	r, ok := m[h]
	if mem, isMem := any(r).(*memRec); ok && !(isMem && mem.Released) {
		return r, nil
	}
	k := &classes[P(new(R)).head().kind]
	return nil, ocl.Errf("CheCL", k.status, "%#x is not a live CheCL %s handle", uint64(h), k.what)
}

// ordered lists the records of m in creation (Seq) order, so that a rebind
// makes parents before children and every walk is deterministic.
func ordered[P object](m map[Handle]P) []P {
	out := make([]P, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return *out[i].head().seq < *out[j].head().seq })
	return out
}

// file stamps r with the next handle of its class, files it in m and
// returns the handle.
func file[P object](db *database, m map[Handle]P, r P) Handle {
	hd := r.head()
	*hd.h = db.newHandle(hd.kind)
	*hd.seq = db.seq
	m[*hd.h] = r
	return *hd.h
}

// byReal returns the record of m bound to the real handle real, if any.
func byReal[R any, P record[R]](m map[Handle]P, real uint64) (P, bool) {
	for _, r := range m {
		if *r.head().real == real {
			return r, true
		}
	}
	return nil, false
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

// adopt files every decoded record under its handle.
func adopt[R any, P record[R]](m map[Handle]P, recs []R) {
	for i := range recs {
		r := P(&recs[i])
		m[*r.head().h] = r
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
	s.Platforms = derefAll(ordered(db.platforms))
	s.Devices = derefAll(ordered(db.devices))
	s.Contexts = derefAll(ordered(db.contexts))
	s.Queues = derefAll(ordered(db.queues))
	s.Mems = derefAll(ordered(db.mems))
	for i := range s.Mems {
		s.Mems[i].Data = nil
	}
	s.Samplers = derefAll(ordered(db.samplers))
	s.Programs = derefAll(ordered(db.programs))
	s.Kernels = derefAll(ordered(db.kernels))
	s.Events = derefAll(ordered(db.events))
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
	adopt(db.platforms, s.Platforms)
	adopt(db.devices, s.Devices)
	adopt(db.contexts, s.Contexts)
	adopt(db.queues, s.Queues)
	adopt(db.mems, s.Mems)
	adopt(db.samplers, s.Samplers)
	adopt(db.programs, s.Programs)
	adopt(db.kernels, s.Kernels)
	adopt(db.events, s.Events)
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
