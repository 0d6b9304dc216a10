package proc

// Disk fault injection for the simulated filesystem. A FaultInjector
// attaches to an FS and, driven by a deterministic seeded plan, makes
// individual operations fail the way real disks fail: torn writes (only a
// prefix persists), lost writes (acknowledged but never persisted),
// at-rest bit rot surfaced by a read, and transient EIO / ENOSPC errors.
// It runs on the same fault.Schedule as ipc.FaultInjector — same plan
// shape, same splitmix64 kind sequence — so store tests can run the same
// kill-every-K soak style the transport tests established.

import (
	"fmt"

	"checl/internal/fault"
)

// DiskFaultKind selects how an injected disk fault manifests.
type DiskFaultKind int

const (
	// DiskFaultNone leaves the operation alone.
	DiskFaultNone DiskFaultKind = iota
	// DiskFaultTornWrite persists only a prefix of the written data and
	// fails the write with *ErrIO — the classic torn page.
	DiskFaultTornWrite
	// DiskFaultLostWrite acknowledges the write as successful while
	// persisting nothing (a lost acknowledged write: the drive cached it
	// and lost power). The previous file content, if any, survives.
	DiskFaultLostWrite
	// DiskFaultBitRot flips one bit of the stored copy of the file being
	// read and returns the corrupted data. The flip persists: later reads
	// of the same file see the same rot until something rewrites it.
	DiskFaultBitRot
	// DiskFaultEIO fails the operation with *ErrIO without touching any
	// stored data — a transient I/O error a retry can get past.
	DiskFaultEIO
	// DiskFaultNoSpace fails a write with *ErrNoSpace without touching
	// stored data. Unlike a transient EIO, callers should treat it as
	// persistent and abort rather than retry.
	DiskFaultNoSpace
)

func (k DiskFaultKind) String() string {
	switch k {
	case DiskFaultNone:
		return "none"
	case DiskFaultTornWrite:
		return "torn-write"
	case DiskFaultLostWrite:
		return "lost-write"
	case DiskFaultBitRot:
		return "bit-rot"
	case DiskFaultEIO:
		return "eio"
	case DiskFaultNoSpace:
		return "no-space"
	default:
		return fmt.Sprintf("disk-fault(%d)", int(k))
	}
}

// diskKillKinds is the default fault mix: every data-destroying failure a
// retry-plus-replica recovery stack must absorb. DiskFaultNoSpace is not
// in the default mix because it models a full disk, not a flaky one;
// plans that want it list it explicitly.
var diskKillKinds = []DiskFaultKind{
	DiskFaultTornWrite,
	DiskFaultLostWrite,
	DiskFaultBitRot,
	DiskFaultEIO,
}

// DiskFaultPlan is a deterministic schedule of injected disk faults.
type DiskFaultPlan struct {
	Seed      uint64          // drives the kind choice; same seed, same faults
	EveryN    int             // inject on every Nth operation; <= 0 disables
	SkipFirst int             // leave the first SkipFirst operations alone
	Max       int             // stop injecting after Max faults; 0 = unlimited
	Kinds     []DiskFaultKind // candidate kinds; nil means diskKillKinds
}

// DiskFaultEvent records one injected fault for reporting.
type DiskFaultEvent struct {
	Op   int // 1-based index of the faulted operation
	Kind DiskFaultKind
	Path string // the file the fault landed on
}

// ErrIO reports an injected I/O error. Detect it with errors.As; unlike
// *ErrNoSpace it is transient, so retrying the operation is reasonable.
type ErrIO struct {
	FS   string
	Op   string // "read", "write", "remove", "rename"
	Path string
}

func (e *ErrIO) Error() string {
	return fmt.Sprintf("fs %s: input/output error (%s %s)", e.FS, e.Op, e.Path)
}

// opClass tells the injector which fault kinds can land on an operation.
// Kinds that make no sense for the class degrade to DiskFaultEIO, so a
// plan mixing read and write kinds still faults every Nth operation.
type opClass int

const (
	opRead opClass = iota
	opWrite
	opMeta // remove, rename: always atomic, so only EIO can land
)

// FaultInjector owns a disk fault plan's mutable state. One injector may
// be shared by several FS instances (e.g. a node's local disk and the
// cluster NFS) while the operation count and seeded RNG run on across
// them. Recovery sweeps hold its Suspend while they repair the disk.
type FaultInjector struct {
	fault.Schedule[DiskFaultEvent]
	kinds []DiskFaultKind
}

// NewFaultInjector builds an injector for plan.
func NewFaultInjector(plan DiskFaultPlan) *FaultInjector {
	f := &FaultInjector{kinds: plan.Kinds}
	if len(f.kinds) == 0 {
		f.kinds = diskKillKinds
	}
	f.Init(plan.Seed, plan.EveryN, plan.SkipFirst, plan.Max)
	return f
}

// next counts one operation and decides its fault, if any. The returned
// bits value is the raw RNG draw; BitRot uses it to pick which bit flips.
func (f *FaultInjector) next(class opClass, path string) (kind DiskFaultKind, bits uint64) {
	f.Lock()
	defer f.Unlock()
	op, fire := f.Due()
	if !fire {
		return DiskFaultNone, 0
	}
	z := f.Draw()
	k := f.kinds[z%uint64(len(f.kinds))]
	// Degrade kinds that cannot land on this operation class: a write
	// kind drawn for a read (or vice versa, or anything on a metadata
	// operation) becomes a transient EIO so the plan's cadence holds.
	switch class {
	case opRead:
		if k != DiskFaultBitRot && k != DiskFaultEIO {
			k = DiskFaultEIO
		}
	case opWrite:
		if k == DiskFaultBitRot {
			k = DiskFaultEIO
		}
	case opMeta:
		k = DiskFaultEIO
	}
	f.Record(DiskFaultEvent{Op: op, Kind: k, Path: path})
	return k, z
}
