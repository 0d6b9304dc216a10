package proc

import (
	"fmt"
	"sort"
	"sync"

	"checl/internal/hw"
	"checl/internal/vtime"
)

// FS is a simulated filesystem with a bandwidth/latency model. A node has
// a local-disk FS and a RAM-disk FS of its own; a cluster additionally
// shares one NFS FS across nodes. Operations charge their modelled cost to
// the caller's clock, so the same NFS is slower than the same node's RAM
// disk by exactly the Table I ratios.
type FS struct {
	name     string
	model    hw.StorageModel
	capacity int64 // 0 = unbounded
	fault    *FaultInjector
	node     *NodeState

	mu    sync.Mutex
	files map[string][]byte
}

// FSOption configures a filesystem at construction time.
type FSOption func(*FS)

// WithCapacity bounds the filesystem at the given total byte count. Writes
// that would exceed it fail with *ErrNoSpace. A non-positive capacity
// leaves the filesystem unbounded.
func WithCapacity(bytes int64) FSOption {
	return func(fs *FS) { fs.capacity = bytes }
}

// WithFault attaches a disk fault injector: every WriteFile, ReadFile,
// Remove and Rename consults it and fails (or corrupts) per the plan.
func WithFault(inj *FaultInjector) FSOption {
	return func(fs *FS) { fs.fault = inj }
}

// WithNodeState attaches a node-level state: while the node is down every
// operation fails with *ErrNodeDown, and while it is slow every operation
// charges a multiple of its modelled time. Composes with WithFault — a
// store node can be both flaky at the disk level and crashed as a whole.
func WithNodeState(ns *NodeState) FSOption {
	return func(fs *FS) { fs.node = ns }
}

// NewFS constructs an empty filesystem with the given storage model.
func NewFS(name string, model hw.StorageModel, opts ...FSOption) *FS {
	fs := &FS{name: name, model: model, files: map[string][]byte{}}
	for _, o := range opts {
		o(fs)
	}
	return fs
}

// ErrNoSpace reports a write refused because it would exceed a
// capacity-limited filesystem. Detect it with errors.As.
type ErrNoSpace struct {
	FS       string
	Capacity int64
	Used     int64
	Need     int64 // bytes the refused write required
}

func (e *ErrNoSpace) Error() string {
	return fmt.Sprintf("fs %s: no space left on device (capacity %d B, used %d B, write needs %d B)",
		e.FS, e.Capacity, e.Used, e.Need)
}

// Capacity reports the configured byte limit; 0 means unbounded.
func (fs *FS) Capacity() int64 { return fs.capacity }

// SetFault attaches (or, with nil, detaches) a disk fault injector after
// construction. Not safe to race with in-flight operations.
func (fs *FS) SetFault(inj *FaultInjector) { fs.fault = inj }

// SetNodeState attaches (or, with nil, detaches) a node-level state after
// construction. Not safe to race with in-flight operations.
func (fs *FS) SetNodeState(ns *NodeState) { fs.node = ns }

// Node exposes the attached node state, if any.
func (fs *FS) Node() *NodeState { return fs.node }

// scaled applies the node's slow factor to a modelled duration.
func scaled(d vtime.Duration, factor float64) vtime.Duration {
	if factor == 1 || d <= 0 {
		return d
	}
	return vtime.Duration(float64(d) * factor)
}

// Name identifies the filesystem ("local", "ramdisk", "nfs").
func (fs *FS) Name() string { return fs.name }

// Model exposes the storage model (used by migration-cost prediction).
func (fs *FS) Model() hw.StorageModel { return fs.model }

// WriteFile stores data at path, charging the write time to clock. On a
// capacity-limited filesystem a write that would exceed the limit fails
// with *ErrNoSpace before any time is charged.
func (fs *FS) WriteFile(clock *vtime.Clock, path string, data []byte) error {
	if path == "" {
		return fmt.Errorf("fs %s: empty path", fs.name)
	}
	down, scale := fs.node.gate()
	if down {
		return &ErrNodeDown{Node: fs.node.Node(), Op: "write", Path: path}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.node.takeTorn() {
		return fs.tearLocked(clock, path, data, scale)
	}
	if fs.capacity > 0 {
		used := fs.usedLocked()
		after := used - int64(len(fs.files[path])) + int64(len(data))
		if after > fs.capacity {
			return &ErrNoSpace{FS: fs.name, Capacity: fs.capacity, Used: used, Need: int64(len(data))}
		}
	}
	if fs.fault != nil {
		switch kind, _ := fs.fault.next(opWrite, path); kind {
		case DiskFaultTornWrite:
			return fs.tearLocked(clock, path, data, scale)
		case DiskFaultLostWrite:
			// The write is acknowledged but nothing persists; previous
			// content, if any, survives untouched.
			clock.Advance(scaled(fs.model.WriteTime(int64(len(data))), scale))
			return nil
		case DiskFaultEIO:
			return &ErrIO{FS: fs.name, Op: "write", Path: path}
		case DiskFaultNoSpace:
			return &ErrNoSpace{FS: fs.name, Capacity: fs.capacity, Used: fs.usedLocked(), Need: int64(len(data))}
		}
	}
	clock.Advance(scaled(fs.model.WriteTime(int64(len(data))), scale))
	fs.files[path] = append([]byte(nil), data...)
	return nil
}

// tearLocked is a torn write: only the first half of data reaches the
// disk, replacing any previous content, and the writer learns about it
// through an error. Callers hold fs.mu.
func (fs *FS) tearLocked(clock *vtime.Clock, path string, data []byte, scale float64) error {
	n := len(data) / 2
	clock.Advance(scaled(fs.model.WriteTime(int64(n)), scale))
	fs.files[path] = append([]byte(nil), data[:n]...)
	return &ErrIO{FS: fs.name, Op: "write", Path: path}
}

// usedLocked sums stored bytes; callers hold fs.mu.
func (fs *FS) usedLocked() int64 {
	var n int64
	for _, d := range fs.files {
		n += int64(len(d))
	}
	return n
}

// ReadFile returns the file at path, charging the read time to clock. The
// bytes are the stored file's own, lent read-only: the slice is clipped to
// its length, so an append to it copies, but a write into it would change
// the file. A caller that keeps or writes the bytes copies them. A stored
// file is never changed in place — a write, a tear or a rot flip replaces
// its slice — so what a read returned stays as it was.
func (fs *FS) ReadFile(clock *vtime.Clock, path string) ([]byte, error) {
	down, scale := fs.node.gate()
	if down {
		return nil, &ErrNodeDown{Node: fs.node.Node(), Op: "read", Path: path}
	}
	fs.mu.Lock()
	data, ok := fs.files[path]
	if fs.fault != nil {
		switch kind, bits := fs.fault.next(opRead, path); kind {
		case DiskFaultBitRot:
			// Flip one bit of the stored copy: at-rest decay this read is
			// the first to observe. The corruption persists until a later
			// write (or a heal) replaces the file.
			fs.flipLocked(path, bits>>8)
			data = fs.files[path]
		case DiskFaultEIO:
			fs.mu.Unlock()
			return nil, &ErrIO{FS: fs.name, Op: "read", Path: path}
		}
	}
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fs %s: no such file %q", fs.name, path)
	}
	clock.Advance(scaled(fs.model.ReadTime(int64(len(data))), scale))
	return data[:len(data):len(data)], nil
}

// Remove deletes the file at path. Removing a missing file is an error.
func (fs *FS) Remove(path string) error {
	if down, _ := fs.node.gate(); down {
		return &ErrNodeDown{Node: fs.node.Node(), Op: "remove", Path: path}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.fault != nil {
		if kind, _ := fs.fault.next(opMeta, path); kind != DiskFaultNone {
			return &ErrIO{FS: fs.name, Op: "remove", Path: path}
		}
	}
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("fs %s: no such file %q", fs.name, path)
	}
	delete(fs.files, path)
	return nil
}

// Rename atomically moves oldPath to newPath, replacing any existing file
// there; the store moves a torn manifest frame into quarantine with it. It
// is a metadata operation: no transfer time is charged, and an injected
// fault (always a transient EIO; renames never tear) leaves both paths
// untouched. Renaming a missing file is an error.
func (fs *FS) Rename(oldPath, newPath string) error {
	if newPath == "" {
		return fmt.Errorf("fs %s: empty path", fs.name)
	}
	if down, _ := fs.node.gate(); down {
		return &ErrNodeDown{Node: fs.node.Node(), Op: "rename", Path: oldPath}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.fault != nil {
		if kind, _ := fs.fault.next(opMeta, oldPath); kind != DiskFaultNone {
			return &ErrIO{FS: fs.name, Op: "rename", Path: oldPath}
		}
	}
	data, ok := fs.files[oldPath]
	if !ok {
		return fmt.Errorf("fs %s: no such file %q", fs.name, oldPath)
	}
	fs.files[newPath] = data
	delete(fs.files, oldPath)
	return nil
}

// Size reports the size of the file at path, or an error if absent.
func (fs *FS) Size(path string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	data, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("fs %s: no such file %q", fs.name, path)
	}
	return int64(len(data)), nil
}

// Exists reports whether path holds a file.
func (fs *FS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// List returns all stored paths in sorted order.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// FlipBit corrupts the stored copy of path in place: bit (bits mod the
// file's bit count) flips, silently — no time is charged and no error is
// returned, exactly like decay at rest. Reports whether a bit flipped
// (false for a missing or empty file). The node fault injector uses this
// for at-rest shard rot; a later read observes the corruption.
func (fs *FS) FlipBit(path string, bits uint64) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.flipLocked(path, bits)
}

// flipLocked flips bit (bits mod the file's bit count) of path's stored
// copy and reports whether it did. The stored slice is replaced, not
// flipped in place: what an earlier ReadFile lent stays as it was. Callers
// hold fs.mu.
func (fs *FS) flipLocked(path string, bits uint64) bool {
	data := fs.files[path]
	if len(data) == 0 {
		return false
	}
	rotten := append([]byte(nil), data...)
	bit := bits % uint64(len(rotten)*8)
	rotten[bit/8] ^= 1 << (bit % 8)
	fs.files[path] = rotten
	return true
}

// TotalBytes reports the sum of all file sizes.
func (fs *FS) TotalBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.usedLocked()
}
