// Package proc is the operating-system substrate of the simulation: nodes
// (machines with a clock, a hardware specification, installed OpenCL
// vendors, and filesystems), clusters sharing an NFS, and processes with
// registered memory regions, device mappings, fork, and signals.
//
// The substrate enforces the failure mode that motivates CheCL: a process
// whose address space has GPU device mappings cannot be checkpointed by a
// conventional CPR system (see internal/cpr). The API proxy exists so that
// the *application* process never acquires such mappings.
package proc

import (
	"fmt"
	"sort"
	"sync"

	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/vtime"
)

// Signal is a POSIX-style signal number.
type Signal int

// Signals used by the repository.
const (
	SIGUSR1 Signal = 10
	SIGTERM Signal = 15
)

// Node is one simulated machine.
type Node struct {
	Name    string
	Spec    hw.SystemSpec
	Clock   *vtime.Clock
	Vendors []*ocl.Vendor

	LocalDisk *FS
	RAMDisk   *FS
	NFS       *FS // shared with the cluster; nil for a standalone node

	mu      sync.Mutex
	nextPID int
	procs   map[int]*Process
}

// NewNode constructs a node with the given spec and installed vendors.
// Each node gets its own local disk and RAM disk.
func NewNode(name string, spec hw.SystemSpec, vendors ...*ocl.Vendor) *Node {
	return &Node{
		Name:      name,
		Spec:      spec,
		Clock:     vtime.NewClock(),
		Vendors:   vendors,
		LocalDisk: NewFS("local", spec.LocalDisk),
		RAMDisk:   NewFS("ramdisk", spec.RAMDisk),
		nextPID:   100,
		procs:     map[int]*Process{},
	}
}

// Vendor returns the installed vendor whose platform vendor string matches,
// or nil.
func (n *Node) Vendor(platformVendor string) *ocl.Vendor {
	for _, v := range n.Vendors {
		if v.PlatformVendor == platformVendor {
			return v
		}
	}
	return nil
}

// Spawn starts a fresh top-level process on the node.
func (n *Node) Spawn(name string) *Process {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextPID++
	p := &Process{
		PID:     n.nextPID,
		Name:    name,
		node:    n,
		alive:   true,
		regions: map[string][]byte{},
	}
	n.procs[p.PID] = p
	return p
}

// Processes returns the node's live processes sorted by PID.
func (n *Node) Processes() []*Process {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Process, 0, len(n.procs))
	for _, p := range n.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// Cluster is a set of nodes sharing one NFS filesystem.
type Cluster struct {
	NFS   *FS
	Nodes []*Node
}

// NewCluster builds count nodes named base-0..count-1 with identical specs
// and vendor sets, all mounting a shared NFS whose model comes from spec.
func NewCluster(base string, count int, spec hw.SystemSpec, vendors func(i int) []*ocl.Vendor) *Cluster {
	c := &Cluster{NFS: NewFS("nfs", spec.NFS)}
	for i := 0; i < count; i++ {
		n := NewNode(fmt.Sprintf("%s-%d", base, i), spec, vendors(i)...)
		n.NFS = c.NFS
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// Process is one simulated OS process.
type Process struct {
	PID  int
	Name string

	mu           sync.Mutex
	node         *Node
	parent       *Process
	children     []*Process
	alive        bool
	deviceMapped bool
	regions      map[string][]byte
	pending      []Signal
	onExit       []func()
	// arrived holds, for a region of a restored image whose bytes came in
	// after the process did, the instant on the node's clock they were there
	// (RestoreRegions, AwaitRegion). No entry: there since the process was.
	arrived map[string]vtime.Time
}

// OnExit registers fn to run when the process dies. Hooks fire after the
// process is marked dead and removed from its node, outside every process
// and node lock, in registration order — so a hook may safely take its own
// locks or call back into proc. Hooks registered on an already-dead
// process never run. The MPI layer uses this as its rank-death hook.
func (p *Process) OnExit(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.alive {
		return
	}
	p.onExit = append(p.onExit, fn)
}

// Node returns the node the process currently runs on.
func (p *Process) Node() *Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.node
}

// Clock returns the clock of the process's node.
func (p *Process) Clock() *vtime.Clock { return p.Node().Clock }

// Alive reports whether the process is running.
func (p *Process) Alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alive
}

// Fork creates a child process on the same node (used to launch the API
// proxy). Fork charges the node's modelled proxy-fork cost only when the
// caller asks for it via the cost parameter; plain forks are free.
func (p *Process) Fork(name string) *Process {
	n := p.Node()
	n.mu.Lock()
	n.nextPID++
	child := &Process{
		PID:     n.nextPID,
		Name:    name,
		node:    n,
		parent:  p,
		alive:   true,
		regions: map[string][]byte{},
	}
	n.procs[child.PID] = child
	n.mu.Unlock()

	p.mu.Lock()
	p.children = append(p.children, child)
	p.mu.Unlock()
	return child
}

// Children returns the live children of the process.
func (p *Process) Children() []*Process {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Process
	for _, c := range p.children {
		if c.Alive() {
			out = append(out, c)
		}
	}
	return out
}

// Kill terminates the process and (transitively) its children.
func (p *Process) Kill() {
	p.mu.Lock()
	if !p.alive {
		p.mu.Unlock()
		return
	}
	p.alive = false
	children := append([]*Process(nil), p.children...)
	node := p.node
	pid := p.PID
	hooks := p.onExit
	p.onExit = nil
	p.mu.Unlock()

	for _, c := range children {
		c.Kill()
	}
	node.mu.Lock()
	delete(node.procs, pid)
	node.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// MapDevice marks the process address space as containing GPU device
// mappings (what loading a vendor OpenCL implementation does). From this
// point a conventional CPR system cannot checkpoint the process.
func (p *Process) MapDevice() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deviceMapped = true
}

// DeviceMapped reports whether the address space has device mappings.
func (p *Process) DeviceMapped() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deviceMapped
}

// SetRegion registers (or replaces) a named memory region of the process.
// Regions are what a CPR system dumps and restores.
func (p *Process) SetRegion(name string, data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.regions[name] = data
	delete(p.arrived, name)
}

// Region returns the named region, or nil.
func (p *Process) Region(name string) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.regions[name]
}

// AwaitRegion is Region for a caller about to read the region's bytes: it
// blocks — advances the node's clock — until they have arrived. Only a
// region of an image that was restored while it was still being read can
// lie ahead of the clock (RestoreRegions); for any other this is Region.
func (p *Process) AwaitRegion(name string) []byte {
	p.mu.Lock()
	data, at, node := p.regions[name], p.arrived[name], p.node
	p.mu.Unlock()
	node.Clock.AdvanceTo(at)
	return data
}

// RemoveRegion drops a named region (e.g. freeing staged buffer copies in
// CheCL's postprocessing phase).
func (p *Process) RemoveRegion(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.regions, name)
	delete(p.arrived, name)
}

// RegionNames lists registered regions in sorted order.
func (p *Process) RegionNames() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.regions))
	for n := range p.regions {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MemoryUsage reports the total bytes of registered regions — the host
// memory image size a CPR dump would write.
func (p *Process) MemoryUsage() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, r := range p.regions {
		n += int64(len(r))
	}
	return n
}

// RegionViews returns the process's memory regions by reference: the map
// is the caller's, the bytes are the process's own. The views are valid
// only while the process is stopped — until it next runs and writes or
// replaces a region — which is what a checkpoint of a quiesced process
// gets to rely on.
func (p *Process) RegionViews() map[string][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string][]byte, len(p.regions))
	for k, v := range p.regions {
		out[k] = v
	}
	return out
}

// RestoreRegions replaces the process's memory image (restart path). Like
// SetRegion it adopts the slices: they are the process's memory from here
// on, and the caller keeps no other use of them. The maps stay the caller's.
//
// arrived is for an image read piece by piece by a restart that brings the
// process up before the read is over: the instant on the node's clock at
// which each region's bytes are there, for the regions that are not there
// yet. In the simulation the bytes are all present; it is AwaitRegion that
// keeps a reader from seeing them sooner. A nil map is an image that was
// read whole before the process was spawned.
func (p *Process) RestoreRegions(regions map[string][]byte, arrived map[string]vtime.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.regions = make(map[string][]byte, len(regions))
	for k, v := range regions {
		p.regions[k] = v
	}
	p.arrived = make(map[string]vtime.Time, len(arrived))
	for k, at := range arrived {
		p.arrived[k] = at
	}
}

// Signal queues a signal for the process. Delivery is cooperative: the
// process observes it at its next PollSignal (CheCL polls on every
// intercepted API call, mirroring signal-handler + flag designs).
func (p *Process) Signal(sig Signal) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.alive {
		return
	}
	p.pending = append(p.pending, sig)
}

// PollSignal dequeues the oldest pending signal; ok is false when none is
// pending.
func (p *Process) PollSignal() (Signal, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.pending) == 0 {
		return 0, false
	}
	s := p.pending[0]
	p.pending = p.pending[1:]
	return s, true
}

// PendingSignals reports the number of queued signals.
func (p *Process) PendingSignals() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// MigrateTo moves a (restored) process object to a different node. Only
// the CPR restart path uses this: the process must be re-created from a
// checkpoint file, not moved live.
func (p *Process) MigrateTo(n *Node) {
	old := p.Node()
	old.mu.Lock()
	delete(old.procs, p.PID)
	old.mu.Unlock()

	n.mu.Lock()
	n.nextPID++
	newPID := n.nextPID
	p.mu.Lock()
	p.node = n
	p.PID = newPID
	p.mu.Unlock()
	n.procs[newPID] = p
	n.mu.Unlock()
}
