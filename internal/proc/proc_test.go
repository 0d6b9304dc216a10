package proc

import (
	"errors"
	"testing"

	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/vtime"
)

func testNode() *Node {
	return NewNode("pc0", hw.TableISpec(), ocl.NVIDIA())
}

func TestSpawnForkKill(t *testing.T) {
	n := testNode()
	app := n.Spawn("app")
	if !app.Alive() || app.Node() != n {
		t.Fatal("spawned process wrong")
	}
	proxy := app.Fork("proxy")
	if proxy.PID == app.PID {
		t.Error("child shares PID with parent")
	}
	if got := app.Children(); len(got) != 1 || got[0] != proxy {
		t.Errorf("children = %v", got)
	}
	if len(n.Processes()) != 2 {
		t.Errorf("node processes = %d, want 2", len(n.Processes()))
	}
	// Killing the parent kills the tree.
	app.Kill()
	if app.Alive() || proxy.Alive() {
		t.Error("kill did not terminate the tree")
	}
	if len(n.Processes()) != 0 {
		t.Errorf("node processes after kill = %d, want 0", len(n.Processes()))
	}
	app.Kill() // idempotent
}

func TestRegions(t *testing.T) {
	n := testNode()
	p := n.Spawn("app")
	p.SetRegion("heap", make([]byte, 1024))
	p.SetRegion("stack", make([]byte, 256))
	if p.MemoryUsage() != 1280 {
		t.Errorf("memory usage = %d", p.MemoryUsage())
	}
	if got := p.RegionNames(); len(got) != 2 || got[0] != "heap" || got[1] != "stack" {
		t.Errorf("region names = %v", got)
	}
	views := p.RegionViews()
	// The views are the process's bytes; the map is the caller's.
	p.Region("heap")[0] = 42
	if views["heap"][0] != 42 {
		t.Error("views copy the live region")
	}
	p.RemoveRegion("stack")
	if p.MemoryUsage() != 1024 || views["stack"] == nil {
		t.Errorf("after remove: %d bytes, views %v", p.MemoryUsage(), len(views))
	}
	// Restore replaces the image.
	q := n.Spawn("restored")
	q.RestoreRegions(views, nil)
	if q.MemoryUsage() != 1280 || q.Region("heap")[0] != 42 {
		t.Error("restore wrong")
	}
}

// TestAwaitRegionBlocksUntilArrival: a region restored ahead of its bytes
// is handed out at once by Region and at its arrival by AwaitRegion; one
// that was there from the start, or has been set or awaited since, costs
// nothing to await.
func TestAwaitRegionBlocksUntilArrival(t *testing.T) {
	n := testNode()
	n.Clock.Advance(5 * vtime.Millisecond)
	at := n.Clock.Now().Add(20 * vtime.Millisecond)
	p := n.Spawn("restored")
	p.RestoreRegions(map[string][]byte{"early": {1}, "late": {2}, "reset": {3}},
		map[string]vtime.Time{"late": at, "reset": at.Add(vtime.Second)})

	began := n.Clock.Now()
	if got := p.Region("late"); len(got) != 1 || n.Clock.Now() != began {
		t.Errorf("Region(late) = %v at %v, want the bytes at %v", got, n.Clock.Now(), began)
	}
	if got := p.AwaitRegion("early"); len(got) != 1 || n.Clock.Now() != began {
		t.Errorf("AwaitRegion(early) = %v at %v, want no wait past %v", got, n.Clock.Now(), began)
	}
	if p.AwaitRegion("nosuch") != nil || n.Clock.Now() != began {
		t.Errorf("awaiting a region that is not there moved the clock to %v", n.Clock.Now())
	}
	if got := p.AwaitRegion("late"); len(got) != 1 || got[0] != 2 || n.Clock.Now() != at {
		t.Errorf("AwaitRegion(late) = %v at %v, want arrival at %v", got, n.Clock.Now(), at)
	}
	p.SetRegion("reset", []byte{4})
	if got := p.AwaitRegion("reset"); got[0] != 4 || n.Clock.Now() != at {
		t.Errorf("a region set anew was awaited until %v", n.Clock.Now())
	}
}

func TestSignalsCooperativeDelivery(t *testing.T) {
	n := testNode()
	p := n.Spawn("app")
	if _, ok := p.PollSignal(); ok {
		t.Error("no signal should be pending")
	}
	p.Signal(SIGUSR1)
	p.Signal(SIGTERM)
	if p.PendingSignals() != 2 {
		t.Errorf("pending = %d", p.PendingSignals())
	}
	s1, ok1 := p.PollSignal()
	s2, ok2 := p.PollSignal()
	if !ok1 || !ok2 || s1 != SIGUSR1 || s2 != SIGTERM {
		t.Errorf("signals = %v %v", s1, s2)
	}
	p.Kill()
	p.Signal(SIGUSR1)
	if p.PendingSignals() != 0 {
		t.Error("dead process accepted a signal")
	}
}

func TestDeviceMapping(t *testing.T) {
	n := testNode()
	p := n.Spawn("app")
	if p.DeviceMapped() {
		t.Error("fresh process has device mappings")
	}
	p.MapDevice()
	if !p.DeviceMapped() {
		t.Error("MapDevice not recorded")
	}
}

func TestClusterSharedNFS(t *testing.T) {
	c := NewCluster("pc", 3, hw.TableISpec(), func(int) []*ocl.Vendor { return []*ocl.Vendor{ocl.AMD()} })
	if len(c.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	n0, n1 := c.Nodes[0], c.Nodes[1]
	if n0.NFS != n1.NFS {
		t.Fatal("NFS not shared")
	}
	if err := n0.NFS.WriteFile(n0.Clock, "snap.ckpt", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	got, err := n1.NFS.ReadFile(n1.Clock, "snap.ckpt")
	if err != nil || len(got) != 1<<20 {
		t.Fatalf("read from another node: %d bytes, %v", len(got), err)
	}
	// NFS read (21.2 MB/s) of 1 MiB should cost roughly 49 ms on n1's clock.
	if n1.Clock.Now() < vtime.Time(40*vtime.Millisecond) {
		t.Errorf("NFS read cost not charged: clock at %v", n1.Clock.Now())
	}
	if n0.Vendor("Advanced Micro Devices, Inc.") == nil {
		t.Error("vendor lookup failed")
	}
	if n0.Vendor("NVIDIA Corporation") != nil {
		t.Error("vendor lookup returned uninstalled vendor")
	}
}

func TestFSOperations(t *testing.T) {
	fs := NewFS("test", hw.StorageModel{Name: "x", Write: 100 * hw.MBps, Read: 100 * hw.MBps})
	clock := vtime.NewClock()
	if fs.Exists("a") {
		t.Error("empty fs has file")
	}
	if _, err := fs.ReadFile(clock, "a"); err == nil {
		t.Error("reading missing file should fail")
	}
	if err := fs.WriteFile(clock, "", nil); err == nil {
		t.Error("empty path should fail")
	}
	if err := fs.WriteFile(clock, "a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(clock, "b", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if sz, _ := fs.Size("a"); sz != 5 {
		t.Errorf("size = %d", sz)
	}
	if got := fs.List(); len(got) != 2 || got[0] != "a" {
		t.Errorf("list = %v", got)
	}
	if fs.TotalBytes() != 105 {
		t.Errorf("total = %d", fs.TotalBytes())
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("a"); err == nil {
		t.Error("double remove should fail")
	}
	// Written data is copied, not aliased.
	buf := []byte{1, 2, 3}
	fs.WriteFile(clock, "c", buf)
	buf[0] = 99
	got, _ := fs.ReadFile(clock, "c")
	if got[0] != 1 {
		t.Error("WriteFile aliased caller buffer")
	}
}

func TestRAMDiskFasterThanLocalDisk(t *testing.T) {
	n := testNode()
	payload := make([]byte, 8<<20)
	c1 := vtime.NewClock()
	n.LocalDisk.WriteFile(c1, "x", payload)
	c2 := vtime.NewClock()
	n.RAMDisk.WriteFile(c2, "x", payload)
	if !(c2.Now() < c1.Now()/10) {
		t.Errorf("RAM disk (%v) should be far faster than local disk (%v)", c2.Now(), c1.Now())
	}
}

func TestMigrateTo(t *testing.T) {
	c := NewCluster("pc", 2, hw.TableISpec(), func(int) []*ocl.Vendor { return nil })
	c.Nodes[1].Spawn("other") // skew destination PID counter
	p := c.Nodes[0].Spawn("app")
	oldPID := p.PID
	p.MigrateTo(c.Nodes[1])
	if p.Node() != c.Nodes[1] {
		t.Error("node not updated")
	}
	if p.PID == oldPID {
		t.Error("destination node assigned the same PID despite skewed counter")
	}
	if len(c.Nodes[0].Processes()) != 0 || len(c.Nodes[1].Processes()) != 2 {
		t.Error("process tables not updated")
	}
}

func TestFSCapacity(t *testing.T) {
	fs := NewFS("tiny", hw.TableISpec().LocalDisk, WithCapacity(1024))
	clock := vtime.NewClock()
	if fs.Capacity() != 1024 {
		t.Fatalf("capacity = %d", fs.Capacity())
	}

	// Writes under the limit succeed.
	if err := fs.WriteFile(clock, "a", make([]byte, 600)); err != nil {
		t.Fatal(err)
	}

	// A write that would exceed it fails with the typed error, before any
	// time is charged, leaving the filesystem untouched.
	before := clock.Now()
	err := fs.WriteFile(clock, "b", make([]byte, 600))
	var nospace *ErrNoSpace
	if !errors.As(err, &nospace) {
		t.Fatalf("err = %v, want *ErrNoSpace", err)
	}
	if nospace.FS != "tiny" || nospace.Capacity != 1024 || nospace.Used != 600 || nospace.Need != 600 {
		t.Errorf("ErrNoSpace = %+v", nospace)
	}
	if clock.Now() != before {
		t.Error("refused write charged time")
	}
	if fs.Exists("b") {
		t.Error("refused write left a file behind")
	}

	// Overwrites account for the bytes they release.
	if err := fs.WriteFile(clock, "a", make([]byte, 1024)); err != nil {
		t.Errorf("overwrite within capacity failed: %v", err)
	}
	if err := fs.WriteFile(clock, "a", make([]byte, 1025)); !errors.As(err, &nospace) {
		t.Errorf("oversized overwrite: err = %v, want *ErrNoSpace", err)
	}

	// An unbounded filesystem never refuses.
	unbounded := NewFS("big", hw.TableISpec().LocalDisk)
	if err := unbounded.WriteFile(clock, "x", make([]byte, 1<<20)); err != nil {
		t.Errorf("unbounded fs refused a write: %v", err)
	}
}

func TestOnExitHooks(t *testing.T) {
	n := testNode()
	app := n.Spawn("app")
	child := app.Fork("proxy")
	var order []string
	app.OnExit(func() {
		// Hooks fire after the whole tree is dead and the node is cleaned
		// up, so a death watcher sees the final state.
		if child.Alive() {
			t.Error("hook ran before children were killed")
		}
		if len(n.Processes()) != 0 {
			t.Error("hook ran before node cleanup")
		}
		order = append(order, "a")
	})
	app.OnExit(func() { order = append(order, "b") })
	app.Kill()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("hooks ran %v, want [a b] in registration order", order)
	}
	app.Kill() // idempotent: hooks must not re-fire
	if len(order) != 2 {
		t.Errorf("hooks re-fired on second kill: %v", order)
	}

	// Hooks registered on an already-dead process never run.
	ran := false
	app.OnExit(func() { ran = true })
	app.Kill()
	if ran {
		t.Error("hook registered after death ran")
	}
}
