package proc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"checl/internal/hw"
	"checl/internal/vtime"
)

func nodeTestFS(name string) *FS {
	return NewFS(name, hw.StorageModel{Write: 100 * hw.MBps, Read: 200 * hw.MBps})
}

func TestNodeStateDownGatesEveryOp(t *testing.T) {
	fs := nodeTestFS("store-0")
	clock := vtime.NewClock()
	if err := fs.WriteFile(clock, "a", []byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	ns := NewNodeState("store-0")
	fs.SetNodeState(ns)
	ns.SetDown(true)

	var down *ErrNodeDown
	if err := fs.WriteFile(clock, "b", []byte("x")); !errors.As(err, &down) {
		t.Fatalf("write on down node: got %v, want *ErrNodeDown", err)
	}
	if _, err := fs.ReadFile(clock, "a"); !errors.As(err, &down) {
		t.Fatalf("read on down node: got %v, want *ErrNodeDown", err)
	}
	if err := fs.Remove("a"); !errors.As(err, &down) {
		t.Fatalf("remove on down node: got %v, want *ErrNodeDown", err)
	}
	if err := fs.Rename("a", "c"); !errors.As(err, &down) {
		t.Fatalf("rename on down node: got %v, want *ErrNodeDown", err)
	}
	if down.Node != "store-0" {
		t.Fatalf("ErrNodeDown.Node = %q, want store-0", down.Node)
	}

	// Revival restores service and the data survived the outage.
	ns.SetDown(false)
	got, err := fs.ReadFile(clock, "a")
	if err != nil || string(got) != "hello" {
		t.Fatalf("read after revival: %q, %v", got, err)
	}
}

func TestNodeStateSlowScalesChargedTime(t *testing.T) {
	fs := nodeTestFS("store-0")
	ns := NewNodeState("store-0")
	fs.SetNodeState(ns)
	data := make([]byte, 1<<20)

	base := vtime.NewClock()
	if err := fs.WriteFile(base, "a", data); err != nil {
		t.Fatalf("write: %v", err)
	}

	ns.Slow(8, 1)
	slow := vtime.NewClock()
	if err := fs.WriteFile(slow, "b", data); err != nil {
		t.Fatalf("slow write: %v", err)
	}
	if want := 8 * base.Now(); slow.Now() != want {
		t.Fatalf("slow write charged %v, want %v", slow.Now(), want)
	}

	// The slow window was one op wide: the next write runs at full speed.
	after := vtime.NewClock()
	if err := fs.WriteFile(after, "c", data); err != nil {
		t.Fatalf("write after slow window: %v", err)
	}
	if after.Now() != base.Now() {
		t.Fatalf("post-window write charged %v, want %v", after.Now(), base.Now())
	}
}

func TestNodeStateTornWriteOneShot(t *testing.T) {
	fs := nodeTestFS("store-0")
	ns := NewNodeState("store-0")
	fs.SetNodeState(ns)
	clock := vtime.NewClock()
	data := []byte("0123456789")

	ns.ArmTornWrite()
	var eio *ErrIO
	if err := fs.WriteFile(clock, "a", data); !errors.As(err, &eio) {
		t.Fatalf("armed write: got %v, want *ErrIO", err)
	}
	if n, _ := fs.Size("a"); n != int64(len(data)/2) {
		t.Fatalf("torn write persisted %d bytes, want %d", n, len(data)/2)
	}

	// One-shot: the retry goes through whole.
	if err := fs.WriteFile(clock, "a", data); err != nil {
		t.Fatalf("retry: %v", err)
	}
	got, err := fs.ReadFile(clock, "a")
	if err != nil || string(got) != string(data) {
		t.Fatalf("read after retry: %q, %v", got, err)
	}
}

func TestFlipBitCorruptsInPlace(t *testing.T) {
	fs := nodeTestFS("store-0")
	clock := vtime.NewClock()
	data := []byte("checkpoint shard payload")
	if err := fs.WriteFile(clock, "shards/x/0", data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if fs.FlipBit("missing", 3) {
		t.Fatal("FlipBit on a missing file reported success")
	}
	if !fs.FlipBit("shards/x/0", 12345) {
		t.Fatal("FlipBit reported failure on a stored file")
	}
	got, err := fs.ReadFile(clock, "shards/x/0")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	diff := 0
	for i := range got {
		if got[i] != data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("FlipBit changed %d bytes, want exactly 1", diff)
	}
}

func TestNodeFaultInjectorDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []NodeFaultEvent {
		inj := NewNodeFaultInjector(NodeFaultPlan{Seed: seed, EveryN: 3})
		clock := vtime.NewClock()
		for i := 0; i < 4; i++ {
			fs := nodeTestFS("store")
			fs.WriteFile(clock, "shards/seed/0", []byte("payload"))
			inj.Register(string(rune('a'+i)), fs)
		}
		for i := 0; i < 60; i++ {
			inj.Tick()
		}
		return inj.Events()
	}
	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatal("no faults injected")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// TestNodeFaultSchedulePinned pins one seeded node plan event for event
// over four nodes and 90 ticks, with crashes that revive, a crash dropped
// at op 57 because its victim was already down, and the bits the rots
// flipped. A change to the seeding, the draw order or a fault's effect
// cannot pass by agreeing with itself.
func TestNodeFaultSchedulePinned(t *testing.T) {
	inj := NewNodeFaultInjector(NodeFaultPlan{Seed: 7, EveryN: 3, ReviveAfter: 5})
	clock := vtime.NewClock()
	var disks []*FS
	for i := 0; i < 4; i++ {
		fs := nodeTestFS("store")
		for j := 0; j < 3; j++ {
			fs.WriteFile(clock, fmt.Sprintf("shards/%d/%d", i, j), bytes.Repeat([]byte{byte(i*3 + j)}, 16))
		}
		inj.Register(string(rune('a'+i)), fs)
		disks = append(disks, fs)
	}
	for i := 0; i < 90; i++ {
		inj.Tick()
	}
	want := []NodeFaultEvent{
		{3, NodeFaultShardRot, "a", "shards/0/0"}, {6, NodeFaultCrash, "d", ""},
		{9, NodeFaultSlow, "d", ""}, {12, NodeFaultCrash, "c", ""},
		{15, NodeFaultShardRot, "d", "shards/3/0"}, {18, NodeFaultSlow, "c", ""},
		{21, NodeFaultShardRot, "b", "shards/1/1"}, {24, NodeFaultTornWrite, "a", ""},
		{27, NodeFaultSlow, "d", ""}, {30, NodeFaultSlow, "b", ""},
		{33, NodeFaultTornWrite, "b", ""}, {36, NodeFaultShardRot, "d", "shards/3/0"},
		{39, NodeFaultCrash, "d", ""}, {42, NodeFaultSlow, "b", ""},
		{45, NodeFaultCrash, "a", ""}, {48, NodeFaultSlow, "d", ""},
		{51, NodeFaultCrash, "a", ""}, {54, NodeFaultCrash, "d", ""},
		{60, NodeFaultShardRot, "a", "shards/0/1"}, {63, NodeFaultSlow, "d", ""},
		{66, NodeFaultShardRot, "a", "shards/0/0"}, {69, NodeFaultSlow, "b", ""},
		{72, NodeFaultShardRot, "c", "shards/2/2"}, {75, NodeFaultTornWrite, "a", ""},
		{78, NodeFaultCrash, "a", ""}, {81, NodeFaultTornWrite, "b", ""},
		{84, NodeFaultShardRot, "d", "shards/3/1"}, {87, NodeFaultTornWrite, "a", ""},
		{90, NodeFaultTornWrite, "b", ""},
	}
	if got := inj.Events(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("events diverged from the pinned schedule:\n got %v\nwant %v", got, want)
	}
	if inj.Ops() != 90 || inj.Injected() != 29 || len(inj.Down()) != 0 {
		t.Fatalf("ops=%d injected=%d down=%v, want 90, 29 and none", inj.Ops(), inj.Injected(), inj.Down())
	}
	var digests []string
	for _, fs := range disks {
		digests = append(digests, diskDigest(fs))
	}
	if got := fmt.Sprint(digests); got != "[3e05e4bfea845957 a3e7cbb62c10b697 6ed1fdd76d80276e 1333993d0a764e98]" {
		t.Fatalf("disk digests %s diverged from the pinned rots", got)
	}
}

func TestNodeFaultInjectorNeverKillsLastNode(t *testing.T) {
	inj := NewNodeFaultInjector(NodeFaultPlan{
		Seed:   3,
		EveryN: 1,
		Kinds:  []NodeFaultKind{NodeFaultCrash},
	})
	for i := 0; i < 3; i++ {
		inj.Register(string(rune('a'+i)), nodeTestFS("store"))
	}
	for i := 0; i < 200; i++ {
		inj.Tick()
	}
	if got := len(inj.Down()); got != 2 {
		t.Fatalf("%d nodes down, want 2 (one must always survive)", got)
	}
}

func TestNodeFaultInjectorReviveAndSuspend(t *testing.T) {
	inj := NewNodeFaultInjector(NodeFaultPlan{
		Seed:        5,
		EveryN:      1,
		Max:         1,
		ReviveAfter: 10,
		Kinds:       []NodeFaultKind{NodeFaultCrash},
	})
	inj.Register("a", nodeTestFS("store"))
	inj.Register("b", nodeTestFS("store"))

	inj.Suspend()
	inj.Tick()
	if inj.Injected() != 0 {
		t.Fatal("suspended injector fired")
	}
	inj.Resume()

	inj.Tick()
	if inj.Injected() != 1 || len(inj.Down()) != 1 {
		t.Fatalf("injected=%d down=%v, want one crash", inj.Injected(), inj.Down())
	}
	for i := 0; i < 10; i++ {
		inj.Tick()
	}
	if len(inj.Down()) != 0 {
		t.Fatalf("node still down after ReviveAfter: %v", inj.Down())
	}
}

// TestShardRotLandsOnShardData: once the store has said which files hold
// shard data, rot never lands on anything else; before that (and on a node
// with no shard data yet) any file can rot.
func TestShardRotLandsOnShardData(t *testing.T) {
	clock := vtime.NewClock()
	inj := NewNodeFaultInjector(NodeFaultPlan{Seed: 5, EveryN: 1, Kinds: []NodeFaultKind{NodeFaultShardRot}})
	fs := nodeTestFS("store")
	for _, p := range []string{"meta/a", "meta/b", "data/p1", "data/p2", "meta/c"} {
		if err := fs.WriteFile(clock, p, []byte("some stored bytes")); err != nil {
			t.Fatal(err)
		}
	}
	inj.Register("n", fs)
	inj.SetShardData(func(path string) bool { return strings.HasPrefix(path, "data/") })
	for i := 0; i < 40; i++ {
		inj.Tick()
	}
	events := inj.Events()
	if len(events) != 40 {
		t.Fatalf("%d rots injected, want 40", len(events))
	}
	for _, ev := range events {
		if !strings.HasPrefix(ev.Path, "data/") {
			t.Fatalf("rot landed on %q, which is not shard data", ev.Path)
		}
	}

	empty := nodeTestFS("fresh")
	if err := empty.WriteFile(clock, "meta/only", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if path, ok := pickRotTarget(empty, func(string) bool { return false }, 9); !ok || path != "meta/only" {
		t.Fatalf("node without shard data: rot target %q %v, want its one file", path, ok)
	}
}
