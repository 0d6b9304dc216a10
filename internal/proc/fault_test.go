package proc

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"checl/internal/hw"
	"checl/internal/vtime"
)

func faultFS(plan DiskFaultPlan) (*FS, *FaultInjector, *vtime.Clock) {
	inj := NewFaultInjector(plan)
	fs := NewFS("faulty", hw.StorageModel{Name: "faulty", Write: 100 * hw.MBps, Read: 100 * hw.MBps}, WithFault(inj))
	return fs, inj, vtime.NewClock()
}

func TestDiskFaultTornWrite(t *testing.T) {
	fs, inj, clock := faultFS(DiskFaultPlan{Seed: 1, EveryN: 1, Max: 1, Kinds: []DiskFaultKind{DiskFaultTornWrite}})
	data := bytes.Repeat([]byte{0xab}, 1000)
	err := fs.WriteFile(clock, "f", data)
	var eio *ErrIO
	if !errors.As(err, &eio) {
		t.Fatalf("torn write returned %v, want *ErrIO", err)
	}
	got, err := fs.ReadFile(clock, "f")
	if err != nil {
		t.Fatalf("reading torn file: %v", err)
	}
	if len(got) != 500 || !bytes.Equal(got, data[:500]) {
		t.Fatalf("torn write persisted %d bytes, want the 500-byte prefix", len(got))
	}
	if inj.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1", inj.Injected())
	}
	// The plan is exhausted; a rewrite goes through and replaces the tear.
	if err := fs.WriteFile(clock, "f", data); err != nil {
		t.Fatalf("rewrite after torn write: %v", err)
	}
	if got, _ := fs.ReadFile(clock, "f"); !bytes.Equal(got, data) {
		t.Fatalf("rewrite did not replace torn content")
	}
}

func TestDiskFaultLostWrite(t *testing.T) {
	fs, _, clock := faultFS(DiskFaultPlan{Seed: 2, EveryN: 2, Max: 1, Kinds: []DiskFaultKind{DiskFaultLostWrite}})
	if err := fs.WriteFile(clock, "f", []byte("old")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	// Second write is the faulted one: acknowledged, nothing persisted.
	if err := fs.WriteFile(clock, "f", []byte("new content")); err != nil {
		t.Fatalf("lost write must be acknowledged, got %v", err)
	}
	got, err := fs.ReadFile(clock, "f")
	if err != nil || string(got) != "old" {
		t.Fatalf("after lost write file holds %q (err %v), want the old content", got, err)
	}
}

func TestDiskFaultBitRotPersists(t *testing.T) {
	fs, _, clock := faultFS(DiskFaultPlan{Seed: 3, EveryN: 2, Max: 1, Kinds: []DiskFaultKind{DiskFaultBitRot}})
	data := bytes.Repeat([]byte{0x55}, 256)
	if err := fs.WriteFile(clock, "f", data); err != nil {
		t.Fatalf("write: %v", err)
	}
	rotten, err := fs.ReadFile(clock, "f")
	if err != nil {
		t.Fatalf("rotten read errored: %v", err)
	}
	if bytes.Equal(rotten, data) {
		t.Fatalf("bit rot did not corrupt the returned data")
	}
	diff := 0
	for i := range data {
		for b := 0; b < 8; b++ {
			if (rotten[i]^data[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("bit rot flipped %d bits, want exactly 1", diff)
	}
	// The flip persists: the next (unfaulted) read sees the same rot.
	again, err := fs.ReadFile(clock, "f")
	if err != nil || !bytes.Equal(again, rotten) {
		t.Fatalf("bit rot did not persist (err %v)", err)
	}
}

func TestDiskFaultEIOAndNoSpaceLeaveDataIntact(t *testing.T) {
	fs, _, clock := faultFS(DiskFaultPlan{Seed: 4, EveryN: 2, Kinds: []DiskFaultKind{DiskFaultEIO, DiskFaultNoSpace}})
	if err := fs.WriteFile(clock, "f", []byte("stable")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	sawEIO, sawNoSpace := false, false
	for i := 0; i < 64; i++ {
		err := fs.WriteFile(clock, "f", []byte("clobber"))
		if err != nil {
			var eio *ErrIO
			var nospace *ErrNoSpace
			switch {
			case errors.As(err, &eio):
				sawEIO = true
			case errors.As(err, &nospace):
				sawNoSpace = true
			default:
				t.Fatalf("unexpected error kind: %v", err)
			}
			// The failed write must not have touched the file.
			got, rerr := fs.ReadFile(clock, "f")
			for rerr != nil { // reads can draw a transient EIO too
				got, rerr = fs.ReadFile(clock, "f")
			}
			if string(got) == "clobber" {
				t.Fatalf("a failed write clobbered the file")
			}
		}
		// Restore the baseline for the next round.
		for fs.WriteFile(clock, "f", []byte("stable")) != nil {
		}
	}
	if !sawEIO || !sawNoSpace {
		t.Fatalf("plan with both kinds injected eio=%v nospace=%v, want both", sawEIO, sawNoSpace)
	}
}

func TestDiskFaultRenameAtomicUnderFaults(t *testing.T) {
	fs, inj, clock := faultFS(DiskFaultPlan{Seed: 5, EveryN: 2, Kinds: []DiskFaultKind{DiskFaultTornWrite, DiskFaultBitRot}})
	if err := fs.WriteFile(clock, "src", []byte("payload")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Write kinds degrade to EIO on renames; the namespace never tears.
	var renamed bool
	for i := 0; i < 8 && !renamed; i++ {
		err := fs.Rename("src", "dst")
		switch {
		case err == nil:
			renamed = true
		default:
			var eio *ErrIO
			if !errors.As(err, &eio) {
				t.Fatalf("rename fault was %v, want *ErrIO", err)
			}
			if !fs.Exists("src") || fs.Exists("dst") {
				t.Fatalf("failed rename moved files: src=%v dst=%v", fs.Exists("src"), fs.Exists("dst"))
			}
		}
	}
	if !renamed {
		t.Fatalf("rename never succeeded under EveryN=2 plan")
	}
	if fs.Exists("src") || !fs.Exists("dst") {
		t.Fatalf("successful rename left src=%v dst=%v", fs.Exists("src"), fs.Exists("dst"))
	}
	inj.Suspend() // keep the verification read itself unfaulted
	if got, err := fs.ReadFile(clock, "dst"); err != nil || string(got) != "payload" {
		t.Fatalf("renamed file holds %q (err %v)", got, err)
	}
}

func TestDiskFaultPlanDeterministic(t *testing.T) {
	run := func() []DiskFaultEvent {
		fs, inj, clock := faultFS(DiskFaultPlan{Seed: 42, EveryN: 3})
		for i := 0; i < 30; i++ {
			path := fmt.Sprintf("f%d", i%5)
			_ = fs.WriteFile(clock, path, bytes.Repeat([]byte{byte(i)}, 64))
			_, _ = fs.ReadFile(clock, path)
		}
		return inj.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatalf("plan injected nothing")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different fault sequences:\n%v\n%v", a, b)
	}
}

func TestDiskFaultSuspendResumeAndCounts(t *testing.T) {
	fs, inj, clock := faultFS(DiskFaultPlan{Seed: 6, EveryN: 1, Kinds: []DiskFaultKind{DiskFaultEIO}})
	inj.Suspend()
	for i := 0; i < 5; i++ {
		if err := fs.WriteFile(clock, "f", []byte("x")); err != nil {
			t.Fatalf("suspended injector faulted: %v", err)
		}
	}
	inj.Resume()
	if err := fs.WriteFile(clock, "f", []byte("x")); err == nil {
		t.Fatalf("resumed injector did not fault")
	}
	if inj.Ops() != 6 {
		t.Fatalf("Ops() = %d, want 6", inj.Ops())
	}
	if inj.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1", inj.Injected())
	}
}

func TestDiskFaultSkipFirstAndMax(t *testing.T) {
	fs, inj, clock := faultFS(DiskFaultPlan{Seed: 7, EveryN: 1, SkipFirst: 3, Max: 2, Kinds: []DiskFaultKind{DiskFaultEIO}})
	var failures []int
	for i := 1; i <= 8; i++ {
		if err := fs.WriteFile(clock, "f", []byte("x")); err != nil {
			failures = append(failures, i)
		}
	}
	if fmt.Sprint(failures) != "[4 5]" {
		t.Fatalf("faults landed on ops %v, want [4 5]", failures)
	}
	if inj.Injected() != 2 {
		t.Fatalf("Injected() = %d, want 2", inj.Injected())
	}
}

// diskDigest hashes every file of fs, name, length and bytes, in List
// order, so a pinned schedule also pins what its faults left on the disk.
func diskDigest(fs *FS) string {
	h := sha256.New()
	for _, p := range fs.List() {
		fs.mu.Lock()
		data := fs.files[p]
		fs.mu.Unlock()
		fmt.Fprintf(h, "%s:%d:", p, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestDiskFaultSchedulePinned pins one seeded disk plan event for event,
// across writes, renames and reads, with what it left on the disk and the
// time it charged: a change to the seeding, the draw, the class degrade or
// a fault's effect cannot pass by agreeing with itself.
func TestDiskFaultSchedulePinned(t *testing.T) {
	kinds := []DiskFaultKind{DiskFaultTornWrite, DiskFaultLostWrite, DiskFaultBitRot, DiskFaultEIO, DiskFaultNoSpace}
	fs, inj, clock := faultFS(DiskFaultPlan{Seed: 42, EveryN: 2, SkipFirst: 1, Max: 20, Kinds: kinds})
	for i := 0; i < 20; i++ {
		tmp, dst := fmt.Sprintf("tmp%d", i%4), fmt.Sprintf("f%d", i%4)
		_ = fs.WriteFile(clock, tmp, bytes.Repeat([]byte{byte(i)}, 32+i))
		_ = fs.Rename(tmp, dst)
		_, _ = fs.ReadFile(clock, dst)
	}
	want := []DiskFaultEvent{
		{2, DiskFaultEIO, "tmp0"}, {4, DiskFaultEIO, "tmp1"}, {6, DiskFaultEIO, "f1"},
		{8, DiskFaultEIO, "tmp2"}, {10, DiskFaultNoSpace, "tmp3"}, {12, DiskFaultBitRot, "f3"},
		{14, DiskFaultEIO, "tmp0"}, {16, DiskFaultEIO, "tmp1"}, {18, DiskFaultBitRot, "f1"},
		{20, DiskFaultEIO, "tmp2"}, {22, DiskFaultEIO, "tmp3"}, {24, DiskFaultEIO, "f3"},
		{26, DiskFaultEIO, "tmp0"}, {28, DiskFaultLostWrite, "tmp1"}, {30, DiskFaultBitRot, "f1"},
		{32, DiskFaultEIO, "tmp2"}, {34, DiskFaultLostWrite, "tmp3"}, {36, DiskFaultEIO, "f3"},
		{38, DiskFaultEIO, "tmp0"}, {40, DiskFaultTornWrite, "tmp1"},
	}
	if got := inj.Events(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("events diverged from the pinned schedule:\n got %v\nwant %v", got, want)
	}
	if inj.Ops() != 60 || inj.Injected() != 20 {
		t.Fatalf("ops=%d injected=%d, want 60 and 20", inj.Ops(), inj.Injected())
	}
	if got := diskDigest(fs); got != "2109ae6b084f0383" {
		t.Fatalf("disk digest %s, want 2109ae6b084f0383", got)
	}
	if got := clock.Now(); got != 9756 {
		t.Fatalf("clock at %d ns, want 9756", int64(got))
	}
}
