package cpr

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"checl/internal/hw"
	"checl/internal/proc"
	"checl/internal/store"
	"checl/internal/vtime"
)

func TestImageEncodingDeterministic(t *testing.T) {
	// The store deduplicates byte-identical chunks, so an unchanged
	// process must encode to an unchanged file — map iteration order must
	// not leak into the output.
	img := Image{
		ProcessName: "app",
		AppState:    []byte("state"),
		Regions: map[string][]byte{
			"heap": {1, 2, 3}, "stack": {4}, "data": make([]byte, 1000),
			"bss": {9, 9}, "checl.db": []byte("db"),
		},
	}
	first, err := encodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	// The length is computed before the buffer is made: no growth, no slack.
	if cap(first) != len(first) || len(imageMagic) != 8 {
		t.Fatalf("image of %d bytes sits in a buffer of %d (magic %d bytes)", len(first), cap(first), len(imageMagic))
	}
	for i := 0; i < 20; i++ {
		again, err := encodeImage(img)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatal("encoding is not deterministic")
		}
	}
	back, err := decodeImage(first)
	if err != nil {
		t.Fatal(err)
	}
	if back.ProcessName != "app" || string(back.AppState) != "state" ||
		len(back.Regions) != 5 || back.Regions["heap"][2] != 3 {
		t.Errorf("round-trip image = %+v", back)
	}
}

func TestImageHeaderValidation(t *testing.T) {
	good, err := encodeImage(Image{ProcessName: "app", Regions: map[string][]byte{"r": {1, 2}}})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mangle  func([]byte) []byte
		wantErr string
	}{
		{"truncated header", func(b []byte) []byte { return b[:10] }, "truncated"},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-1] }, "checksum"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"future version", func(b []byte) []byte { b[len(imageMagic)+1] = 99; return b }, "version"},
		{"flipped body byte", func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }, "checksum"},
	}
	for _, tc := range cases {
		mangled := tc.mangle(append([]byte(nil), good...))
		_, err := decodeImage(mangled)
		if err == nil {
			t.Errorf("%s: decode succeeded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestStoreCheckpointRestartRoundtrip(t *testing.T) {
	n := node()
	st := store.New(n.LocalDisk, store.Config{})
	p := n.Spawn("app")
	p.SetRegion("heap", []byte{1, 2, 3, 4})
	p.SetRegion("data", make([]byte, 1<<20))

	cst, put, err := BLCR{}.CheckpointToStore(p, st, "app")
	if err != nil {
		t.Fatal(err)
	}
	if put == nil || put.Manifest != "app@1" || cst.Time <= 0 {
		t.Fatalf("stats = %+v, put = %+v", cst, put)
	}

	p.Kill()
	q, rst, deg, err := BLCR{}.RestartFromStore(n, st, "app")
	if err != nil {
		t.Fatal(err)
	}
	if deg != nil {
		t.Fatalf("clean restart reported degradation: %v", deg)
	}
	if q.Name != "app" || q.Region("heap")[2] != 3 || q.MemoryUsage() != 4+1<<20 {
		t.Error("restored image wrong")
	}
	if rst.Time <= 0 {
		t.Error("restart read time not charged")
	}
}

func TestStoreCheckpointDedupsUnchangedProcess(t *testing.T) {
	n := node()
	st := store.New(n.LocalDisk, store.Config{})
	p := n.Spawn("app")
	p.SetRegion("data", make([]byte, 2<<20))

	_, put1, err := BLCR{}.CheckpointToStore(p, st, "app")
	if err != nil {
		t.Fatal(err)
	}
	_, put2, err := BLCR{}.CheckpointToStore(p, st, "app")
	if err != nil {
		t.Fatal(err)
	}
	if put2.NewBytes != 0 {
		t.Errorf("unchanged process re-uploaded %d bytes (first wrote %d)", put2.NewBytes, put1.NewBytes)
	}
	if put2.Manifest != "app@2" {
		t.Errorf("manifest = %s", put2.Manifest)
	}
}

func TestStoreCheckpointEnforcesEligibility(t *testing.T) {
	n := node()
	st := store.New(n.LocalDisk, store.Config{})

	mapped := n.Spawn("opencl-app")
	mapped.MapDevice()
	var dme *DeviceMappedError
	if _, _, err := (BLCR{}).CheckpointToStore(mapped, st, "j1"); !errors.As(err, &dme) {
		t.Errorf("blcr store checkpoint of device-mapped process: err = %v", err)
	}

	app := n.Spawn("app")
	proxy := app.Fork("proxy")
	proxy.MapDevice()
	if _, _, err := (DMTCP{}).CheckpointToStore(app, st, "j2"); !errors.As(err, &dme) {
		t.Errorf("dmtcp store checkpoint with live proxy: err = %v", err)
	}
	if _, _, err := (BLCR{}).CheckpointToStore(app, st, "j2"); err != nil {
		t.Errorf("blcr should ignore the proxy child: %v", err)
	}

	dead := n.Spawn("dead")
	dead.Kill()
	if _, _, err := (BLCR{}).CheckpointToStore(dead, st, "j3"); err == nil {
		t.Error("store checkpoint of dead process must fail")
	}
}

func TestStoreCheckpointSurfacesNoSpace(t *testing.T) {
	n := node()
	tiny := proc.NewFS("tiny", hw.TableISpec().LocalDisk, proc.WithCapacity(32<<10))
	st := store.New(tiny, store.Config{})
	p := n.Spawn("app")
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data) // incompressible, so it cannot squeeze under the cap
	p.SetRegion("data", data)
	_, _, err := BLCR{}.CheckpointToStore(p, st, "app")
	var nospace *proc.ErrNoSpace
	if !errors.As(err, &nospace) {
		t.Fatalf("err = %v, want *proc.ErrNoSpace", err)
	}
}

func TestReadImageFromStore(t *testing.T) {
	n := node()
	st := store.New(n.LocalDisk, store.Config{})
	p := n.Spawn("app")
	p.SetRegion("heap", []byte{7})
	if _, _, err := (BLCR{}).CheckpointToStore(p, st, "app"); err != nil {
		t.Fatal(err)
	}
	img, err := ReadImageFromStore(vtime.NewClock(), st, "app@1")
	if err != nil {
		t.Fatal(err)
	}
	if img.ProcessName != "app" || img.Regions["heap"][0] != 7 {
		t.Errorf("image = %+v", img)
	}
	if _, err := ReadImageFromStore(vtime.NewClock(), st, "nosuch"); err == nil {
		t.Error("reading a missing checkpoint must fail")
	}
}
