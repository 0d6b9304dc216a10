package cpr

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
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
	first := encodeImage(img)
	// The length is computed before the buffer is made: no growth, no slack.
	if cap(first) != len(first) || len(imageMagic) != 8 {
		t.Fatalf("image of %d bytes sits in a buffer of %d (magic %d bytes)", len(first), cap(first), len(imageMagic))
	}
	for i := 0; i < 20; i++ {
		if !bytes.Equal(first, encodeImage(img)) {
			t.Fatal("encoding is not deterministic")
		}
	}
	back, err := decodeImage(first, flatImageVersion)
	if err != nil {
		t.Fatal(err)
	}
	if back.ProcessName != "app" || string(back.AppState) != "state" ||
		len(back.Regions) != 5 || back.Regions["heap"][2] != 3 {
		t.Errorf("round-trip image = %+v", back)
	}
}

func TestImageHeaderValidation(t *testing.T) {
	good := encodeImage(Image{ProcessName: "app", Regions: map[string][]byte{"r": {1, 2}}})

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
		{"store version", func(b []byte) []byte { b[len(imageMagic)+1] = storeImageVersion; return b }, "version"},
	}
	for _, tc := range cases {
		mangled := tc.mangle(append([]byte(nil), good...))
		_, err := decodeImage(mangled, flatImageVersion)
		if err == nil {
			t.Errorf("%s: decode succeeded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

// FuzzDecodeImage: the image decoder never panics on arbitrary bytes, every
// refusal is an ImageError, each version's reader refuses the other's
// images, and whatever a reader accepts survives its own encoding. Seeds:
// what each backend writes to a file and to a store, truncated, with a bad
// checksum or a torn instant.
func FuzzDecodeImage(f *testing.F) {
	n := node()
	app := n.Spawn("app")
	app.SetRegion("heap", []byte{1, 2, 3, 4})
	app.SetRegion("checl.db", []byte("db"))
	app.Fork("worker") // a device-free child: DMTCP walks the tree past it
	for _, b := range []Backend{BLCR{}, DMTCP{}} {
		if _, err := b.Checkpoint(app, n.LocalDisk, b.Name()); err != nil {
			f.Fatal(err)
		}
		file, err := n.LocalDisk.ReadFile(vtime.NewClock(), b.Name())
		if err != nil {
			f.Fatal(err)
		}
		segs, _, err := StoreImage(b, app, nil)
		if err != nil {
			f.Fatal(err)
		}
		for _, img := range [][]byte{file, joined(segs)} {
			f.Add(img)
			f.Add(img[:len(img)-3])
			f.Add(img[:imageHeaderLen(storeImageVersion)-1])
			flipped := append([]byte(nil), img...)
			flipped[imageHeaderLen(storeImageVersion)-1] ^= 1
			f.Add(flipped)
		}
	}
	// check decodes data as version and, when it is accepted, re-encodes it
	// in that version and decodes it back.
	check := func(t *testing.T, data []byte, version uint16) {
		img, err := decodeImage(data, version)
		if err != nil {
			var ie ImageError
			if !errors.As(err, &ie) {
				t.Fatalf("refusal is not an ImageError: %v", err)
			}
			return
		}
		other := uint16(flatImageVersion + storeImageVersion - version)
		if _, err := decodeImage(data, other); err == nil {
			t.Fatalf("a version %d image decodes as version %d", version, other)
		}
		again := encodeImage(img)
		if version == storeImageVersion {
			segs, _ := storeSegments(img, nil, 7)
			again = joined(segs)
		}
		back, err := decodeImage(again, version)
		if err != nil {
			t.Fatalf("an accepted image does not survive its own encoding: %v", err)
		}
		if back.ProcessName != img.ProcessName || !bytes.Equal(back.AppState, img.AppState) || len(back.Regions) != len(img.Regions) {
			t.Fatalf("re-decoded image differs: %+v vs %+v", back, img)
		}
		for name, region := range img.Regions {
			if got, ok := back.Regions[name]; !ok || !bytes.Equal(got, region) {
				t.Fatalf("region %q differs after re-encoding", name)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data, flatImageVersion)
		check(t, data, storeImageVersion)
		// The fuzzer cannot forge a SHA-256, so the file body parser would
		// only ever see the seeds: give it the same bytes as a body under a
		// header that vouches for them.
		sealed := append(append([]byte(nil), imageMagic...), 0, flatImageVersion)
		sum := sha256.Sum256(data)
		check(t, append(append(sealed, sum[:]...), data...), flatImageVersion)
	})
}

func TestStoreCheckpointRestartRoundtrip(t *testing.T) {
	n := node()
	st := store.New(n.LocalDisk, store.Config{})
	p := n.Spawn("app")
	p.SetRegion("heap", []byte{1, 2, 3, 4})
	p.SetRegion("data", make([]byte, 1<<20))

	cst, put, err := BLCR{}.CheckpointToStoreIncremental(p, st, "app", nil)
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

// TestStoreCheckpointDedupsUnchangedProcess: an unchanged process stores
// nothing again but its head.
func TestStoreCheckpointDedupsUnchangedProcess(t *testing.T) {
	n := node()
	st := store.New(n.LocalDisk, store.Config{})
	p := n.Spawn("app")
	p.SetRegion("data", make([]byte, 2<<20))

	_, put1, err := BLCR{}.CheckpointToStoreIncremental(p, st, "app", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, put2, err := BLCR{}.CheckpointToStoreIncremental(p, st, "app", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only the head is new: it carries the dump's instant.
	segs, _, err := StoreImage(BLCR{}, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if put2.NewChunks != 1 || put2.NewBytes != segs[0].Len {
		t.Errorf("unchanged process re-uploaded %d chunks, %d bytes (first wrote %d; the head is %d)", put2.NewChunks, put2.NewBytes, put1.NewBytes, segs[0].Len)
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
	if _, _, err := (BLCR{}).CheckpointToStoreIncremental(mapped, st, "j1", nil); !errors.As(err, &dme) {
		t.Errorf("blcr store checkpoint of device-mapped process: err = %v", err)
	}

	app := n.Spawn("app")
	proxy := app.Fork("proxy")
	proxy.MapDevice()
	if _, _, err := (DMTCP{}).CheckpointToStoreIncremental(app, st, "j2", nil); !errors.As(err, &dme) {
		t.Errorf("dmtcp store checkpoint with live proxy: err = %v", err)
	}
	if _, _, err := (BLCR{}).CheckpointToStoreIncremental(app, st, "j2", nil); err != nil {
		t.Errorf("blcr should ignore the proxy child: %v", err)
	}

	dead := n.Spawn("dead")
	dead.Kill()
	if _, _, err := (BLCR{}).CheckpointToStoreIncremental(dead, st, "j3", nil); err == nil {
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
	_, _, err := BLCR{}.CheckpointToStoreIncremental(p, st, "app", nil)
	var nospace *proc.ErrNoSpace
	if !errors.As(err, &nospace) {
		t.Fatalf("err = %v, want *proc.ErrNoSpace", err)
	}
}

// TestImageLayoutIsTheEncoding: the slices a store checkpoint hands over
// concatenate to a store image that decodes to the image, whose body is the
// file the flat-file path writes behind its own header, and whose header
// carries the dump instant; there is one segment per region after the head,
// and a nil clean map marks no region clean.
func TestImageLayoutIsTheEncoding(t *testing.T) {
	img := Image{ProcessName: "app", AppState: []byte("state"), Regions: map[string][]byte{
		"heap": payloadBytes(1, 5000), "stack": {4}, "checl.mem/1f": payloadBytes(2, 70000), "empty": nil,
	}}
	file := encodeImage(img)
	const at = vtime.Time(123456789)
	for _, clean := range []map[string]bool{nil, {"heap": true}} {
		segs, size := storeSegments(img, clean, at)
		var got []byte
		for _, sg := range segs {
			if sg.Off != int64(len(got)) {
				t.Errorf("segment %q at offset %d, its bytes start at %d", sg.Name, sg.Off, len(got))
			}
			for _, b := range sg.Data {
				got = append(got, b...)
			}
		}
		hdr := imageHeaderLen(storeImageVersion)
		if size != int64(len(got)) || !bytes.Equal(got[hdr:], file[imageHeaderLen(flatImageVersion):]) {
			t.Errorf("clean=%v: %d segments hold %d bytes (size %d), not the file's body behind a store header", clean, len(segs), len(got), size)
		}
		if stamp := vtime.Time(binary.BigEndian.Uint64(got[hdr-8:])); stamp != at {
			t.Errorf("clean=%v: header stamped %v, the dump was at %v", clean, stamp, at)
		}
		if back, err := decodeImage(got, storeImageVersion); err != nil || len(back.Regions) != len(img.Regions) || !bytes.Equal(back.Regions["heap"], img.Regions["heap"]) {
			t.Errorf("clean=%v: store image does not decode to the image: %v", clean, err)
		}
		if len(segs) != 1+len(img.Regions) || segs[0].Name != "_head" || segs[3].Name != "region/heap" || segs[3].Clean != (clean != nil) || segs[4].Clean {
			t.Errorf("clean=%v: segments %+v", clean, segs)
		}
	}
}

// joined is the bytes store segments carry, concatenated: the payload they
// stand for.
func joined(segs []store.Segment) []byte {
	var out []byte
	for _, sg := range segs {
		for _, part := range sg.Data {
			out = append(out, part...)
		}
	}
	return out
}

func payloadBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func testFleet(t *testing.T) *store.Fleet {
	t.Helper()
	nodes := make([]store.FleetNode, 6)
	for i := range nodes {
		name := string(rune('a' + i))
		nodes[i] = store.FleetNode{Name: name, FS: proc.NewFS(name, hw.TableISpec().LocalDisk)}
	}
	f, err := store.NewFleet(nodes, store.FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestStoreCheckpointLendsViews: the store is handed views of the stopped
// process's regions, so what it must not do is keep one. The process
// scribbles over every region the moment the checkpoint returns; the
// restart still sees the checkpointed bytes.
func TestStoreCheckpointLendsViews(t *testing.T) {
	backends := map[string]func() store.Backend{
		"disk":  func() store.Backend { return store.New(node().LocalDisk, store.Config{}) },
		"fleet": func() store.Backend { return testFleet(t) },
	}
	for name, open := range backends {
		n, st := node(), open()
		p := n.Spawn("app")
		want := map[string][]byte{"heap": payloadBytes(3, 300<<10), "ramp": bytes.Repeat([]byte("0123456789abcdef"), 8<<10), "small": {1, 2, 3}}
		for r, b := range want {
			p.SetRegion(r, append([]byte(nil), b...))
		}
		for gen, clean := range []map[string]bool{{}, {"heap": true, "ramp": true}} {
			if _, _, err := (BLCR{}).CheckpointToStoreIncremental(p, st, "app", clean); err != nil {
				t.Fatalf("%s gen %d: %v", name, gen, err)
			}
			for r := range want {
				region := p.Region(r)
				for i := range region {
					region[i] ^= 0xFF
				}
			}
			q, _, deg, err := (BLCR{}).RestartFromStore(n, st, "app")
			if err != nil || deg != nil {
				t.Fatalf("%s gen %d: restart: %v %v", name, gen, err, deg)
			}
			for r, b := range want {
				if !bytes.Equal(q.Region(r), b) {
					t.Errorf("%s gen %d: region %q restored differs from what was checkpointed", name, gen, r)
				}
			}
			q.Kill()
			for r, b := range want { // back to the checkpointed contents: the clean flags of gen 1 are honest
				copy(p.Region(r), b)
			}
		}
	}
}

// TestCleanCheckpointAllocatesNoImage: a generation whose regions are all
// clean costs a hash pass, not a copy — checkpointing 16 MiB allocates
// less than an eighth of that, store included.
func TestCleanCheckpointAllocatesNoImage(t *testing.T) {
	const regions, each = 16, 1 << 20
	n := node()
	st := store.New(n.LocalDisk, store.Config{})
	p := n.Spawn("app")
	clean := map[string]bool{}
	for i := 0; i < regions; i++ {
		name := string(rune('a' + i))
		p.SetRegion(name, payloadBytes(int64(i), each))
		clean[name] = true
	}
	if _, _, err := (BLCR{}).CheckpointToStoreIncremental(p, st, "app", map[string]bool{}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, put, err := BLCR{}.CheckpointToStoreIncremental(p, st, "app", clean)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if put.ReusedBytes < regions*each {
		t.Fatalf("clean generation reused %d bytes of %d", put.ReusedBytes, regions*each)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > regions*each/8 {
		t.Errorf("checkpointing %d MiB of clean regions allocated %d KiB, want under %d", regions*each>>20, got>>10, regions*each/8>>10)
	}
}

// TestWronglyCleanRegionRestoresCurrent: a region flagged clean whose bytes
// changed is a claim the store checks: the Put finds the bytes do not hash
// to the parent's refs, stores the region as dirty and counts it, and the
// restart brings back the generation just written, bit-identical, without
// degrading.
func TestWronglyCleanRegionRestoresCurrent(t *testing.T) {
	backends := map[string]func() store.Backend{
		"1+0": func() store.Backend { return store.New(node().LocalDisk, store.Config{}) },
		"4+2": func() store.Backend { return testFleet(t) },
	}
	for name, open := range backends {
		n, st := node(), open()
		p := n.Spawn("app")
		heap, small := payloadBytes(5, 200<<10), []byte{1, 2, 3}
		p.SetRegion("heap", append([]byte(nil), heap...))
		p.SetRegion("small", append([]byte(nil), small...))
		if _, _, err := (BLCR{}).CheckpointToStoreIncremental(p, st, "app", nil); err != nil {
			t.Fatalf("%s: gen 1: %v", name, err)
		}
		heap = payloadBytes(6, 200<<10)
		copy(p.Region("heap"), heap)
		_, put, err := (BLCR{}).CheckpointToStoreIncremental(p, st, "app", map[string]bool{"heap": true, "small": true})
		if err != nil {
			t.Fatalf("%s: gen 2: %v", name, err)
		}
		if put.RefutedClean != 1 || put.ReusedBytes == 0 || put.ReusedBytes >= int64(len(heap)) {
			t.Fatalf("%s: gen 2 refuted %d claims and reused %d bytes, want the heap's claim refuted and small's taken", name, put.RefutedClean, put.ReusedBytes)
		}
		q, _, deg, err := (BLCR{}).RestartFromStore(n, st, "app")
		if err != nil {
			t.Fatalf("%s: restart: %v", name, err)
		}
		if deg != nil {
			t.Errorf("%s: restart degraded: %+v", name, deg)
		}
		if !bytes.Equal(q.Region("heap"), heap) || !bytes.Equal(q.Region("small"), small) {
			t.Errorf("%s: restored regions are not app@2's", name)
		}
		q.Kill()
	}
}

// TestStoreHeadIsEachGenerationsOwn: the head of a store image is stamped
// with its dump's instant, so the head of a generation that changed never
// repeats an older one and is written in its own generation's packs: a
// restore reads no older generation's pack to get its head. A generation
// that claims every region clean keeps its parent's stamp, and with it the
// parent's head: an unchanged image stores nothing.
func TestStoreHeadIsEachGenerationsOwn(t *testing.T) {
	backends := map[string]func() *store.Fleet{
		"1+0": func() *store.Fleet { return store.New(node().LocalDisk, store.Config{}) },
		"4+2": func() *store.Fleet { return testFleet(t) },
	}
	for name, open := range backends {
		st := open()
		p := node().Spawn("app")
		p.SetRegion("big", payloadBytes(7, 256<<10))
		p.SetRegion("heap", payloadBytes(8, 1<<10))
		for gen := 1; gen <= 4; gen++ {
			copy(p.Region("heap"), payloadBytes(int64(10+gen), 1<<10))
			if _, _, err := (BLCR{}).CheckpointToStoreIncremental(p, st, "app", map[string]bool{"big": gen > 1}); err != nil {
				t.Fatalf("%s: gen %d: %v", name, gen, err)
			}
		}
		mans, issues := st.Manifests()
		if len(mans) != 4 || len(issues) != 0 {
			t.Fatalf("%s: %d manifests, issues %v", name, len(mans), issues)
		}
		older := map[string]bool{}
		for _, m := range mans {
			head := m.Chunks[:m.Segments[0].Chunks]
			if m.Segments[0].Name != "_head" || len(head) == 0 {
				t.Fatalf("%s: %s: first segment %+v", name, m.ID(), m.Segments[0])
			}
			for _, c := range head {
				if older[c.Sum] {
					t.Errorf("%s: %s's head chunk %.12s lies in an older generation's pack", name, m.ID(), c.Sum)
				}
			}
			for _, c := range m.Chunks {
				older[c.Sum] = true
			}
		}
		_, put, err := (BLCR{}).CheckpointToStoreIncremental(p, st, "app", map[string]bool{"big": true, "heap": true})
		if err != nil {
			t.Fatalf("%s: unchanged gen: %v", name, err)
		}
		if put.NewChunks != 0 || put.RefutedClean != 0 {
			t.Errorf("%s: an unchanged image claimed clean stored %d new chunks (%d claims refuted)", name, put.NewChunks, put.RefutedClean)
		}
	}
}
