package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"reflect"
	"testing"

	"checl/internal/proc"
	"checl/internal/vtime"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/store_golden.json from this run")

// goldenRun is everything one replay of the fixed script leaves behind:
// the bytes on every backing filesystem, every stat the store returned and
// the virtual time it charged.
type goldenRun struct {
	FS      map[string][][2]string // fs name -> sorted (path, sha256)
	Puts    []PutStats
	GC      GCStats
	Segment string // sha256 of the GetSegment payload
	Restore string // manifest GetNewestRestorable settled on
	Skipped []SkippedCheckpoint
	Heals   HealStats
	Clock   vtime.Time
}

func listing(fs *proc.FS) [][2]string {
	var out [][2]string
	for _, p := range fs.List() {
		data, err := fs.ReadFile(vtime.NewClock(), p)
		if err != nil {
			panic(err)
		}
		sum := sha256.Sum256(data)
		out = append(out, [2]string{p, hex.EncodeToString(sum[:])})
	}
	return out
}

// goldenScript replays one fixed history on b: three generations of a
// segmented payload with clean segments (one of them clean with no parent
// to inherit from), a cross-job duplicate, GC(2), one segment read and one
// restore walk whose validate hook rejects the newest generation.
func goldenScript(t *testing.T, b Backend, gc func(int) (GCStats, error)) goldenRun {
	t.Helper()
	clock := vtime.NewClock()
	var run goldenRun
	put := func(job string, data []byte, segs []Segment) {
		t.Helper()
		_, st, err := b.PutSegmented(clock, job, data, segs)
		if err != nil {
			t.Fatalf("put %s: %v", job, err)
		}
		run.Puts = append(run.Puts, st)
	}
	parts := map[string][]byte{"a": payload(41, 96<<10), "b": payload(42, 16<<10), "c": payload(43, 48<<10)}
	build := func(clean map[string]bool, names ...string) ([]byte, []Segment) {
		var data []byte
		var segs []Segment
		for _, n := range names {
			segs = append(segs, Segment{Name: n, Off: int64(len(data)), Len: int64(len(parts[n])), Clean: clean[n]})
			data = append(data, parts[n]...)
		}
		return data, segs
	}

	data, segs := build(nil, "a", "b", "c")
	put("job", data, segs)
	parts["b"] = payload(44, 16<<10)
	data, segs = build(map[string]bool{"a": true, "c": true}, "a", "b", "c")
	put("job", data, segs)
	parts["c"] = payload(45, 48<<10)
	parts["d"] = payload(46, 8<<10)
	data, segs = build(map[string]bool{"a": true, "b": true, "d": true}, "a", "b", "c", "d")
	put("job", data, segs)
	put("twin", data, nil)

	var err error
	if run.GC, err = gc(2); err != nil {
		t.Fatalf("gc: %v", err)
	}
	seg, _, err := b.GetSegment(clock, "job", "b")
	if err != nil {
		t.Fatalf("get segment: %v", err)
	}
	sum := sha256.Sum256(seg)
	run.Segment = hex.EncodeToString(sum[:])
	_, man, deg, err := b.GetNewestRestorable(clock, "job", func(_ []byte, m Manifest) error {
		if m.Seq == 3 {
			return errors.New("golden script rejects generation 3")
		}
		return nil
	})
	if err != nil || deg == nil {
		t.Fatalf("restore walk: man %s deg %v err %v", man.ID(), deg, err)
	}
	run.Restore, run.Skipped = man.ID(), deg.Skipped
	run.Clock = clock.Now()
	return run
}

// TestStoreGolden pins the store byte for byte against a recording: same
// files on every backing filesystem, same stats, same virtual time, for a
// mirror and for a 4+2 fleet.
func TestStoreGolden(t *testing.T) {
	got := map[string]goldenRun{}
	fleet, _ := testFleet(t, 6, FleetConfig{})
	for arm, f := range map[string]*Fleet{"1+1": testMirror(t, testFS(), Config{}), "fleet-4+2": fleet} {
		run := goldenScript(t, f, f.GC)
		run.FS = map[string][][2]string{}
		for _, name := range f.Nodes() {
			run.FS[name] = listing(nodeFS(f, name))
		}
		run.Heals = f.Heals()
		got[arm] = run
	}

	const path = "testdata/store_golden.json"
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g := got[name]
		for fs, files := range w.FS {
			if !reflect.DeepEqual(g.FS[fs], files) {
				t.Errorf("%s: files on %s differ from the recording (%d now, %d recorded)", name, fs, len(g.FS[fs]), len(files))
			}
		}
		g.FS, w.FS = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got  %+v\n want %+v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d arms ran, %d recorded", len(got), len(want))
	}
}
