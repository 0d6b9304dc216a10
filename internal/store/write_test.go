package store

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"checl/internal/proc"
	"checl/internal/vtime"
)

// repeating is a payload, avg the store's average chunk size, in which a
// random 36avg bytes come three times, with their first 4avg once more in
// front of them: a chunk repeats a few chunks on, within a window, and
// dozens of chunks on, in another window. Few contents, many chunks.
func repeating(seed int64, avg int) []byte {
	a := payload(seed, 36*avg)
	var b []byte
	for _, part := range [][]byte{a[:4*avg], a, a, a} {
		b = append(b, part...)
	}
	return b
}

// repeatsWithinAndAcross reports whether some chunk of data is cut twice in
// one window of a Put and some in two different windows.
func repeatsWithinAndAcross(ck chunker, data []byte) (within, across bool) {
	first := map[[sha256.Size]byte]int{}
	for i, chunk := range ck.split([][]byte{data}) {
		sum := sha256.Sum256(chunk)
		j, seen := first[sum]
		if !seen {
			first[sum] = i
			continue
		}
		if j/putWindow == i/putWindow {
			within = true
		} else {
			across = true
		}
	}
	return within, across
}

// distinctNew counts the distinct chunk contents of data that are not in
// have, and adds them to it: the chunks a serial Put writes.
func distinctNew(ck chunker, data []byte, have map[[sha256.Size]byte]bool) (n int) {
	for _, chunk := range ck.split([][]byte{data}) {
		if sum := sha256.Sum256(chunk); !have[sum] {
			have[sum] = true
			n++
		}
	}
	return n
}

// TestPutPipelineMatchesSerial: a Put whose pure half runs on workers a
// window ahead of the caller writes, reports and charges what the serial
// write does — GOMAXPROCS 1, where nothing runs ahead — at 2 and 8 procs.
// Each geometry puts a payload of several windows in which a chunk repeats
// inside one window and another across windows, then a generation that
// dedups against the first; and the first again with nodes crashing from
// every tick of the two Puts on: the mirror loses one, which it commits
// around, the 4+2 fleet three, which fail a Put in its pack round or at the
// publish, or not at all when they come late. Every node's files, the
// stats, the clock and the errors are the same at every processor count,
// and whatever the procs a Put that succeeds writes the distinct chunks the
// store did not hold yet, and no other.
func TestPutPipelineMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// Small chunks: many windows in a small payload.
	cfg := Config{MinChunk: 128, AvgChunk: 512, MaxChunk: 2 << 10}
	geos := []struct {
		name  string
		open  func() *Fleet
		down  int  // nodes the crash sweep takes down
		fails bool // and whether some of those Puts fail
	}{
		{"mirror", func() *Fleet { return testMirror(t, testFS(), cfg) }, 1, false},
		{"fleet-4+2", func() *Fleet { f, _ := testFleet(t, 6, FleetConfig{Store: cfg}); return f }, 3, true},
	}
	type outcome struct {
		Stats []PutStats
		Errs  []string
		Clock vtime.Time
		Files [][][2]string
	}
	for _, g := range geos {
		gen0 := repeating(90, cfg.AvgChunk)
		gen1 := append([]byte(nil), gen0...)
		copy(gen1[60*cfg.AvgChunk:70*cfg.AvgChunk], payload(91, 10*cfg.AvgChunk))
		put := func(crash *proc.NodeFaultPlan) outcome {
			f := g.open()
			if crash != nil {
				f.AttachFaults(proc.NewNodeFaultInjector(*crash))
			}
			ck := chunker{min: f.cfg.Store.MinChunk, avg: f.cfg.Store.AvgChunk, max: f.cfg.Store.MaxChunk}
			have := map[[sha256.Size]byte]bool{}
			clock := vtime.NewClock()
			var out outcome
			for gen, data := range [][]byte{gen0, gen1} {
				_, st, err := f.Put(clock, "job", data)
				out.Stats = append(out.Stats, st)
				out.Errs = append(out.Errs, fmt.Sprint(err))
				if want := distinctNew(ck, data, have); err == nil && st.NewChunks != want {
					t.Errorf("%s gen %d: %d new chunks, the store lacked %d distinct ones", g.name, gen, st.NewChunks, want)
				}
				if err != nil {
					break
				}
			}
			out.Clock = clock.Now()
			for _, name := range f.names {
				fs := f.nodes[name].fs
				if st := fs.Node(); st != nil {
					st.SetDown(false)
				}
				out.Files = append(out.Files, listing(fs))
			}
			return out
		}
		f := g.open()
		ck := chunker{min: f.cfg.Store.MinChunk, avg: f.cfg.Store.AvgChunk, max: f.cfg.Store.MaxChunk}
		if n := len(ck.split([][]byte{gen0})); n < 3*putWindow {
			t.Fatalf("%s: %d chunks, fewer than three windows", g.name, n)
		}
		if within, across := repeatsWithinAndAcross(ck, gen0); !within || !across {
			t.Fatalf("%s: a chunk repeats within a window %v, across windows %v", g.name, within, across)
		}
		probe := proc.NewNodeFaultInjector(proc.NodeFaultPlan{})
		f.AttachFaults(probe)
		for _, data := range [][]byte{gen0, gen1} {
			if _, _, err := f.Put(vtime.NewClock(), "job", data); err != nil {
				t.Fatal(err)
			}
		}
		runs := map[string]*proc.NodeFaultPlan{"no fault": nil}
		for p := 0; p < probe.Ops(); p++ {
			runs[fmt.Sprintf("nodes down from tick %d", p)] = &proc.NodeFaultPlan{
				Seed: uint64(p), EveryN: 1, SkipFirst: p, Max: g.down,
				Kinds: []proc.NodeFaultKind{proc.NodeFaultCrash}, MaxDown: g.down,
			}
		}
		failed := 0
		for run, plan := range runs {
			var serial outcome
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				out := put(plan)
				if procs == 1 {
					serial = out
				} else if !reflect.DeepEqual(out, serial) {
					t.Errorf("%s, %s, GOMAXPROCS %d: stats %+v errors %q clock %v\n serial: stats %+v errors %q clock %v",
						g.name, run, procs, out.Stats, out.Errs, out.Clock, serial.Stats, serial.Errs, serial.Clock)
				}
			}
			if serial.Errs[0] != "<nil>" {
				failed++
			}
		}
		if (failed > 0) != g.fails {
			t.Errorf("%s: %d of %d Puts under a crash sweep failed", g.name, failed, len(runs)-1)
		}
	}
}

// TestPutSealsOnlyWhatStoreLacks: with workers, a fault-free Put seals on
// them exactly the chunks it writes — the first of each content the store
// lacks — and no chunk it finds present or cut earlier in the same Put:
// over a payload whose chunks repeat within a window and across windows,
// and a second generation that dedups against the first, at 2 and 8
// procs, on a mirror and on a 4+2 fleet.
func TestPutSealsOnlyWhatStoreLacks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := Config{MinChunk: 128, AvgChunk: 512, MaxChunk: 2 << 10}
	gen0 := repeating(92, cfg.AvgChunk)
	gen1 := append([]byte(nil), gen0...)
	copy(gen1[20*cfg.AvgChunk:30*cfg.AvgChunk], payload(93, 10*cfg.AvgChunk))
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		mirror := testMirror(t, testFS(), cfg)
		fleet, _ := testFleet(t, 6, FleetConfig{Store: cfg})
		for name, f := range map[string]*Fleet{"mirror": mirror, "fleet-4+2": fleet} {
			clock := vtime.NewClock()
			for gen, data := range [][]byte{gen0, gen1} {
				before := f.sealedAhead
				_, st, err := f.Put(clock, "job", data)
				if err != nil {
					t.Fatal(err)
				}
				if sealed := f.sealedAhead - before; sealed != st.NewChunks || st.NewChunks == 0 {
					t.Errorf("%s, GOMAXPROCS %d, gen %d: the workers sealed %d chunks, the Put wrote %d of %d",
						name, procs, gen, sealed, st.NewChunks, st.TotalChunks)
				}
			}
		}
	}
}
