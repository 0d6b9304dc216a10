package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// The smoke tests run the benchmark's own main at test sizes. They do it
// in child processes of the test binary: only a fresh process repeats the
// virtual metrics to the last digit (see runRepeat).
const childEnv = "CHECL_BENCH_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], shortSizes, shortTrace, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func child(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bench %v: %v\n%s%s", args, err, out, stderr.Bytes())
	}
	return out
}

// lastLine decodes the JSON object the driver reads.
func lastLine(t *testing.T, out []byte) (line struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return line
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCheckerCatchesOneByte: the output check must fail on a one-byte
// difference, and only then.
func TestCheckerCatchesOneByte(t *testing.T) {
	want := make([]byte, 64<<10)
	(&rng{s: 9}).fillRandom(want)
	got := append([]byte(nil), want...)
	var c checker
	c.equal("same", got, want)
	if c.failed != 0 || c.checked != 1 {
		t.Fatalf("identical buffers: checked %d, failed %d", c.checked, c.failed)
	}
	got[len(got)-1] ^= 1
	c.equal("flipped", got, want)
	if c.failed != 1 || c.checked != 2 || len(c.notes) != 1 {
		t.Fatalf("one flipped bit: checked %d, failed %d, notes %v", c.checked, c.failed, c.notes)
	}
}

// TestEndToEndSmoke runs every workload twice, end to end, at test sizes:
// all checks pass, each workload prints exactly the metrics declared for
// it, the result object carries exactly the shared ones, and the two
// runs agree on every virtual and count metric to the last digit.
func TestEndToEndSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			var runs [2]map[string]float64
			for i := range runs {
				out := child(t, "-workload", w.name, "-seed", "3", "-seconds", "0", "-trace", "0")
				runs[i] = parseTable(out)
				line := lastLine(t, out)
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Fatalf("run %d: correct=%v attempted=%d failed=%d\n%s", i, line.Correct, line.Attempted, line.Failed, out)
				}
				for _, d := range endToEnd {
					_, printed := runs[i][d.name]
					if printed != d.appliesTo(w.name) {
						t.Errorf("run %d: metric %s printed=%v, declared for %s=%v", i, d.name, printed, w.name, d.appliesTo(w.name))
					}
					m, inLine := line.Metrics[d.name]
					if want := d.shared(); inLine != want {
						t.Errorf("run %d: metric %s in result object=%v, want %v", i, d.name, inLine, want)
					} else if inLine && (m.Unit != d.unit || m.Value <= 0) {
						t.Errorf("run %d: %s = %v %q, want a positive value in %q", i, d.name, m.Value, m.Unit, d.unit)
					}
				}
				if len(line.Metrics) != countShared(runs[i]) {
					t.Errorf("run %d: result object has %d metrics, table has %d shared ones", i, len(line.Metrics), countShared(runs[i]))
				}
			}
			for _, d := range endToEnd {
				if d.clock != clockHost && runs[0][d.name] != runs[1][d.name] {
					t.Errorf("%s metric %s differs between two runs: %v vs %v", d.clock, d.name, runs[0][d.name], runs[1][d.name])
				}
			}
		})
	}
}

func countShared(table map[string]float64) int {
	n := 0
	for name := range table {
		if d, ok := endToEndDef(name); ok && d.shared() {
			n++
		}
	}
	return n
}

// TestPerLayerSmoke runs one traced run per workload at test sizes: every
// declared per-layer metric is reported, under a well-formed name, and
// the Chrome trace is valid JSON whose spans nest.
func TestPerLayerSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			tracePath := t.TempDir() + "/trace.json"
			out := child(t, "-workload", w.name, "-seed", "3", "-trace", "1", "-trace-out", tracePath)
			line := lastLine(t, out)
			if !line.Correct || line.Failed != 0 {
				t.Fatalf("correct=%v failed=%d\n%s", line.Correct, line.Failed, out)
			}
			if len(line.Metrics) != len(perLayerNames) {
				t.Errorf("result object has %d metrics, %d declared", len(line.Metrics), len(perLayerNames))
			}
			for _, m := range perLayerNames {
				got, ok := line.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("metric %s: reported=%v unit %q, want unit %q", m.name, ok, got.Unit, m.unit)
				}
			}
			var trace struct {
				TraceEvents []struct {
					Name string
					Cat  string
					Ph   string
					TS   float64
					Dur  float64
					Args struct{ ID, Parent int }
				}
			}
			data, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &trace); err != nil {
				t.Fatalf("trace-out is not JSON: %v", err)
			}
			if len(trace.TraceEvents) == 0 {
				t.Fatal("trace-out holds no spans")
			}
			for _, e := range trace.TraceEvents {
				if e.Ph != "X" || e.Name == "" || e.Cat == "" || e.Dur < 0 || e.Args.Parent >= e.Args.ID {
					t.Fatalf("malformed span %+v", e)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code in step: same
// workloads, same metric names and units, counts within the contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []decl
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code", n, len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q / %q does not match the code's %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var shared []metricDef
	for _, d := range endToEnd {
		if d.shared() {
			shared = append(shared, d)
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 || n != len(shared) {
		t.Fatalf("%d end_to_end metrics declared, %d shared by all workloads in the code", n, len(shared))
	}
	for i, m := range spec.EndToEnd {
		d := shared[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound > 0.25 || !nameRE.MatchString(m.Name) {
			t.Errorf("end_to_end %d: %+v does not match the code's %+v", i, m, d)
		}
		// The driver compares medians across seeds, so a virtual metric
		// gets the smallest bound that still covers its seed-to-seed
		// spread; a host metric gets the bound the code gates on.
		if d.clock == clockHost && *m.Bound != d.bound {
			t.Errorf("end_to_end %s: bound %v, the code gates on %v", m.Name, *m.Bound, d.bound)
		}
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 || n != len(perLayerNames) {
		t.Fatalf("%d per_layer metrics declared, %d in the code", n, len(perLayerNames))
	}
	seen := map[string]bool{}
	for i, m := range spec.PerLayer {
		d := perLayerNames[i]
		if m.Name != d.name || m.Unit != d.unit || m.Bound != nil || !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per_layer %d: %+v does not match the code's %s %s", i, m, d.name, d.unit)
		}
		seen[m.Name] = true
	}
}
