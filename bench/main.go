// Command bench is the repository's one benchmark: four closed-loop,
// single-client workloads, every output checked, every metric printed by
// name with its unit. See README.md in this directory.
//
//	go run ./bench                                  # all workloads, end to end
//	go run ./bench -trace 1 -trace-out trace.json   # per-layer numbers
//	go run ./bench -repeat 2                        # acceptance: two sets agree
//	go run ./bench -workload suite -seed 7 -seconds 10 -trace 0   # what BENCHMARK.json runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], fullSizes, fullTrace, os.Stdout, os.Stderr))
}

// run is main with its sizes and streams as parameters, so the smoke test
// can drive the same code at test sizes. It returns the exit code: 0 when
// every check passed, 1 when a check failed, 2 when the run itself broke.
func run(args []string, sz sizes, ts traceSizes, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run one workload (default: all four)")
		seed         = fs.Uint64("seed", 1, "seed for generated buffer contents and window rotation")
		seconds      = fs.Float64("seconds", 20, "keep running timed passes for this long (and at least 5 passes)")
		trace        = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
		traceOut     = fs.String("trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
		repeat       = fs.Int("repeat", 0, "run N end-to-end sets, each in a fresh process, and check they agree within the bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []workload{w}
	}
	budget := time.Duration(*seconds * float64(time.Second))

	if *repeat > 0 {
		if err := runRepeat(selected, *repeat, *seed, *seconds, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	failed := false
	var recs []*recorder
	for _, w := range selected {
		var res result
		var err error
		if *trace != 0 {
			var r []*recorder
			res, r, err = measurePerLayer(w, sz, ts, *seed)
			recs = append(recs, r...)
		} else {
			res, err = measureEndToEnd(w, sz, *seed, budget)
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		if err := res.print(stdout); err != nil {
			return fail(err)
		}
		failed = failed || res.failed > 0
	}
	if *traceOut != "" && *trace != 0 {
		if err := writeChromeTrace(*traceOut, recs); err != nil {
			return fail(err)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// result is one workload's report: a table for people, then one JSON
// object on the last line for the driver.
type result struct {
	workload  string
	header    string
	metrics   []metric
	attempted int
	failed    int
	notes     []string
}

// print writes the table with every value at full precision (the
// shortest decimal that reads back to the same float64): -repeat compares
// the virtual metrics of separate processes for exact equality from it.
func (r result) print(f io.Writer) error {
	fmt.Fprintf(f, "== %s  %s\n", r.workload, r.header)
	for _, m := range r.metrics {
		fmt.Fprintf(f, "%-34s %20s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(f, "FAILED %s\n", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		if inContract(m.name) {
			line.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}

// inContract reports whether BENCHMARK.json declares the metric: every
// per-layer metric, and the end-to-end metrics all workloads share.
func inContract(name string) bool {
	d, ok := endToEndDef(name)
	return !ok || d.shared()
}

// measureEndToEnd runs one workload with tracing off: set-up several
// times (median reported), then timed passes on the CheCL arm until the
// budget is spent, then the workload's finish step.
func measureEndToEnd(w workload, sz sizes, seed uint64, budget time.Duration) (result, error) {
	var (
		setupTimes []float64
		r          runner
		err        error
	)
	for i := 0; i < sz.setups; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t0 := time.Now()
		if r, err = w.setup(sz, seed); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer r.close()

	var (
		outs   []passOut
		allocs []float64
		epoch  = time.Now()
	)
	for n := 0; n < sz.passes || time.Since(epoch) < budget; n++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		out, err := r.pass(armCheCL, newRecorder(w.name, armCheCL, n, false, epoch))
		if err != nil {
			return result{}, fmt.Errorf("pass %d: %w", n, err)
		}
		runtime.ReadMemStats(&m1)
		outs = append(outs, out)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	var fin passOut
	if err := r.finish(&fin); err != nil {
		return result{}, err
	}
	res := summarize(w.name, setupTimes, outs, allocs, fin)
	res.header += fmt.Sprintf(", seed %d", seed)
	return res, nil
}

// runRepeat is the acceptance check: n end-to-end sets must agree. Each
// run is a fresh process, because OpenCL handle values embed a
// process-wide runtime counter and end up in checkpoint images: only a
// fresh process repeats the virtual metrics to the last digit. Virtual
// and count metrics must be identical; a host metric's spread,
// (max-min)/min over the sets, must stay within its bound; no run may
// fail a check.
func runRepeat(ws []workload, n int, seed uint64, seconds float64, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{} // "workload/metric" -> one value per set
	for set := 0; set < n; set++ {
		for _, w := range ws {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if _, werr := stdout.Write(out); werr != nil {
				return werr
			}
			if err != nil {
				return fmt.Errorf("set %d: %s: %w", set, w.name, err)
			}
			for name, v := range parseTable(out) {
				values[w.name+"/"+name] = append(values[w.name+"/"+name], v)
			}
		}
	}
	fmt.Fprintf(stdout, "== repeat  %d sets, seed %d\n", n, seed)
	misses := 0
	for _, w := range ws {
		for _, d := range endToEnd {
			v := values[w.name+"/"+d.name]
			if !d.appliesTo(w.name) {
				continue
			}
			if len(v) != n {
				return fmt.Errorf("repeat: %s reported %s %d times in %d sets", w.name, d.name, len(v), n)
			}
			s := sortedCopy(v)
			lo, hi := s[0], s[n-1]
			verdict := "ok"
			if d.clock == clockHost {
				if ratio(hi-lo, lo) > d.bound {
					verdict = "MISS"
				}
				fmt.Fprintf(stdout, "%-11s %-22s %-7s spread %6.2f %%, bound %5.1f %%  %s\n",
					w.name, d.name, d.clock, 100*ratio(hi-lo, lo), 100*d.bound, verdict)
			} else {
				if lo != hi {
					verdict = "MISS (must be identical)"
				}
				fmt.Fprintf(stdout, "%-11s %-22s %-7s %s  %s\n", w.name, d.name, d.clock, strconv.FormatFloat(lo, 'g', -1, 64), verdict)
			}
			if verdict != "ok" {
				misses++
			}
		}
	}
	if misses > 0 {
		return fmt.Errorf("repeat: %d metrics outside their bounds", misses)
	}
	return nil
}

// parseTable reads back the "name value unit" lines result.print wrote.
func parseTable(out []byte) map[string]float64 {
	values := map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			values[f[0]] = v
		}
	}
	return values
}
