package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden outputs under testdata/ from this run")

// inspectChildEnv carries the command line of a child run: the test binary
// re-executes itself as checl-inspect, because what the tool prints is only
// reproducible to the last digit in a fresh process (OpenCL handle values
// embed a process-wide counter and end up in checkpoint images).
const inspectChildEnv = "CHECL_INSPECT_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(inspectChildEnv); ok {
		os.Args = append([]string{"checl-inspect"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// inspect runs checl-inspect with args in a child process and returns what
// it printed.
func inspect(t *testing.T, args string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), inspectChildEnv+"="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("checl-inspect %s: %v\n%s", args, err, stderr.String())
	}
	return out
}

// TestImageRegionsListedInOrder: the process image's regions are listed by
// name, not in the order a map happens to give them.
func TestImageRegionsListedInOrder(t *testing.T) {
	var names []string
	for _, line := range strings.Split(string(inspect(t, "-faults 7")), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "region" {
			names = append(names, f[1])
		}
	}
	if len(names) < 3 || !sort.StringsAreSorted(names) {
		t.Fatalf("image regions listed as %q, want at least three, sorted", names)
	}
}

// TestStoreFleetGolden pins what the store invocations scripts/check.sh
// smokes print: fault plans are seeded and every time is virtual, so each
// whole report — packs and records per node, the degraded read, the
// rebuild, the heal ledger — is a fixed text.
func TestStoreFleetGolden(t *testing.T) {
	for _, tc := range []struct{ args, golden string }{
		{"-node-faults 11 store fleet", "testdata/store_fleet.golden"},
		{"store fsck", "testdata/store_fsck.golden"},
		{"-disk-faults 7 store scrub", "testdata/store_scrub.golden"},
	} {
		got := inspect(t, tc.args)
		if *updateGolden {
			if err := os.WriteFile(tc.golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("checl-inspect %s printed\n%s\nwant\n%s", tc.args, got, want)
		}
	}
}
