package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
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

// TestStoreFleetGolden pins what `checl-inspect -node-faults 11 store fleet`
// prints: the fault plan is seeded and every time is virtual, so the whole
// report — packs and records per node, the degraded read, the rebuild, the
// heal ledger — is a fixed text.
func TestStoreFleetGolden(t *testing.T) {
	const args = "-node-faults 11 store fleet"
	const golden = "testdata/store_fleet.golden"
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), inspectChildEnv+"="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("checl-inspect %s: %v\n%s", args, err, stderr.String())
	}
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("checl-inspect %s printed\n%s\nwant\n%s", args, got, want)
	}
}
