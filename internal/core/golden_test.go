package core

import (
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"testing"

	"checl/internal/apps"
	"checl/internal/ocl"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/apps_golden.json from this run")

const appsGoldenPath = "testdata/apps_golden.json"

// appGolden is one bundled program's reference outcome: the node's final
// virtual time and the digest of every live buffer in object-DB order.
type appGolden struct {
	App     string   `json:"app"`
	VtimeNs int64    `json:"vtime_ns"`
	Buffers []string `json:"buffers"`
}

func runAppGolden(t *testing.T, a apps.App) appGolden {
	t.Helper()
	node := newNodeNV("pc0")
	c, err := Attach(node.Spawn(a.Name), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	env := &apps.Env{API: c, DeviceMask: ocl.DeviceTypeGPU, Scale: 0.125}
	if _, err := a.Run(env); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("%s: drain: %v", a.Name, err)
	}
	g := appGolden{App: a.Name, VtimeNs: int64(node.Clock.Now())}
	digests := memDigests(t, c)
	for _, m := range c.db.orderedMems() {
		g.Buffers = append(g.Buffers, digests[m.H])
	}
	return g
}

// goldenChildEnv marks the child process that runs one comparison pass.
const goldenChildEnv = "CHECL_APPS_GOLDEN_CHILD"

// TestAppsGolden pins every bundled program's final virtual time and buffer
// contents to the values recorded from the tree-walking interpreter at
// GOMAXPROCS=1 (the one configuration in which it ran work-groups in a
// defined order), and requires them at 1, 2 and 8 procs: the executor's
// results and Profile counts may depend on neither scheduling nor core count.
//
// OpenCL handle values embed a process-wide runtime counter and reach
// virtual time through message sizes, so each pass runs in a fresh process:
// the test re-executes its own binary once per GOMAXPROCS value.
func TestAppsGolden(t *testing.T) {
	if *updateGolden {
		var all []appGolden
		for _, a := range apps.All() {
			all = append(all, runAppGolden(t, a))
		}
		data, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(appsGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if os.Getenv(goldenChildEnv) == "" {
		for _, procs := range []string{"1", "2", "8"} {
			cmd := exec.Command(os.Args[0], "-test.run=^TestAppsGolden$", "-test.count=1")
			cmd.Env = append(os.Environ(), goldenChildEnv+"=1", "GOMAXPROCS="+procs)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Errorf("GOMAXPROCS=%s: %v\n%s", procs, err, out)
			}
		}
		return
	}
	data, err := os.ReadFile(appsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []appGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(apps.All()) {
		t.Fatalf("golden file has %d programs, apps.All() has %d", len(want), len(apps.All()))
	}
	for i, a := range apps.All() {
		got, ref := runAppGolden(t, a), want[i]
		if got.App != ref.App || got.VtimeNs != ref.VtimeNs {
			t.Errorf("%s: vtime %d ns, golden %s %d ns", got.App, got.VtimeNs, ref.App, ref.VtimeNs)
		}
		if len(got.Buffers) != len(ref.Buffers) {
			t.Errorf("%s: %d buffers, golden %d", a.Name, len(got.Buffers), len(ref.Buffers))
			continue
		}
		for j := range got.Buffers {
			if got.Buffers[j] != ref.Buffers[j] {
				t.Errorf("%s: buffer %d digest %s, golden %s", a.Name, j, got.Buffers[j], ref.Buffers[j])
			}
		}
	}
}
