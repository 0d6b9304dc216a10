package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblations(t *testing.T) {
	results, err := Ablations(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("ablations = %d, want 8", len(results))
	}
	byName := map[string]AblationResult{}
	for _, r := range results {
		byName[r.Name] = r
	}

	mode := byName["checkpoint-mode"]
	if len(mode.Variants) != 2 || !(mode.Variants[0].Value > 5*mode.Variants[1].Value) {
		t.Errorf("mode ablation: immediate sync should dwarf delayed: %+v", mode.Variants)
	}

	destr := byName["destructive-checkpoint"]
	if len(destr.Variants) != 2 || !(destr.Variants[1].Value > 100*maxDur(destr.Variants[0].Value, 1)) {
		t.Errorf("destructive ablation: %+v", destr.Variants)
	}

	inc := byName["incremental-checkpoint"]
	if len(inc.Variants) != 2 || !(inc.Variants[0].Value > inc.Variants[1].Value) {
		t.Errorf("incremental ablation: %+v", inc.Variants)
	}

	storage := byName["checkpoint-storage"]
	if len(storage.Variants) != 3 {
		t.Fatalf("storage ablation: %+v", storage.Variants)
	}
	var disk, nfs, ram = storage.Variants[0].Value, storage.Variants[1].Value, storage.Variants[2].Value
	if !(ram < disk/10 && disk < nfs) {
		t.Errorf("storage ordering: disk=%v nfs=%v ram=%v", disk, nfs, ram)
	}

	cas := byName["checkpoint-store"]
	if len(cas.Variants) != 4 {
		t.Fatalf("store ablation: %+v", cas.Variants)
	}
	flat, dedup := cas.Variants[0].Value, cas.Variants[1].Value
	if !(dedup < flat/2) {
		t.Errorf("store ablation: deduped 2nd checkpoint write %v not under half of flat %v", dedup, flat)
	}
	nfsRead, localRead := cas.Variants[2].Value, cas.Variants[3].Value
	if !(localRead < nfsRead) {
		t.Errorf("store ablation: local-replica read %v not cheaper than NFS read %v", localRead, nfsRead)
	}

	crash := byName["proxy-crash"]
	if len(crash.Variants) != 4 {
		t.Fatalf("proxy-crash ablation: %+v", crash.Variants)
	}
	noFault, shadowed, crashed, recovery := crash.Variants[0].Value,
		crash.Variants[1].Value, crash.Variants[2].Value, crash.Variants[3].Value
	if !(noFault <= shadowed && shadowed <= crashed) {
		t.Errorf("proxy-crash ordering: no-fault=%v shadow-full=%v crashed=%v",
			noFault, shadowed, crashed)
	}
	if !(recovery > 0 && recovery <= crashed) {
		t.Errorf("proxy-crash recovery %v out of range (crashed run %v)", recovery, crashed)
	}
	if !strings.HasPrefix(crash.Variants[3].Name, "recovery-x") {
		t.Errorf("proxy-crash recovery variant name: %q", crash.Variants[3].Name)
	}

	dfa := byName["disk-faults"]
	if len(dfa.Variants) != 3 {
		t.Fatalf("disk-faults ablation: %+v", dfa.Variants)
	}
	clean, healed := dfa.Variants[0].Value, dfa.Variants[1].Value
	if !(clean > 0 && clean <= healed) {
		t.Errorf("disk-faults ordering: no-fault=%v faults-healed=%v", clean, healed)
	}
	if !strings.HasPrefix(dfa.Variants[2].Name, "scrub-heal-x") || dfa.Variants[2].Value <= 0 {
		t.Errorf("disk-faults scrub variant: %+v", dfa.Variants[2])
	}

	spec := byName["speculative-checkpoint"]
	if len(spec.Variants) != 2 {
		t.Fatalf("speculative ablation: %+v", spec.Variants)
	}
	stop, overlapped := spec.Variants[0].Value, spec.Variants[1].Value
	if !(overlapped > 0 && overlapped < stop) {
		t.Errorf("speculative ablation: speculative stall %v not below stop-drain %v", overlapped, stop)
	}

	var buf bytes.Buffer
	RenderAblations(&buf, results)
	if !strings.Contains(buf.String(), "checkpoint-storage") {
		t.Errorf("render missing sections:\n%s", buf.String())
	}
}

func maxDur[T ~int64](a T, b T) T {
	if a > b {
		return a
	}
	return b
}
