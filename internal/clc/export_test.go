package clc

// Hooks for the external test package (fuzz_test.go), which cannot live in
// package clc because its seeds come from internal/apps.

// Lower performs the lowering Execute defers to a program's first launch
// and reports a failed file-scope initialiser.
func (p *Program) Lower() error { return p.lowered().initErr }

// SetStepLimit lowers the runaway-kernel guard so that a fuzzed kernel
// fails fast instead of spinning through 2^28 back-edges.
func (p *Program) SetStepLimit(n int64) { p.stepLimit = n }

// CorpusSources returns the sources of the differential test corpus.
func CorpusSources() []string {
	out := []string{transposeFamily}
	for _, c := range constructCorpus {
		out = append(out, c.src)
	}
	return out
}
