package clc_test

import (
	"sync"
	"testing"

	"checl/internal/apps"
	"checl/internal/clc"
	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/vtime"
)

// sourceTap records every program source an application builds.
type sourceTap struct {
	ocl.API
	sources *[]string
}

func (s sourceTap) CreateProgramWithSource(c ocl.Context, source string) (ocl.Program, error) {
	*s.sources = append(*s.sources, source)
	return s.API.CreateProgramWithSource(c, source)
}

// seedSources is the fuzz seed corpus: the kernel source of every bundled
// application plus the differential test corpus.
var seedSources = sync.OnceValue(func() []string {
	sources := clc.CorpusSources()
	for _, a := range apps.All() {
		rt := ocl.NewRuntime(ocl.NVIDIA(), hw.TableISpec(), vtime.NewClock())
		// Only the sources matter; an app that fails at this scale still built them.
		_, _ = a.Run(&apps.Env{API: sourceTap{rt, &sources}, Scale: 0.05})
	}
	return sources
})

// FuzzCompile: lexer, parser and the lowering of every function never
// panic on any input: the result is a program or an error.
func FuzzCompile(f *testing.F) {
	for _, src := range seedSources() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := clc.Compile(src)
		if err != nil {
			return
		}
		_ = p.Lower() // a failing file-scope initialiser is an error, not a panic
	})
}

// FuzzExecute: every kernel of a source that compiles runs over a tiny
// NDRange without panicking or hanging: the step and call-depth guards
// hold, and traps surface as errors.
func FuzzExecute(f *testing.F) {
	for _, src := range seedSources() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := clc.Compile(src)
		if err != nil {
			return
		}
		p.SetStepLimit(2000)
		nd := clc.NDRange{Dims: 1, Global: [3]int{4}, Local: [3]int{2}}
		for _, sig := range p.Sigs {
			args := make([]clc.KernelArg, len(sig.Params))
			for i, prm := range sig.Params {
				switch prm.Kind {
				case clc.ParamMemHandle, clc.ParamImageHandle:
					args[i].Mem = make([]byte, 256)
				case clc.ParamLocalSize:
					args[i].LocalSize = 64
				default:
					args[i].Scalar = []byte{3, 0, 0, 0, 0, 0, 0, 0}
				}
			}
			_, _ = p.Execute(sig.Name, nd, args, clc.ExecOptions{}) // any error is acceptable
		}
	})
}
