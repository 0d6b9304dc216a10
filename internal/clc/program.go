package clc

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Program is a compiled OpenCL C translation unit ready for execution on a
// simulated device.
type Program struct {
	Source string
	Unit   *Unit
	Sigs   []KernelSig

	lowerOnce sync.Once
	low       *lowered
	stepLimit int64 // loop back-edges and calls one work-item may take; tests lower it
}

// Compile parses and validates source, returning an executable Program.
// Lowering to executable code is deferred to the first Execute, so callers
// that only need signatures and write-sets never pay for it.
func Compile(source string) (*Program, error) {
	unit, err := Parse(source)
	if err != nil {
		return nil, err
	}
	return &Program{
		Source:    source,
		Unit:      unit,
		Sigs:      SignaturesFromUnit(unit),
		stepLimit: maxSteps,
	}, nil
}

func (p *Program) lowered() *lowered {
	p.lowerOnce.Do(func() { p.low = lowerUnit(p.Unit, p.stepLimit) })
	return p.low
}

// NDRange is a kernel launch geometry.
type NDRange struct {
	Dims   int
	Offset [3]int
	Global [3]int
	Local  [3]int
}

// Normalize fills unset dimensions with 1 and validates divisibility of
// global by local sizes.
func (n NDRange) Normalize() (NDRange, error) {
	if n.Dims < 1 || n.Dims > 3 {
		return n, fmt.Errorf("clc: invalid work dimension %d", n.Dims)
	}
	for i := 0; i < 3; i++ {
		if i >= n.Dims || n.Global[i] == 0 {
			n.Global[i] = 1
		}
		if i >= n.Dims || n.Local[i] == 0 {
			n.Local[i] = 1
		}
		if n.Global[i]%n.Local[i] != 0 {
			return n, fmt.Errorf("clc: global size %d not divisible by local size %d in dimension %d",
				n.Global[i], n.Local[i], i)
		}
	}
	return n, nil
}

// TotalWorkItems reports the product of global sizes.
func (n NDRange) TotalWorkItems() int64 {
	t := int64(1)
	for i := 0; i < 3; i++ {
		g := n.Global[i]
		if g == 0 {
			g = 1
		}
		t *= int64(g)
	}
	return t
}

// KernelArg is one bound kernel argument. Exactly one of the fields is
// meaningful: Mem for __global/__constant buffer parameters, Scalar for
// by-value parameters, LocalSize for __local pointer parameters.
type KernelArg struct {
	Mem       []byte
	Scalar    []byte
	LocalSize int
}

// Profile accumulates the dynamic operation counts of one kernel launch;
// internal/ocl converts these to virtual execution time via the device's
// roofline model.
type Profile struct {
	Flops       float64
	GlobalBytes int64
	WorkItems   int64
}

// ExecOptions tunes the executor.
type ExecOptions struct {
	// Workers bounds the number of work-groups executed concurrently;
	// 0 means GOMAXPROCS.
	Workers int
}

// lkernel is a kernel's lowered entry point and what was learnt about it
// at lowering time.
type lkernel struct {
	decl   *FuncDecl
	fn     *lfunc
	kinds  []ParamKind
	stores disjointStores
	pool   sync.Pool // *group: frames and scratch memory, reused across launches
}

func newKernel(unit *Unit, fn *FuncDecl, lf *lfunc) *lkernel {
	k := &lkernel{decl: fn, fn: lf}
	for _, p := range fn.Params {
		k.kinds = append(k.kinds, ClassifyParam(p.Type))
	}
	k.stores = analyzeStores(unit, fn)
	return k
}

// localArray is one __local array declaration's storage in a group.
type localArray struct {
	mem  memory
	live bool // already allocated by an item of the current group
}

// group runs the work-groups one worker is given, one at a time: a frame
// with the launch's arguments bound, this worker's __local storage and its
// pool of work-item states.
type group struct {
	low       *lowered
	k         *lkernel
	nd        NDRange
	stepLimit int64
	frame     []slot         // the kernel's frame template with arguments bound
	argMems   []memory       // one region per buffer or __local argument
	ids       [idCount]int64 // launch- and group-level entries filled in
	locals    []localArray   // indexed by declaration
	free      []*item        // finished work-item states
	live      []*item        // states parked at a barrier
	flops     int64
	gbytes    int64
	firstErr  error
}

func (g *group) localArray(idx, size int) *memory {
	la := &g.locals[idx]
	if !la.live {
		la.mem.data = zeroed(la.mem.data, size)
		la.live = true
	}
	return &la.mem
}

// Execute runs the named kernel over the NDRange with bound args and
// returns the dynamic operation profile.
//
// Every work-group runs its items on one goroutine in local-id order
// between barriers. Work-groups run concurrently only when the kernel's
// global stores are provably confined to each item's own element
// (disjoint.go); all others run on the caller in ascending group order, so
// conflicting stores land in one defined order whatever GOMAXPROCS is.
func (p *Program) Execute(name string, nd NDRange, args []KernelArg, opt ExecOptions) (Profile, error) {
	fi := slices.IndexFunc(p.Unit.Funcs, func(fn *FuncDecl) bool { return fn.Name == name })
	if fi < 0 || !p.Unit.Funcs[fi].IsKernel {
		return Profile{}, fmt.Errorf("clc: kernel %q not found", name)
	}
	if p.Unit.Funcs[fi].Body == nil {
		return Profile{}, fmt.Errorf("clc: kernel %q has no body", name)
	}
	nd, err := nd.Normalize()
	if err != nil {
		return Profile{}, err
	}
	low := p.lowered()
	k := low.kernels[fi]
	if len(args) != len(k.kinds) {
		return Profile{}, fmt.Errorf("clc: kernel %q expects %d args, got %d", name, len(k.kinds), len(args))
	}
	if low.initErr != nil {
		return Profile{}, low.initErr
	}

	var numGroups [3]int
	for i := range numGroups {
		numGroups[i] = nd.Global[i] / nd.Local[i]
	}
	total := numGroups[0] * numGroups[1] * numGroups[2]
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	if workers > 1 && !k.stores.disjointFor(numGroups, args) {
		workers = 1
	}

	g, err := p.newGroup(low, k, nd, numGroups, args)
	if err != nil {
		return Profile{}, err
	}
	prof := Profile{WorkItems: nd.TotalWorkItems()}
	if workers == 1 {
		// The whole of a small or ordered launch: no goroutine, no channel.
		for gi := 0; gi < total && g.firstErr == nil; gi++ {
			g.runGroup(gi)
		}
		if err := g.finish(&prof); err != nil {
			return Profile{}, err
		}
		return prof, nil
	}

	// Disjoint groups: each worker runs a contiguous share of the group
	// indices in ascending order and stops at its first failure, so the
	// lowest worker that failed holds the lowest-indexed failing group.
	groups := make([]*group, workers)
	groups[0] = g
	for w := 1; w < workers; w++ {
		if groups[w], err = p.newGroup(low, k, nd, numGroups, args); err != nil {
			return Profile{}, err
		}
	}
	var wg sync.WaitGroup
	for w, g := range groups {
		wg.Add(1)
		go func(g *group, from, to int) {
			defer wg.Done()
			for gi := from; gi < to && g.firstErr == nil; gi++ {
				g.runGroup(gi)
			}
		}(g, w*total/workers, (w+1)*total/workers)
	}
	wg.Wait()
	for w := workers - 1; w >= 0; w-- {
		if e := groups[w].finish(&prof); e != nil {
			err = e
		}
	}
	if err != nil {
		return Profile{}, err
	}
	return prof, nil
}

// newGroup takes a worker state from the kernel's pool and binds the
// launch's arguments into its frame.
func (p *Program) newGroup(low *lowered, k *lkernel, nd NDRange, numGroups [3]int, args []KernelArg) (*group, error) {
	g, _ := k.pool.Get().(*group)
	if g == nil {
		g = &group{low: low, k: k, locals: make([]localArray, low.nlocals), argMems: make([]memory, len(k.kinds))}
	}
	g.nd, g.stepLimit = nd, p.stepLimit
	g.flops, g.gbytes, g.firstErr = 0, 0, nil
	g.frame = append(g.frame[:0], k.fn.tmpl...)
	for i, a := range args {
		prm := k.decl.Params[i]
		switch k.kinds[i] {
		case ParamMemHandle:
			if a.Mem == nil {
				return nil, fmt.Errorf("clc: kernel %s: buffer argument %d (%s) not set", k.decl.Name, i, prm.Name)
			}
			g.argMems[i] = memory{data: a.Mem, global: true}
			g.frame[i] = slot{m: &g.argMems[i]}
		case ParamLocalSize:
			g.argMems[i].data = zeroed(g.argMems[i].data, a.LocalSize)
			g.frame[i] = slot{m: &g.argMems[i]}
		case ParamImageHandle, ParamSamplerHandle:
			// Images and samplers are opaque: kernels cannot read them.
		default:
			size := prm.Type.Size()
			if len(a.Scalar) < size {
				return nil, fmt.Errorf("clc: kernel %s argument %d (%s): scalar argument has %d bytes, type %s needs %d",
					k.decl.Name, i, prm.Name, len(a.Scalar), prm.Type, size)
			}
			if size == 0 {
				return nil, fmt.Errorf("clc: kernel %s argument %d (%s): unsupported scalar size 0", k.decl.Name, i, prm.Name)
			}
			g.frame[i].i = decodeReg(a.Scalar[:size], prm.Type)
		}
	}
	for d := 0; d < 3; d++ {
		g.ids[idGlobalSize+d] = int64(nd.Global[d])
		g.ids[idLocalSize+d] = int64(nd.Local[d])
		g.ids[idNumGroups+d] = int64(numGroups[d])
		g.ids[idGlobalOffset+d] = int64(nd.Offset[d])
	}
	g.ids[idWorkDim] = int64(nd.Dims)
	return g, nil
}

// finish adds the worker's counts to prof, returns the worker to the pool
// and reports the error that stopped it, if any.
func (g *group) finish(prof *Profile) error {
	prof.Flops += float64(g.flops)
	prof.GlobalBytes += g.gbytes
	err := g.firstErr
	for i := range g.argMems {
		if g.argMems[i].global {
			g.argMems[i] = memory{} // do not pin the caller's buffers
		}
	}
	g.k.pool.Put(g)
	return err
}

// runGroup executes work-group gi (x fastest). Items start in local-id
// order (x fastest) and run until they return or reach a barrier; items
// parked at a barrier resume, in the same order, once every item still
// alive has arrived. The first failure is left in g.firstErr.
func (g *group) runGroup(gi int) {
	ngx, ngy := int(g.ids[idNumGroups]), int(g.ids[idNumGroups+1])
	gid := [3]int{gi % ngx, gi / ngx % ngy, gi / (ngx * ngy)}
	for d := 0; d < 3; d++ {
		g.ids[idGroupID+d] = int64(gid[d])
	}
	for i := range g.locals {
		g.locals[i].live = false
	}
	for i, kind := range g.k.kinds {
		if kind == ParamLocalSize {
			clear(g.argMems[i].data)
		}
	}
	local := g.nd.Local
	g.live = g.live[:0]
	for lz := 0; lz < local[2]; lz++ {
		for ly := 0; ly < local[1]; ly++ {
			for lx := 0; lx < local[0]; lx++ {
				var it *item
				if n := len(g.free); n > 0 {
					it, g.free = g.free[n-1], g.free[:n-1]
				} else {
					it = &item{}
				}
				it.start(g.k.fn, g.frame)
				it.ids = g.ids
				for d, l := range [3]int{lx, ly, lz} {
					it.ids[idLocalID+d] = int64(l)
					it.ids[idGlobalID+d] = int64(g.nd.Offset[d] + gid[d]*local[d] + l)
				}
				if !g.step(it) {
					return
				}
			}
		}
	}
	for len(g.live) > 0 {
		parked := g.live
		g.live = g.live[:0]
		for _, it := range parked {
			if !g.step(it) {
				return
			}
		}
	}
}

// step runs it to its next barrier or to completion; false means it failed.
func (g *group) step(it *item) bool {
	switch err := g.run(it); err {
	case nil:
		g.flops += it.flops
		g.gbytes += it.gbytes
		g.free = append(g.free, it)
	case errYield:
		g.live = append(g.live, it)
	default:
		g.firstErr = fmt.Errorf("clc: kernel %s at work-item (%d,%d,%d): %w", g.k.decl.Name,
			it.ids[idGlobalID], it.ids[idGlobalID+1], it.ids[idGlobalID+2], err)
		g.free = append(append(g.free, it), g.live...)
		g.live = g.live[:0]
		return false
	}
	return true
}
