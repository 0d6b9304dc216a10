package clc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
)

// The tree-walking interpreter the lowered executor replaced, kept as the
// differential oracle: executeTree must produce bit-identical buffers and an
// identical Profile for every kernel (differential_test.go). Where its
// dynamic typing used to differ from C it now follows C, like the executor:
// `return` converts to the declared return type, `?:` has the common type of
// its arms, helper parameters take their declared types, every sub-statement
// is a scope of its own, and ++/-- on a float rounds to single. A barrier
// releases once every live item of the group has arrived.

// treeUsesBarrier reports whether fn (or any helper it calls) contains a
// barrier() call; such kernels need lock-step work-item execution.
func treeUsesBarrier(unit *Unit, fn *FuncDecl, visiting map[string]bool) bool {
	if fn == nil || fn.Body == nil || visiting[fn.Name] {
		return false
	}
	visiting[fn.Name] = true
	defer delete(visiting, fn.Name)
	found := false
	var walkExpr func(Expr)
	var walkStmt func(Stmt)
	walkExpr = func(e Expr) {
		if found || e == nil {
			return
		}
		switch v := e.(type) {
		case *CallExpr:
			if v.Fun == "barrier" || v.Fun == "work_group_barrier" {
				found = true
				return
			}
			if callee := unit.Lookup(v.Fun); callee != nil {
				if treeUsesBarrier(unit, callee, visiting) {
					found = true
					return
				}
			}
			for _, a := range v.Args {
				walkExpr(a)
			}
		case *BinaryExpr:
			walkExpr(v.L)
			walkExpr(v.R)
		case *UnaryExpr:
			walkExpr(v.X)
		case *PostfixExpr:
			walkExpr(v.X)
		case *AssignExpr:
			walkExpr(v.L)
			walkExpr(v.R)
		case *IndexExpr:
			walkExpr(v.Base)
			walkExpr(v.Index)
		case *CondExpr:
			walkExpr(v.Cond)
			walkExpr(v.Then)
			walkExpr(v.Else)
		case *CastExpr:
			walkExpr(v.X)
		}
	}
	walkStmt = func(s Stmt) {
		if found || s == nil {
			return
		}
		switch v := s.(type) {
		case *BlockStmt:
			for _, c := range v.List {
				walkStmt(c)
			}
		case *DeclStmt:
			walkExpr(v.Elems)
			walkExpr(v.Init)
		case *ExprStmt:
			walkExpr(v.X)
		case *IfStmt:
			walkExpr(v.Cond)
			walkStmt(v.Then)
			walkStmt(v.Else)
		case *ForStmt:
			walkStmt(v.Init)
			walkExpr(v.Cond)
			walkExpr(v.Post)
			walkStmt(v.Body)
		case *WhileStmt:
			walkExpr(v.Cond)
			walkStmt(v.Body)
		case *DoWhileStmt:
			walkStmt(v.Body)
			walkExpr(v.Cond)
		case *SwitchStmt:
			walkExpr(v.Tag)
			for _, cs := range v.Cases {
				for _, lv := range cs.Vals {
					walkExpr(lv)
				}
				for _, st := range cs.Body {
					walkStmt(st)
				}
			}
		case *ReturnStmt:
			walkExpr(v.X)
		}
	}
	walkStmt(fn.Body)
	return found
}

func (p *Profile) add(q Profile) {
	p.Flops += q.Flops
	p.GlobalBytes += q.GlobalBytes
	p.WorkItems += q.WorkItems
}

// globalAtomicMu serialises atomic_* builtins across concurrently
// executing work-groups.
var globalAtomicMu sync.Mutex

// value is a runtime value: a scalar or a pointer.
type value struct {
	typ *Type
	i   int64
	f   float64
	p   ptrVal
}

type ptrVal struct {
	mem  *memory
	off  int64
	elem *Type
}

// instance is the shared state of one kernel launch.
type instance struct {
	prog      *Program
	fn        *FuncDecl
	nd        NDRange
	numGroups [3]int
	args      []KernelArg
	argMems   []*memory // cached wrappers for buffer args
	consts    map[string]*value
	constMems map[string]*memory
	barrier   bool
}

// executeTree runs the named kernel on the tree-walker, one work-group at a
// time in ascending group order.
func executeTree(p *Program, name string, nd NDRange, args []KernelArg) (Profile, error) {
	fn := p.Unit.Lookup(name)
	if fn == nil || !fn.IsKernel {
		return Profile{}, fmt.Errorf("clc: kernel %q not found", name)
	}
	if fn.Body == nil {
		return Profile{}, fmt.Errorf("clc: kernel %q has no body", name)
	}
	nd, err := nd.Normalize()
	if err != nil {
		return Profile{}, err
	}
	if len(args) != len(fn.Params) {
		return Profile{}, fmt.Errorf("clc: kernel %q expects %d args, got %d", name, len(fn.Params), len(args))
	}
	in := &instance{
		prog:    p,
		fn:      fn,
		nd:      nd,
		args:    args,
		argMems: make([]*memory, len(args)),
		barrier: treeUsesBarrier(p.Unit, fn, map[string]bool{}),
	}
	for i := 0; i < 3; i++ {
		in.numGroups[i] = nd.Global[i] / nd.Local[i]
	}
	for i, a := range args {
		if a.Mem != nil {
			in.argMems[i] = &memory{data: a.Mem, global: true}
		}
	}
	if err := in.evalGlobals(); err != nil {
		return Profile{}, err
	}

	totalGroups := in.numGroups[0] * in.numGroups[1] * in.numGroups[2]
	var prof Profile
	for gi := 0; gi < totalGroups; gi++ {
		gz := gi / (in.numGroups[0] * in.numGroups[1])
		rem := gi % (in.numGroups[0] * in.numGroups[1])
		gp, err := in.runGroup([3]int{rem % in.numGroups[0], rem / in.numGroups[0], gz})
		if err != nil {
			return Profile{}, err
		}
		prof.add(gp)
	}
	prof.WorkItems = nd.TotalWorkItems()
	return prof, nil
}

// evalGlobals materialises file-scope __constant tables.
func (in *instance) evalGlobals() error {
	in.consts = map[string]*value{}
	in.constMems = map[string]*memory{}
	for _, g := range in.prog.Unit.Globals {
		if g.Elems > 0 || len(g.Init) > 1 {
			// Array table: evaluate each element as a constant.
			elem := g.Type
			mem := &memory{data: make([]byte, g.Elems*elem.Size())}
			scratch := &witem{in: in}
			scratch.pushScope()
			for i, e := range g.Init {
				v, err := scratch.evalExpr(e)
				if err != nil {
					return fmt.Errorf("clc: initialising %s[%d]: %w", g.Name, i, err)
				}
				storeScalar(mem, int64(i*elem.Size()), elem, v, nil)
			}
			in.constMems[g.Name] = mem
			in.consts[g.Name] = &value{typ: PtrTo(elem, ASConstant), p: ptrVal{mem: mem, elem: elem}}
			continue
		}
		if len(g.Init) == 1 {
			scratch := &witem{in: in}
			scratch.pushScope()
			v, err := scratch.evalExpr(g.Init[0])
			if err != nil {
				return fmt.Errorf("clc: initialising %s: %w", g.Name, err)
			}
			v2 := convertTo(v, g.Type)
			in.consts[g.Name] = &v2
		}
	}
	return nil
}

// groupCtx is the shared state of one work-group.
type groupCtx struct {
	in      *instance
	groupID [3]int
	mu      sync.Mutex
	locals  map[*DeclStmt]*memory // __local arrays declared in kernel body
	lparams []*memory             // __local parameter allocations
	barrier *cyclicBarrier
}

func (in *instance) runGroup(gid [3]int) (Profile, error) {
	g := &groupCtx{in: in, groupID: gid, locals: map[*DeclStmt]*memory{}}
	g.lparams = make([]*memory, len(in.args))
	for i, p := range in.fn.Params {
		if ClassifyParam(p.Type) == ParamLocalSize {
			g.lparams[i] = &memory{data: make([]byte, in.args[i].LocalSize)}
		}
	}
	groupSize := in.nd.Local[0] * in.nd.Local[1] * in.nd.Local[2]

	if !in.barrier {
		// Sequential work-items: no barriers anywhere in the kernel.
		var prof Profile
		for lz := 0; lz < in.nd.Local[2]; lz++ {
			for ly := 0; ly < in.nd.Local[1]; ly++ {
				for lx := 0; lx < in.nd.Local[0]; lx++ {
					w := newWitem(g, [3]int{lx, ly, lz})
					if err := w.runKernel(); err != nil {
						return Profile{}, err
					}
					prof.add(w.prof)
				}
			}
		}
		return prof, nil
	}

	// Lock-step mode: one goroutine per work-item, synchronised at
	// barrier() calls by a cyclic barrier.
	g.barrier = newCyclicBarrier(groupSize)
	profs := make([]Profile, groupSize)
	errs := make([]error, groupSize)
	var wg sync.WaitGroup
	idx := 0
	for lz := 0; lz < in.nd.Local[2]; lz++ {
		for ly := 0; ly < in.nd.Local[1]; ly++ {
			for lx := 0; lx < in.nd.Local[0]; lx++ {
				wg.Add(1)
				go func(slot int, lid [3]int) {
					defer wg.Done()
					w := newWitem(g, lid)
					err := w.runKernel()
					if err != nil {
						// A failed work-item must not deadlock its
						// group-mates at the barrier.
						g.barrier.abort()
					} else {
						g.barrier.leave()
					}
					errs[slot] = err
					profs[slot] = w.prof
				}(idx, [3]int{lx, ly, lz})
				idx++
			}
		}
	}
	wg.Wait()
	var prof Profile
	var first error
	for i := range profs {
		// A work-item's own failure outranks the aborts it caused.
		if errs[i] != nil && (first == nil || strings.Contains(first.Error(), groupAborted)) {
			first = errs[i]
		}
		prof.add(profs[i])
	}
	if first != nil {
		return Profile{}, first
	}
	return prof, nil
}

const groupAborted = "clc: work-group aborted at barrier"

// cyclicBarrier is a reusable synchronisation barrier for one work-group.
type cyclicBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     int
	broken  bool
}

func newCyclicBarrier(parties int) *cyclicBarrier {
	b := &cyclicBarrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all parties reach the barrier; it returns an error
// when the barrier was aborted by a failing work-item.
func (b *cyclicBarrier) await() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return errors.New(groupAborted)
	}
	gen := b.gen
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return nil
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	if b.broken {
		return errors.New(groupAborted)
	}
	return nil
}

// leave withdraws a finished work-item: the barrier releases once every
// item still alive has arrived.
func (b *cyclicBarrier) leave() {
	b.mu.Lock()
	b.parties--
	if b.parties > 0 && b.waiting == b.parties {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}

func (b *cyclicBarrier) abort() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// witem executes one work-item.
type witem struct {
	in      *instance
	g       *groupCtx
	local   [3]int
	global  [3]int
	scopes  []map[string]*value
	prof    Profile
	retVal  value
	retType *Type // declared return type of the running helper; nil in the kernel
	depth   int
}

func newWitem(g *groupCtx, lid [3]int) *witem {
	in := g.in
	w := &witem{in: in, g: g, local: lid}
	for i := 0; i < 3; i++ {
		w.global[i] = in.nd.Offset[i] + g.groupID[i]*in.nd.Local[i] + lid[i]
	}
	return w
}

func (w *witem) pushScope() { w.scopes = append(w.scopes, map[string]*value{}) }
func (w *witem) popScope()  { w.scopes = w.scopes[:len(w.scopes)-1] }

func (w *witem) lookup(name string) *value {
	for i := len(w.scopes) - 1; i >= 0; i-- {
		if v, ok := w.scopes[i][name]; ok {
			return v
		}
	}
	if w.in != nil {
		if v, ok := w.in.consts[name]; ok {
			return v
		}
	}
	return nil
}

func (w *witem) define(name string, v value) {
	nv := v
	w.scopes[len(w.scopes)-1][name] = &nv
}

// runKernel binds the kernel parameters for this work-item and executes
// the body.
func (w *witem) runKernel() error {
	w.scopes = w.scopes[:0]
	w.pushScope()
	fn := w.in.fn
	for i, p := range fn.Params {
		a := w.in.args[i]
		switch ClassifyParam(p.Type) {
		case ParamMemHandle:
			if w.in.argMems[i] == nil {
				return fmt.Errorf("clc: kernel %s: buffer argument %d (%s) not set", fn.Name, i, p.Name)
			}
			w.define(p.Name, value{typ: p.Type, p: ptrVal{mem: w.in.argMems[i], elem: p.Type.Elem}})
		case ParamLocalSize:
			w.define(p.Name, value{typ: p.Type, p: ptrVal{mem: w.g.lparams[i], elem: p.Type.Elem}})
		case ParamImageHandle, ParamSamplerHandle:
			// Images/samplers are carried as opaque buffer references.
			if w.in.argMems[i] != nil {
				w.define(p.Name, value{typ: p.Type, p: ptrVal{mem: w.in.argMems[i], elem: TypeUChar}})
			} else {
				w.define(p.Name, value{typ: p.Type})
			}
		default:
			v, err := decodeScalar(a.Scalar, p.Type)
			if err != nil {
				return fmt.Errorf("clc: kernel %s argument %d (%s): %w", fn.Name, i, p.Name, err)
			}
			w.define(p.Name, v)
		}
	}
	_, err := w.execStmt(fn.Body)
	if err != nil {
		return fmt.Errorf("clc: kernel %s at work-item (%d,%d,%d): %w",
			fn.Name, w.global[0], w.global[1], w.global[2], err)
	}
	return nil
}

// ctrl encodes non-sequential statement outcomes.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

func (w *witem) execStmt(s Stmt) (ctrl, error) {
	switch v := s.(type) {
	case nil:
		return ctrlNone, nil
	case *BlockStmt:
		w.pushScope()
		defer w.popScope()
		for _, c := range v.List {
			ct, err := w.execStmt(c)
			if err != nil || ct != ctrlNone {
				return ct, err
			}
		}
		return ctrlNone, nil
	case *DeclStmt:
		return w.execDecl(v)
	case *ExprStmt:
		_, err := w.evalExpr(v.X)
		return ctrlNone, err
	case *IfStmt:
		c, err := w.evalExpr(v.Cond)
		if err != nil {
			return ctrlNone, err
		}
		if truthy(c) {
			return w.execScoped(v.Then)
		}
		return w.execScoped(v.Else)
	case *ForStmt:
		w.pushScope()
		defer w.popScope()
		if v.Init != nil {
			if _, err := w.execStmt(v.Init); err != nil {
				return ctrlNone, err
			}
		}
		for iter := 0; ; iter++ {
			if iter > maxSteps {
				return ctrlNone, fmt.Errorf("loop iteration limit exceeded")
			}
			if v.Cond != nil {
				c, err := w.evalExpr(v.Cond)
				if err != nil {
					return ctrlNone, err
				}
				if !truthy(c) {
					break
				}
			}
			ct, err := w.execScoped(v.Body)
			if err != nil {
				return ctrlNone, err
			}
			if ct == ctrlBreak {
				break
			}
			if ct == ctrlReturn {
				return ctrlReturn, nil
			}
			if v.Post != nil {
				if _, err := w.evalExpr(v.Post); err != nil {
					return ctrlNone, err
				}
			}
		}
		return ctrlNone, nil
	case *WhileStmt:
		for iter := 0; ; iter++ {
			if iter > maxSteps {
				return ctrlNone, fmt.Errorf("loop iteration limit exceeded")
			}
			c, err := w.evalExpr(v.Cond)
			if err != nil {
				return ctrlNone, err
			}
			if !truthy(c) {
				break
			}
			ct, err := w.execScoped(v.Body)
			if err != nil {
				return ctrlNone, err
			}
			if ct == ctrlBreak {
				break
			}
			if ct == ctrlReturn {
				return ctrlReturn, nil
			}
		}
		return ctrlNone, nil
	case *DoWhileStmt:
		for iter := 0; ; iter++ {
			if iter > maxSteps {
				return ctrlNone, fmt.Errorf("loop iteration limit exceeded")
			}
			ct, err := w.execScoped(v.Body)
			if err != nil {
				return ctrlNone, err
			}
			if ct == ctrlBreak {
				break
			}
			if ct == ctrlReturn {
				return ctrlReturn, nil
			}
			c, err := w.evalExpr(v.Cond)
			if err != nil {
				return ctrlNone, err
			}
			if !truthy(c) {
				break
			}
		}
		return ctrlNone, nil
	case *SwitchStmt:
		tag, err := w.evalExpr(v.Tag)
		if err != nil {
			return ctrlNone, err
		}
		tagVal := asInt(tag)
		match := -1
		defaultIdx := -1
		for i, cs := range v.Cases {
			if cs.Vals == nil {
				defaultIdx = i
				continue
			}
			for _, lv := range cs.Vals {
				cv, err := w.evalExpr(lv)
				if err != nil {
					return ctrlNone, err
				}
				if asInt(cv) == tagVal {
					match = i
					break
				}
			}
			if match >= 0 {
				break
			}
		}
		if match < 0 {
			match = defaultIdx
		}
		if match < 0 {
			return ctrlNone, nil
		}
		w.pushScope()
		defer w.popScope()
		// C fallthrough: execute from the matched arm onward until break.
		for i := match; i < len(v.Cases); i++ {
			for _, st := range v.Cases[i].Body {
				ct, err := w.execStmt(st)
				if err != nil {
					return ctrlNone, err
				}
				switch ct {
				case ctrlBreak:
					return ctrlNone, nil // break consumed by the switch
				case ctrlReturn, ctrlContinue:
					return ct, nil
				}
			}
		}
		return ctrlNone, nil
	case *ReturnStmt:
		if v.X != nil {
			rv, err := w.evalExpr(v.X)
			if err != nil {
				return ctrlNone, err
			}
			if w.retType != nil && w.retType.Kind != TVoid {
				w.retVal = convertTo(rv, w.retType)
			}
		}
		return ctrlReturn, nil
	case *BreakStmt:
		return ctrlBreak, nil
	case *ContinueStmt:
		return ctrlContinue, nil
	default:
		return ctrlNone, fmt.Errorf("unsupported statement %T", s)
	}
}

// execScoped runs a sub-statement in a scope of its own, as C gives it.
func (w *witem) execScoped(s Stmt) (ctrl, error) {
	w.pushScope()
	defer w.popScope()
	return w.execStmt(s)
}

func (w *witem) execDecl(d *DeclStmt) (ctrl, error) {
	if d.Elems != nil {
		n, err := w.evalExpr(d.Elems)
		if err != nil {
			return ctrlNone, err
		}
		elems := asInt(n)
		if elems < 0 || elems > 1<<26 {
			return ctrlNone, fmt.Errorf("array %s has invalid length %d", d.Name, elems)
		}
		if d.Space == ASLocal {
			// __local arrays are one allocation per work-group, shared by
			// all its work-items.
			w.g.mu.Lock()
			mem, ok := w.g.locals[d]
			if !ok {
				mem = &memory{data: make([]byte, elems*int64(d.Type.Size()))}
				w.g.locals[d] = mem
			}
			w.g.mu.Unlock()
			w.define(d.Name, value{typ: PtrTo(d.Type, ASLocal), p: ptrVal{mem: mem, elem: d.Type}})
			return ctrlNone, nil
		}
		mem := &memory{data: make([]byte, elems*int64(d.Type.Size()))}
		w.define(d.Name, value{typ: PtrTo(d.Type, ASPrivate), p: ptrVal{mem: mem, elem: d.Type}})
		return ctrlNone, nil
	}
	var v value
	if d.Init != nil {
		iv, err := w.evalExpr(d.Init)
		if err != nil {
			return ctrlNone, err
		}
		v = convertTo(iv, d.Type)
	} else {
		v = value{typ: d.Type}
	}
	w.define(d.Name, v)
	return ctrlNone, nil
}

func truthy(v value) bool {
	if v.typ != nil && v.typ.IsFloat() {
		return v.f != 0
	}
	if v.typ != nil && v.typ.Kind == TPtr {
		return v.p.mem != nil
	}
	return v.i != 0
}

func asInt(v value) int64 {
	if v.typ != nil && v.typ.IsFloat() {
		return int64(v.f)
	}
	return v.i
}

func asFloat(v value) float64 {
	if v.typ != nil && v.typ.IsFloat() {
		return v.f
	}
	if v.typ != nil && v.typ.IsUnsigned() {
		return float64(uint64(v.i))
	}
	return float64(v.i)
}

// convertTo converts a value to a target type with C conversion semantics.
func convertTo(v value, t *Type) value {
	if t.Kind == TPtr {
		if v.typ != nil && v.typ.Kind == TPtr {
			return value{typ: t, p: ptrVal{mem: v.p.mem, off: v.p.off, elem: t.Elem}}
		}
		return value{typ: t} // null pointer from integer 0
	}
	if t.IsFloat() {
		f := asFloat(v)
		if t.Kind == TFloat {
			f = float64(float32(f))
		}
		return value{typ: t, f: f}
	}
	// integer target
	var i int64
	if v.typ != nil && v.typ.IsFloat() {
		i = int64(v.f)
	} else {
		i = v.i
	}
	return value{typ: t, i: normalizeInt(i, t)}
}

// normalizeInt wraps an int64 to the width/signedness of t.
func normalizeInt(i int64, t *Type) int64 { return normalizeKind(i, t.Kind) }

// decodeScalar interprets raw argument bytes as a value of type t, as the
// device would when a scalar is passed via clSetKernelArg.
func decodeScalar(b []byte, t *Type) (value, error) {
	if len(b) < t.Size() {
		return value{}, fmt.Errorf("scalar argument has %d bytes, type %s needs %d", len(b), t, t.Size())
	}
	switch t.Kind {
	case TFloat:
		bits := binary.LittleEndian.Uint32(b)
		return value{typ: t, f: float64(math.Float32frombits(bits))}, nil
	case TDouble:
		bits := binary.LittleEndian.Uint64(b)
		return value{typ: t, f: math.Float64frombits(bits)}, nil
	default:
		var raw int64
		switch t.Size() {
		case 1:
			raw = int64(b[0])
		case 2:
			raw = int64(binary.LittleEndian.Uint16(b))
		case 4:
			raw = int64(binary.LittleEndian.Uint32(b))
		case 8:
			raw = int64(binary.LittleEndian.Uint64(b))
		default:
			return value{}, fmt.Errorf("unsupported scalar size %d", t.Size())
		}
		if !t.IsUnsigned() {
			raw = signExtend(raw, t.Size())
		}
		return value{typ: t, i: normalizeInt(raw, t)}, nil
	}
}

func signExtend(v int64, size int) int64 {
	switch size {
	case 1:
		return int64(int8(v))
	case 2:
		return int64(int16(v))
	case 4:
		return int64(int32(v))
	default:
		return v
	}
}

// loadScalar reads one element of type t at byte offset off from mem,
// charging the profile when the memory is global.
func loadScalar(mem *memory, off int64, t *Type, prof *Profile) (value, error) {
	size := int64(t.Size())
	if off < 0 || off+size > int64(len(mem.data)) {
		return value{}, fmt.Errorf("memory load out of bounds: offset %d size %d in %d-byte region", off, size, len(mem.data))
	}
	if mem.global && prof != nil {
		prof.GlobalBytes += size
	}
	v, err := decodeScalar(mem.data[off:off+size], t)
	return v, err
}

// storeScalar writes v as type t at byte offset off.
func storeScalar(mem *memory, off int64, t *Type, v value, prof *Profile) error {
	size := int64(t.Size())
	if off < 0 || off+size > int64(len(mem.data)) {
		return fmt.Errorf("memory store out of bounds: offset %d size %d in %d-byte region", off, size, len(mem.data))
	}
	if mem.global && prof != nil {
		prof.GlobalBytes += size
	}
	b := mem.data[off : off+size]
	switch t.Kind {
	case TFloat:
		binary.LittleEndian.PutUint32(b, math.Float32bits(float32(asFloat(v))))
	case TDouble:
		binary.LittleEndian.PutUint64(b, math.Float64bits(asFloat(v)))
	default:
		iv := asInt(v)
		if v.typ != nil && v.typ.IsFloat() {
			iv = int64(v.f)
		}
		switch size {
		case 1:
			b[0] = byte(iv)
		case 2:
			binary.LittleEndian.PutUint16(b, uint16(iv))
		case 4:
			binary.LittleEndian.PutUint32(b, uint32(iv))
		case 8:
			binary.LittleEndian.PutUint64(b, uint64(iv))
		}
	}
	return nil
}
