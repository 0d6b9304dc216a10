package clc

import (
	"fmt"
	"math"
	"slices"
)

// Lowering: each function of a Unit becomes an lfunc. Variables and
// parameters are frame registers, literals are registers preloaded by the
// frame template, every operator is chosen by the static types of its
// operands, and whatever the tree-walking interpreter rejected only when
// reached (undefined identifier, non-assignable target, wrong arity)
// becomes an opTrap carrying the same text, so Compile accepts what it
// always accepted.

// lowered is the executable form of a Program.
type lowered struct {
	funcs   []*lfunc // parallel to Unit.Funcs
	kernels []*lkernel
	globals []slot // file-scope constants: a scalar value or a table, by declaration
	nlocals int    // __local array declarations, program-wide
	initErr error  // a file-scope initialiser failed; every launch reports it
}

// isTable reports whether g is an array (the name is a __constant pointer)
// rather than a scalar.
func (g *GlobalVar) isTable() bool { return g.Elems > 0 || len(g.Init) > 1 }

// operand is a lowered expression: the register holding it and its type.
type operand struct {
	reg int32
	typ *Type
}

type lowerer struct {
	unit   *Unit
	low    *lowered
	gtypes []*Type        // type of each file-scope constant as an expression
	gindex map[string]int // name -> globals index, the last definition winning
}

// ctl is one enclosing loop or switch while its body is lowered.
type ctl struct {
	isLoop            bool
	breaks, continues []int32 // jumps to patch
}

type funcLowerer struct {
	*lowerer
	ret     *Type
	out     *lfunc
	scopes  []map[string]operand
	consts  map[slot]int32
	isVar   []bool  // per register: a named variable, which later code may assign
	temps   []int32 // registers recycled as expression temporaries
	ntemps  int
	ctls    []*ctl
	zeroReg int32
}

func lowerUnit(unit *Unit, stepLimit int64) *lowered {
	l := &lowerer{unit: unit, low: &lowered{}, gindex: map[string]int{}}
	for i, g := range unit.Globals {
		if g.Elems > 0 || len(g.Init) > 0 {
			l.gindex[g.Name] = i
		}
		typ := g.Type
		if g.isTable() {
			typ = PtrTo(g.Type, ASConstant)
		}
		l.gtypes = append(l.gtypes, typ)
	}
	l.low.globals = make([]slot, len(unit.Globals))
	l.low.funcs = make([]*lfunc, len(unit.Funcs))
	for i, fn := range unit.Funcs {
		l.low.funcs[i] = &lfunc{name: fn.Name, nparams: len(fn.Params)}
	}
	for i, fn := range unit.Funcs {
		if fn.Body != nil {
			l.lowerFunc(fn, l.low.funcs[i])
		}
	}
	l.low.initErr = l.evalGlobals(stepLimit)
	for i, fn := range unit.Funcs {
		var k *lkernel
		if fn.IsKernel && fn.Body != nil {
			k = newKernel(unit, fn, l.low.funcs[i])
		}
		l.low.kernels = append(l.low.kernels, k)
	}
	return l.low
}

func (l *lowerer) newFuncLowerer(out *lfunc, ret *Type) *funcLowerer {
	f := &funcLowerer{lowerer: l, ret: ret, out: out, consts: map[slot]int32{}}
	out.notes = map[int32]string{}
	return f
}

func (l *lowerer) lowerFunc(fn *FuncDecl, out *lfunc) {
	f := l.newFuncLowerer(out, fn.Return)
	f.pushScope()
	for _, p := range fn.Params {
		f.declare(p.Name, p.Type)
	}
	f.zeroReg = f.newReg()
	f.stmt(fn.Body)
	f.emit(opRet, f.zero(), 0, 0, 0)
}

// evalGlobals materialises the file-scope constants in declaration order by
// running each initialiser on a scratch work-item.
func (l *lowerer) evalGlobals(stepLimit int64) error {
	g := &group{low: l.low, stepLimit: stepLimit, locals: make([]localArray, l.low.nlocals)}
	it := &item{}
	eval := func(e Expr, t *Type) (slot, error) {
		fn := &lfunc{name: "initialiser"}
		f := l.newFuncLowerer(fn, t)
		f.pushScope()
		f.zeroReg = f.newReg()
		f.emit(opRet, f.convert(f.lowerExpr(e, -1), t, -1).reg, 0, 0, 0)
		it.start(fn, fn.tmpl)
		for {
			if err := g.run(it); err != errYield {
				return it.ret, err
			}
		}
	}
	for gi, gv := range l.unit.Globals {
		switch {
		case gv.isTable():
			size := gv.Type.Size()
			mem := &memory{data: make([]byte, gv.Elems*size), readonly: true}
			for i, e := range gv.Init {
				v, err := eval(e, gv.Type)
				if err != nil {
					return fmt.Errorf("clc: initialising %s[%d]: %w", gv.Name, i, err)
				}
				if (i+1)*size <= len(mem.data) {
					encodeReg(mem.data[i*size:(i+1)*size], v.i, gv.Type)
				}
			}
			l.low.globals[gi] = slot{m: mem}
		case len(gv.Init) == 1:
			v, err := eval(gv.Init[0], gv.Type)
			if err != nil {
				return fmt.Errorf("clc: initialising %s: %w", gv.Name, err)
			}
			l.low.globals[gi] = v
		}
	}
	return nil
}

// ---- registers, constants, code ----

func (f *funcLowerer) newReg() int32 {
	f.out.tmpl = append(f.out.tmpl, slot{})
	f.isVar = append(f.isVar, false)
	return int32(len(f.out.tmpl) - 1)
}

// block reserves n consecutive registers.
func (f *funcLowerer) block(n int) int32 {
	first := int32(len(f.out.tmpl))
	for i := 0; i < n; i++ {
		f.newReg()
	}
	return first
}

// temp returns a scratch register, free again once the enclosing
// statement or sub-expression restores f.ntemps.
func (f *funcLowerer) temp() int32 {
	if f.ntemps == len(f.temps) {
		f.temps = append(f.temps, f.newReg())
	}
	f.ntemps++
	return f.temps[f.ntemps-1]
}

// dest is the register an operation should write: the caller's if it gave
// one, a fresh temporary otherwise.
func (f *funcLowerer) dest(hint int32) int32 {
	if hint >= 0 {
		return hint
	}
	return f.temp()
}

func (f *funcLowerer) constant(v slot) int32 {
	if r, ok := f.consts[v]; ok {
		return r
	}
	r := f.newReg()
	f.out.tmpl[r] = v
	f.consts[v] = r
	return r
}

func (f *funcLowerer) zero() int32            { return f.zeroReg }
func (f *funcLowerer) constInt(v int64) int32 { return f.constant(slot{i: v}) }

func (f *funcLowerer) emit(op opcode, a, b, c, d int32) int32 {
	f.out.code = append(f.out.code, instr{op: op, a: a, b: b, c: c, d: d})
	return int32(len(f.out.code) - 1)
}

func (f *funcLowerer) here() int32 { return int32(len(f.out.code)) }

// patch points the jumps at the given code indices to target.
func (f *funcLowerer) patch(jumps []int32, target int32) {
	for _, j := range jumps {
		in := &f.out.code[j]
		switch in.op {
		case opJmp, opBack:
			in.a = target
		case opJzI, opJnzI, opJzF, opJnzF, opJzP, opJnzP:
			in.b = target
		default:
			in.c = target
		}
	}
}

// trap emits an instruction that fails with msg when reached.
func (f *funcLowerer) trap(msg string) { f.out.notes[f.emit(opTrap, 0, 0, 0, 0)] = msg }

// trapValue traps and returns a placeholder operand so lowering continues.
func (f *funcLowerer) trapValue(msg string) operand {
	f.trap(msg)
	return operand{reg: f.zero(), typ: TypeInt}
}

func (f *funcLowerer) pushScope() { f.scopes = append(f.scopes, map[string]operand{}) }
func (f *funcLowerer) popScope()  { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *funcLowerer) declare(name string, t *Type) int32 {
	r := f.newReg()
	f.isVar[r] = true
	f.scopes[len(f.scopes)-1][name] = operand{reg: r, typ: t}
	return r
}

func (f *funcLowerer) lookup(name string) (operand, bool) {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if v, ok := f.scopes[i][name]; ok {
			return v, true
		}
	}
	return operand{}, false
}

// moveTo returns v in register hint (when one was asked for).
func (f *funcLowerer) moveTo(v operand, hint int32) operand {
	if hint >= 0 && v.reg != hint {
		f.emit(opMov, hint, v.reg, 0, 0)
		v.reg = hint
	}
	return v
}

// pin copies v out of a variable's register when lowering any of the later
// expressions may assign that variable before v is used.
func (f *funcLowerer) pin(v operand, later ...Expr) operand {
	if !f.isVar[v.reg] {
		return v
	}
	for _, e := range later {
		if mutates(e) {
			return f.moveTo(v, f.temp())
		}
	}
	return v
}

// mutates reports whether evaluating e can assign a variable.
func mutates(e Expr) bool {
	found := false
	inspect(e, func(n any) bool {
		switch v := n.(type) {
		case *AssignExpr, *PostfixExpr:
			found = true
		case *UnaryExpr:
			found = found || v.Op == "++" || v.Op == "--"
		}
		return !found
	})
	return found
}

// ---- types and conversions ----

// normalizeKind wraps an int64 to the width/signedness of integer kind k.
func normalizeKind(i int64, k TypeKind) int64 {
	switch k {
	case TBool:
		return b2i(i != 0)
	case TChar:
		return int64(int8(i))
	case TUChar:
		return int64(uint8(i))
	case TShort:
		return int64(int16(i))
	case TUShort:
		return int64(uint16(i))
	case TInt:
		return int64(int32(i))
	case TUInt:
		return int64(uint32(i))
	default:
		return i
	}
}

// rank orders the types the usual arithmetic conversions can produce; int
// and everything narrower (rank 0) promote to int.
var rank = map[TypeKind]int{TDouble: 5, TFloat: 4, TULong: 3, TSizeT: 3, TLong: 2, TUInt: 1}

// promote implements the usual arithmetic conversions for the supported
// scalar set.
func promote(a, b *Type) *Type {
	ra, rb := rank[a.Kind], rank[b.Kind]
	hi := a
	if rb > ra {
		hi = b
	}
	switch {
	case ra == 0 && rb == 0:
		return TypeInt
	case ra == rb && a.Kind != b.Kind && hi.Kind == TSizeT:
		return TypeULong // size_t with ulong: canonical, so promotion is symmetric
	}
	return hi
}

// narrow reports whether t is an integer kind whose registers are
// normalised to fewer than 64 bits.
func narrow(t *Type) bool { return t.Kind >= TBool && t.Kind <= TUInt }

// normalise emits the wrap of register reg to t, if t is narrow.
func (f *funcLowerer) normalise(reg int32, t *Type) {
	if narrow(t) {
		f.emit(opNarrow, reg, reg, 0, int32(t.Kind))
	}
}

// fits reports whether every value of integer type from is already a
// normalised value of integer type to.
func fits(from, to *Type) bool {
	fromNarrow, toNarrow := narrow(from), narrow(to)
	fb, tb := from.Size()*8, to.Size()*8
	if from.Kind == TBool {
		fb = 1
	}
	switch {
	case !toNarrow || from.Kind == to.Kind:
		return true
	case !fromNarrow:
		return false
	case from.IsUnsigned() == to.IsUnsigned():
		return fb <= tb
	}
	return from.IsUnsigned() && fb < tb
}

// convNoop reports whether convert(from -> to) emits nothing.
func convNoop(from, to *Type) bool {
	switch {
	case to.Kind == TPtr:
		return from.Kind == TPtr
	case to.IsFloat():
		return from.Kind == to.Kind || (from.Kind == TFloat && to.Kind == TDouble)
	case from.Kind == TPtr || from.IsFloat():
		return false
	}
	return fits(from, to)
}

// convert lowers the C conversion of v to type t.
func (f *funcLowerer) convert(v operand, t *Type, hint int32) operand {
	out := operand{typ: t}
	switch {
	case convNoop(v.typ, t):
		out.reg = v.reg
		return f.moveTo(out, hint)
	case t.Kind == TPtr, v.typ.Kind == TPtr:
		// An integer converts to the null pointer; a pointer has no
		// integer or float value.
		out.reg = f.zero()
		return f.moveTo(out, hint)
	case t.IsFloat():
		op := opF2F
		if !v.typ.IsFloat() {
			op = pick(v.typ.IsUnsigned(), opU2F, opI2F)
		}
		out.reg = f.dest(hint)
		f.emit(op, out.reg, v.reg, 0, int32(b2i(t.Kind == TFloat)))
		return out
	}
	out.reg = f.dest(hint)
	if v.typ.IsFloat() {
		f.emit(opF2I, out.reg, v.reg, 0, 0)
		f.normalise(out.reg, t)
	} else {
		f.emit(opNarrow, out.reg, v.reg, 0, int32(t.Kind))
	}
	return out
}

// toInt is v as the walker's asInt: floats truncate, pointers are 0.
func (f *funcLowerer) toInt(v operand) operand {
	if v.typ.IsFloat() || v.typ.Kind == TPtr {
		return f.convert(v, TypeLong, -1)
	}
	return v
}

// ---- statements ----

// scoped lowers s in a scope of its own, as C gives every sub-statement.
func (f *funcLowerer) scoped(s Stmt) {
	f.pushScope()
	f.stmt(s)
	f.popScope()
}

func (f *funcLowerer) stmt(s Stmt) {
	mark := f.ntemps
	defer func() { f.ntemps = mark }()
	switch v := s.(type) {
	case nil:
	case *BlockStmt:
		if v == nil {
			return
		}
		f.pushScope()
		for _, c := range v.List {
			f.stmt(c)
		}
		f.popScope()
	case *DeclStmt:
		f.declStmt(v)
	case *ExprStmt:
		f.discard(v.X)
	case *IfStmt:
		toElse := f.condJump(v.Cond, false)
		f.scoped(v.Then)
		if v.Else == nil {
			f.patch(toElse, f.here())
			return
		}
		toEnd := f.emit(opJmp, 0, 0, 0, 0)
		f.patch(toElse, f.here())
		f.scoped(v.Else)
		f.patch([]int32{toEnd}, f.here())
	case *ForStmt:
		f.pushScope()
		f.stmt(v.Init)
		f.loop(v.Cond, v.Body, v.Post, false)
		f.popScope()
	case *WhileStmt:
		f.loop(v.Cond, v.Body, nil, false)
	case *DoWhileStmt:
		f.loop(v.Cond, v.Body, nil, true)
	case *SwitchStmt:
		f.switchStmt(v)
	case *ReturnStmt:
		if v.X == nil {
			f.emit(opRet, f.zero(), 0, 0, 0)
			return
		}
		x := f.lowerExpr(v.X, -1)
		if f.ret.Kind == TVoid {
			f.emit(opRet, f.zero(), 0, 0, 0)
			return
		}
		f.emit(opRet, f.convert(x, f.ret, -1).reg, 0, 0, 0)
	case *BreakStmt:
		f.exit(false)
	case *ContinueStmt:
		f.exit(true)
	default:
		f.trap(fmt.Sprintf("unsupported statement %T", s))
	}
}

// exit lowers break (to the innermost loop or switch) or continue (to the
// innermost loop). Outside any, either one ends the function, as it did
// when the walker's control code reached the top of the body.
func (f *funcLowerer) exit(isContinue bool) {
	for i := len(f.ctls) - 1; i >= 0; i-- {
		c := f.ctls[i]
		switch {
		case isContinue && c.isLoop:
			c.continues = append(c.continues, f.emit(opJmp, 0, 0, 0, 0))
			return
		case !isContinue:
			c.breaks = append(c.breaks, f.emit(opJmp, 0, 0, 0, 0))
			return
		}
	}
	f.emit(opRet, f.zero(), 0, 0, 0)
}

// loop lowers for/while (test first) and do-while (body first).
func (f *funcLowerer) loop(cond Expr, body Stmt, post Expr, bodyFirst bool) {
	c := &ctl{isLoop: true}
	f.ctls = append(f.ctls, c)
	top := f.here()
	var toEnd []int32
	if !bodyFirst && cond != nil {
		toEnd = f.condJump(cond, false)
	}
	f.scoped(body)
	f.patch(c.continues, f.here())
	if post != nil {
		f.discard(post)
	}
	if bodyFirst {
		toEnd = f.condJump(cond, false)
	}
	f.emit(opBack, top, 0, 0, 0)
	f.ctls = f.ctls[:len(f.ctls)-1]
	f.patch(append(toEnd, c.breaks...), f.here())
}

func (f *funcLowerer) switchStmt(v *SwitchStmt) {
	tag := f.newReg()
	f.moveTo(f.toInt(f.lowerExpr(v.Tag, -1)), tag)
	// Labels are tested in source order, each evaluated only if no
	// earlier one matched; default is taken last wherever it stands.
	arms := make([][]int32, len(v.Cases))
	defaultArm := -1
	for i, cs := range v.Cases {
		if cs.Vals == nil {
			defaultArm = i
			continue
		}
		for _, lv := range cs.Vals {
			mark := f.ntemps
			val := f.toInt(f.lowerExpr(lv, -1))
			arms[i] = append(arms[i], f.emit(opJEq, tag, val.reg, 0, 0))
			f.ntemps = mark
		}
	}
	miss := f.emit(opJmp, 0, 0, 0, 0)
	c := &ctl{}
	f.ctls = append(f.ctls, c)
	f.pushScope()
	for i, cs := range v.Cases {
		f.patch(arms[i], f.here())
		if i == defaultArm {
			f.patch([]int32{miss}, f.here())
		}
		for _, st := range cs.Body {
			f.stmt(st)
		}
	}
	f.popScope()
	f.ctls = f.ctls[:len(f.ctls)-1]
	if defaultArm < 0 {
		c.breaks = append(c.breaks, miss)
	}
	f.patch(c.breaks, f.here())
}

func (f *funcLowerer) declStmt(d *DeclStmt) {
	if d.Elems == nil {
		// The name is not in scope inside its own initialiser.
		r := f.newReg()
		if d.Init != nil {
			f.moveTo(f.convert(f.lowerExpr(d.Init, r), d.Type, r), r)
		} else {
			f.emit(opMov, r, f.zero(), 0, 0)
		}
		f.isVar[r] = true
		f.scopes[len(f.scopes)-1][d.Name] = operand{reg: r, typ: d.Type}
		return
	}
	n := f.toInt(f.lowerExpr(d.Elems, -1))
	size := int32(d.Type.Size())
	if d.Space == ASLocal {
		// One allocation per work-group, shared by all its work-items.
		r := f.declare(d.Name, PtrTo(d.Type, ASLocal))
		f.out.notes[f.emit(opAllocLocal, r, n.reg, int32(f.low.nlocals), size)] = d.Name
		f.low.nlocals++
		return
	}
	cache := f.newReg()
	r := f.declare(d.Name, PtrTo(d.Type, ASPrivate))
	f.out.notes[f.emit(opAllocPriv, r, n.reg, cache, size)] = d.Name
}

// ---- expressions ----

// discard lowers e for its side effects only.
func (f *funcLowerer) discard(e Expr) {
	mark := f.ntemps
	switch v := e.(type) {
	case *PostfixExpr:
		f.incDec(v.X, v.Op, false, false)
	case *BinaryExpr:
		if v.Op == "," {
			f.discard(v.L)
			f.discard(v.R)
		} else {
			f.lowerExpr(e, -1)
		}
	default:
		f.lowerExpr(e, -1)
	}
	f.ntemps = mark
}

func (f *funcLowerer) constFloat(v float64, t *Type) operand {
	return operand{reg: f.constant(slot{i: fbits(v)}), typ: t}
}

func (f *funcLowerer) lowerExpr(e Expr, hint int32) operand {
	switch v := e.(type) {
	case *IntLit:
		t := TypeInt
		if v.Val > math.MaxInt32 || v.Val < math.MinInt32 {
			t = TypeLong
		}
		return f.moveTo(operand{reg: f.constInt(v.Val), typ: t}, hint)
	case *FloatLit:
		return f.moveTo(f.constFloat(round32(v.Val), TypeFloat), hint)
	case *Ident:
		return f.moveTo(f.ident(v.Name), hint)
	case *CastExpr:
		return f.convert(f.lowerExpr(v.X, -1), v.Type, hint)
	case *CondExpr:
		return f.condExpr(v, hint)
	case *AssignExpr:
		return f.moveTo(f.assign(v), hint)
	case *UnaryExpr:
		return f.unary(v, hint)
	case *PostfixExpr:
		return f.moveTo(f.incDec(v.X, v.Op, true, true), hint)
	case *IndexExpr:
		return f.load(f.lvalue(v), hint)
	case *BinaryExpr:
		return f.binaryExpr(v, hint)
	case *CallExpr:
		return f.call(v, hint)
	default:
		return f.trapValue(fmt.Sprintf("unsupported expression %T", e))
	}
}

// lowerArgs lowers expressions in order, keeping each value stable while
// the later ones are evaluated.
func (f *funcLowerer) lowerArgs(exprs []Expr) []operand {
	out := make([]operand, len(exprs))
	for i, e := range exprs {
		out[i] = f.pin(f.lowerExpr(e, -1), exprs[i+1:]...)
	}
	return out
}

func (f *funcLowerer) ident(name string) operand {
	if v, ok := f.lookup(name); ok {
		return v
	}
	if gi, ok := f.gindex[name]; ok {
		r := f.temp()
		f.emit(opGlobal, r, int32(gi), 0, 0)
		return operand{reg: r, typ: f.gtypes[gi]}
	}
	if c, ok := predefined[name]; ok {
		if c.typ.IsFloat() {
			return f.constFloat(c.f, c.typ)
		}
		return operand{reg: f.constInt(c.i), typ: c.typ}
	}
	return f.trapValue(fmt.Sprintf("undefined identifier %q", name))
}

func (f *funcLowerer) condExpr(v *CondExpr, hint int32) operand {
	dst := f.dest(hint)
	toElse := f.condJump(v.Cond, false)
	then := f.lowerExpr(v.Then, dst)
	thenDone := f.emit(opJmp, 0, 0, 0, 0)
	f.patch(toElse, f.here())
	els := f.lowerExpr(v.Else, dst)
	// A pointer if either arm is one, else the usual arithmetic conversion.
	t := promote(then.typ, els.typ)
	switch {
	case then.typ.Kind == TPtr:
		t = then.typ
	case els.typ.Kind == TPtr:
		t = els.typ
	}
	f.moveTo(f.convert(els, t, dst), dst)
	if then.reg == dst && convNoop(then.typ, t) {
		f.patch([]int32{thenDone}, f.here())
		return operand{reg: dst, typ: t}
	}
	elseDone := f.emit(opJmp, 0, 0, 0, 0)
	f.patch([]int32{thenDone}, f.here())
	f.moveTo(f.convert(then, t, dst), dst)
	f.patch([]int32{elseDone}, f.here())
	return operand{reg: dst, typ: t}
}

// lval is an assignable location: a variable's register or an element of
// a memory region.
type lval struct {
	bad       bool // not assignable: a trap was emitted and a scratch register stands in
	isVar     bool
	reg       int32 // the variable
	base, idx int32 // pointer and element index registers
	null      int32 // how a null base is reported: see nullErr
	note      string
	typ       *Type
}

func (f *funcLowerer) lvalue(e Expr, later ...Expr) lval {
	msg := "expression is not assignable"
	switch v := e.(type) {
	case *Ident:
		if slot, ok := f.lookup(v.Name); ok {
			return lval{isVar: true, reg: slot.reg, typ: slot.typ}
		}
		if _, ok := f.gindex[v.Name]; !ok {
			msg = fmt.Sprintf("undefined variable %q", v.Name)
		}
	case *IndexExpr:
		base := f.lowerExpr(v.Base, -1)
		if base.typ.Kind == TPtr {
			base = f.pin(base, append([]Expr{v.Index}, later...)...)
			idx := f.pin(f.toInt(f.lowerExpr(v.Index, -1)), later...)
			return lval{base: base.reg, idx: idx.reg, typ: base.typ.Elem}
		}
		msg = "indexing non-pointer value"
	case *UnaryExpr:
		if v.Op != "*" {
			break
		}
		p := f.lowerExpr(v.X, -1)
		if p.typ.Kind == TPtr {
			p = f.pin(p, later...)
			return lval{base: p.reg, idx: f.zero(), null: 1, typ: p.typ.Elem}
		}
		msg = "dereferencing non-pointer or null pointer"
	}
	f.trap(msg)
	return lval{bad: true, isVar: true, reg: f.temp(), typ: TypeInt}
}

var loadOps = map[TypeKind]opcode{
	TFloat: opLdF32, TDouble: opLdF64, TChar: opLdI8, TUChar: opLdU8, TBool: opLdU8,
	TShort: opLdI16, TUShort: opLdU16, TInt: opLdI32, TUInt: opLdU32,
}

// storeOps is the integer store opcode by element size.
var storeOps = [...]opcode{1: opSt8, 2: opSt16, 4: opSt32, 8: opSt64}

func (f *funcLowerer) load(lv lval, hint int32) operand {
	if lv.isVar {
		return f.moveTo(operand{reg: lv.reg, typ: lv.typ}, hint)
	}
	if lv.typ.Kind == TVoid {
		return f.trapValue("unsupported scalar size 0")
	}
	op, ok := loadOps[lv.typ.Kind]
	if !ok {
		op = opLd64
	}
	dst := f.dest(hint)
	f.access(op, dst, lv)
	switch lv.typ.Kind {
	case TBool:
		f.normalise(dst, lv.typ) // any non-zero byte is true
	case TPtr:
		f.emit(opMov, dst, f.zero(), 0, 0) // regions cannot be named in memory
	}
	return operand{reg: dst, typ: lv.typ}
}

// access emits the load or store op of register reg at lv.
func (f *funcLowerer) access(op opcode, reg int32, lv lval) {
	pc := f.emit(op, reg, lv.base, lv.idx, lv.null)
	if lv.note != "" {
		f.out.notes[pc] = lv.note
	}
}

// store assigns v, converted to the location's type, and returns the
// converted value.
func (f *funcLowerer) store(lv lval, v operand) operand {
	if lv.isVar {
		return f.convert(v, lv.typ, lv.reg)
	}
	v = f.convert(v, lv.typ, -1)
	src := v.reg
	var op opcode
	switch lv.typ.Kind {
	case TVoid:
		return v
	case TFloat:
		op = opStF32
	case TPtr:
		op, src = opSt64, f.zero()
	default:
		op = storeOps[lv.typ.Size()]
	}
	f.access(op, src, lv)
	return v
}

func (f *funcLowerer) assign(a *AssignExpr) operand {
	lv := f.lvalue(a.L, a.R)
	hint := int32(-1)
	if lv.isVar {
		hint = lv.reg
	}
	if a.Op == "=" {
		return f.store(lv, f.lowerExpr(a.R, hint))
	}
	rhs := f.lowerExpr(a.R, -1)
	cur := f.load(lv, -1)
	return f.store(lv, f.binary(a.Op[:len(a.Op)-1], cur, rhs, hint))
}

// incDec lowers ++/-- on target. It returns the old value when wantOld
// (postfix) and the new one otherwise; neither when !used.
func (f *funcLowerer) incDec(target Expr, op string, wantOld, used bool) operand {
	lv := f.lvalue(target)
	delta := int32(1)
	if op == "--" {
		delta = -1
	}
	old := f.load(lv, -1)
	if used && wantOld && lv.isVar {
		old = f.moveTo(old, f.temp())
	}
	dst := f.temp()
	if lv.isVar {
		dst = lv.reg
	}
	t := lv.typ
	switch {
	case t.Kind == TPtr:
		f.emit(opPtrAdd, dst, old.reg, f.constInt(int64(delta)), int32(t.Elem.Size()))
	case t.IsFloat():
		f.emit(opFInc, dst, old.reg, delta, int32(b2i(t.Kind == TFloat)))
	case t.Kind == TInt:
		f.emit(opAddI32, dst, old.reg, f.constInt(int64(delta)), 0)
	case t.Kind == TUInt:
		f.emit(opAddU32, dst, old.reg, f.constInt(int64(delta)), 0)
	default:
		f.emit(opAdd64, dst, old.reg, f.constInt(int64(delta)), 0)
		f.normalise(dst, t)
	}
	nv := operand{reg: dst, typ: t}
	if !lv.isVar {
		f.store(lv, nv)
	}
	if wantOld {
		return old
	}
	return nv
}

func (f *funcLowerer) unary(u *UnaryExpr, hint int32) operand {
	switch u.Op {
	case "*":
		return f.load(f.lvalue(u), hint)
	case "&":
		lv := f.lvalue(u.X)
		if lv.isVar {
			if !lv.bad {
				f.trap("cannot take the address of a register variable")
			}
			return operand{reg: f.zero(), typ: TypeInt}
		}
		dst := f.dest(hint)
		if lv.null != 0 {
			f.emit(opPtrDeref, dst, lv.base, 0, 0)
		} else {
			f.emit(opPtrIdx, dst, lv.base, lv.idx, int32(lv.typ.Size()))
		}
		return operand{reg: dst, typ: PtrTo(lv.typ, ASPrivate)}
	case "++", "--":
		return f.moveTo(f.incDec(u.X, u.Op, false, true), hint)
	case "!":
		return f.boolValue(u, hint)
	}
	x := f.lowerExpr(u.X, -1)
	switch isFloat, isPtr := x.typ.IsFloat(), x.typ.Kind == TPtr; {
	case u.Op != "-" && u.Op != "~":
		return f.trapValue(fmt.Sprintf("unsupported unary operator %q", u.Op))
	case isPtr, isFloat && u.Op == "~":
		// No such operation exists; the walker produced a zero.
		return f.moveTo(operand{reg: f.zero(), typ: x.typ}, hint)
	case isFloat:
		dst := f.dest(hint)
		f.emit(opFNeg, dst, x.reg, 0, 0)
		return operand{reg: dst, typ: x.typ}
	}
	dst := f.dest(hint)
	f.emit(pick(u.Op == "-", opNeg, opBitNot), dst, x.reg, 0, 0)
	f.normalise(dst, x.typ)
	return operand{reg: dst, typ: x.typ}
}

// boolValue materialises the truth value of e as the int 0 or 1. The value
// is written only once every operand has been read, so the destination may
// be a variable e mentions.
func (f *funcLowerer) boolValue(e Expr, hint int32) operand {
	dst := f.dest(hint)
	toFalse := f.condJump(e, false)
	f.emit(opMov, dst, f.constInt(1), 0, 0)
	done := f.emit(opJmp, 0, 0, 0, 0)
	f.patch(toFalse, f.here())
	f.emit(opMov, dst, f.zero(), 0, 0)
	f.patch([]int32{done}, f.here())
	return operand{reg: dst, typ: TypeInt}
}

func (f *funcLowerer) binaryExpr(b *BinaryExpr, hint int32) operand {
	switch b.Op {
	case "&&", "||":
		return f.boolValue(b, hint)
	case ",":
		f.discard(b.L)
		return f.lowerExpr(b.R, hint)
	}
	l := f.pin(f.lowerExpr(b.L, -1), b.R)
	r := f.lowerExpr(b.R, -1)
	return f.binary(b.Op, l, r, hint)
}

// intOps maps an integer operator to its opcodes for int, uint and 64-bit
// results; divOps to its signed and unsigned forms.
var (
	intOps = map[string][3]opcode{
		"+": {opAddI32, opAddU32, opAdd64}, "-": {opSubI32, opSubU32, opSub64},
		"*": {opMulI32, opMulU32, opMul64}, "<<": {opShlI32, opShlU32, opShl64},
		"&": {opAnd, opAnd, opAnd}, "|": {opOr, opOr, opOr}, "^": {opXor, opXor, opXor},
	}
	divOps = map[string][2]opcode{"/": {opDivS, opDivU}, "%": {opModS, opModU}, ">>": {opShrS, opShrU}}
)

// intOpFor picks op's opcode for operands (and a result) of type t.
func intOpFor(op string, t *Type) (opcode, bool) {
	if codes, ok := divOps[op]; ok {
		return codes[b2i(t.IsUnsigned())], true
	}
	codes, ok := intOps[op]
	return codes[min(int(t.Kind-TInt), 2)], ok
}

var floatOps = map[string]opcode{"+": opFAdd, "-": opFSub, "*": opFMul, "/": opFDiv}

// compareOps maps a comparison to its value opcodes (signed, unsigned,
// float), its fused branch opcodes (signed, unsigned), whether the operands
// swap (a > b is b < a), and its negation.
var compareOps = map[string]struct {
	s, u, f, js, ju opcode
	swap            bool
	not             string
}{
	"<":  {opLtS, opLtU, opFLt, opJLtS, opJLtU, false, ">="},
	">":  {opLtS, opLtU, opFLt, opJLtS, opJLtU, true, "<="},
	"<=": {opLeS, opLeU, opFLe, opJLeS, opJLeU, false, ">"},
	">=": {opLeS, opLeU, opFLe, opJLeS, opJLeU, true, "<"},
	"==": {opEq, opEq, opFEq, opJEq, opJEq, false, "!="},
	"!=": {opNe, opNe, opFNe, opJNe, opJNe, false, "=="},
}

// binary lowers `l op r` for already-evaluated operands.
func (f *funcLowerer) binary(op string, l, r operand, hint int32) operand {
	if l.typ.Kind == TPtr || r.typ.Kind == TPtr {
		return f.ptrBinary(op, l, r, hint)
	}
	t := promote(l.typ, r.typ)
	cmp, isCmp := compareOps[op]
	if t.IsFloat() {
		// Operands take their float64 value unrounded; only the result is
		// rounded to the promoted type.
		x, y := f.convert(l, TypeDouble, -1), f.convert(r, TypeDouble, -1)
		if isCmp {
			if cmp.swap {
				x, y = y, x
			}
			dst := f.dest(hint)
			f.emit(cmp.f, dst, x.reg, y.reg, 0)
			return operand{reg: dst, typ: TypeInt}
		}
		code, ok := floatOps[op]
		if !ok {
			return f.trapValue(fmt.Sprintf("operator %q not defined on floating-point operands", op))
		}
		dst := f.dest(hint)
		f.emit(code, dst, x.reg, y.reg, int32(b2i(t.Kind == TFloat)))
		return operand{reg: dst, typ: t}
	}
	if op == "<<" || op == ">>" {
		// The result has the left operand's promoted type; only the low
		// six bits of the count are used.
		lt := l.typ
		if lt.Size() < 4 {
			lt = TypeInt
		}
		code, _ := intOpFor(op, lt)
		dst := f.dest(hint)
		f.emit(code, dst, l.reg, r.reg, 0)
		return operand{reg: dst, typ: lt}
	}
	x, y := f.convert(l, t, -1), f.convert(r, t, -1)
	if isCmp {
		if cmp.swap {
			x, y = y, x
		}
		dst := f.dest(hint)
		f.emit(pick(t.IsUnsigned(), cmp.u, cmp.s), dst, x.reg, y.reg, 0)
		return operand{reg: dst, typ: TypeInt}
	}
	code, ok := intOpFor(op, t)
	if !ok {
		return f.trapValue(fmt.Sprintf("unsupported binary operator %q", op))
	}
	dst := f.dest(hint)
	f.emit(code, dst, x.reg, y.reg, 0)
	if t.Kind == TInt && (op == "/" || op == "%") {
		f.normalise(dst, t) // INT_MIN / -1 wraps
	}
	return operand{reg: dst, typ: t}
}

func (f *funcLowerer) ptrBinary(op string, l, r operand, hint int32) operand {
	lp, rp := l.typ.Kind == TPtr, r.typ.Kind == TPtr
	cmp, isCmp := compareOps[op]
	switch {
	case lp != rp && (op == "+" || op == "-" && lp):
		p, n := l, r
		if rp {
			p, n = r, l
		}
		size := int32(p.typ.Elem.Size())
		if op == "-" {
			size = -size
		}
		n = f.toInt(n)
		dst := f.dest(hint)
		f.emit(opPtrAdd, dst, p.reg, n.reg, size)
		return operand{reg: dst, typ: p.typ}
	case lp != rp && (op == "==" || op == "!="):
		// A pointer equals an integer only when both are null.
		p, n := l, r
		if rp {
			p, n = r, l
		}
		n = f.toInt(n)
		dst := f.dest(hint)
		f.emit(opPtrIsNull, dst, p.reg, n.reg, 0)
		if op == "!=" {
			f.emit(opEq, dst, dst, f.zero(), 0)
		}
		return operand{reg: dst, typ: TypeInt}
	case lp && rp && op == "-":
		size := int32(l.typ.Elem.Size())
		if size == 0 {
			return f.trapValue("subtraction of pointers to void")
		}
		dst := f.dest(hint)
		f.emit(opPtrDiff, dst, l.reg, r.reg, size)
		return operand{reg: dst, typ: TypeLong}
	case lp && rp && (op == "==" || op == "!="):
		dst := f.dest(hint)
		f.emit(opPtrEq, dst, l.reg, r.reg, 0)
		if op == "!=" {
			f.emit(opEq, dst, dst, f.zero(), 0)
		}
		return operand{reg: dst, typ: TypeInt}
	case lp && rp && isCmp:
		f.emit(opPtrSame, 0, l.reg, r.reg, 0)
		if cmp.swap {
			l, r = r, l
		}
		dst := f.dest(hint)
		f.emit(cmp.s, dst, l.reg, r.reg, 0) // offsets compare as longs
		return operand{reg: dst, typ: TypeInt}
	}
	return f.trapValue(fmt.Sprintf("unsupported pointer operation %q", op))
}

// condJump lowers e as a branch taken when its truth value equals jumpIf,
// and returns the jumps to patch with the target.
func (f *funcLowerer) condJump(e Expr, jumpIf bool) []int32 {
	mark := f.ntemps
	defer func() { f.ntemps = mark }()
	switch v := e.(type) {
	case *UnaryExpr:
		if v.Op == "!" {
			return f.condJump(v.X, !jumpIf)
		}
	case *BinaryExpr:
		switch v.Op {
		case "&&", "||":
			// `a && b` is false as soon as a is; `a || b` true as soon as a is.
			if (v.Op == "&&") != jumpIf {
				return append(f.condJump(v.L, jumpIf), f.condJump(v.R, jumpIf)...)
			}
			skip := f.condJump(v.L, !jumpIf)
			out := f.condJump(v.R, jumpIf)
			f.patch(skip, f.here())
			return out
		case "<", ">", "<=", ">=", "==", "!=":
			l := f.pin(f.lowerExpr(v.L, -1), v.R)
			r := f.lowerExpr(v.R, -1)
			if l.typ.Kind == TPtr || r.typ.Kind == TPtr || promote(l.typ, r.typ).IsFloat() {
				return f.jumpOn(f.binary(v.Op, l, r, -1), jumpIf)
			}
			t := promote(l.typ, r.typ)
			x, y := f.convert(l, t, -1), f.convert(r, t, -1)
			cmp := compareOps[v.Op]
			if !jumpIf {
				cmp = compareOps[cmp.not] // !(a<b) is a>=b: every fused branch has its negation
			}
			if cmp.swap {
				x, y = y, x
			}
			return []int32{f.emit(pick(t.IsUnsigned(), cmp.ju, cmp.js), x.reg, y.reg, 0, 0)}
		}
	}
	return f.jumpOn(f.lowerExpr(e, -1), jumpIf)
}

func (f *funcLowerer) jumpOn(v operand, jumpIf bool) []int32 {
	var code opcode
	switch {
	case v.typ.IsFloat():
		code = pick(jumpIf, opJnzF, opJzF)
	case v.typ.Kind == TPtr:
		code = pick(jumpIf, opJnzP, opJzP)
	default:
		code = pick(jumpIf, opJnzI, opJzI)
	}
	return []int32{f.emit(code, v.reg, 0, 0, 0)}
}

func (f *funcLowerer) call(c *CallExpr, hint int32) operand {
	// Builtins first: a user helper with a builtin's name is never called.
	if v, ok := f.lowerBuiltin(c, hint); ok {
		return v
	}
	idx := slices.IndexFunc(f.unit.Funcs, func(fn *FuncDecl) bool { return fn.Name == c.Fun })
	if idx < 0 {
		return f.trapValue(fmt.Sprintf("call to undefined function %q", c.Fun))
	}
	fn := f.unit.Funcs[idx]
	if fn.Body == nil {
		return f.trapValue(fmt.Sprintf("call to function %q with no body", c.Fun))
	}
	if len(c.Args) != len(fn.Params) {
		return f.trapValue(fmt.Sprintf("function %q expects %d arguments, got %d", c.Fun, len(fn.Params), len(c.Args)))
	}
	blk := f.block(len(c.Args))
	for i, a := range c.Args {
		mark := f.ntemps
		f.moveTo(f.convert(f.lowerExpr(a, -1), fn.Params[i].Type, blk+int32(i)), blk+int32(i))
		f.ntemps = mark
	}
	dst := f.dest(hint)
	f.emit(opCall, dst, blk, int32(idx), 0)
	return operand{reg: dst, typ: fn.Return}
}
