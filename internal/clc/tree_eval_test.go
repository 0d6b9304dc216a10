package clc

import (
	"fmt"
)

// lvalue is an assignable location: either a named variable slot or a
// memory-backed element.
type lvalue struct {
	varRef *value  // non-nil for plain variables
	mem    *memory // non-nil for memory-backed targets
	off    int64
	typ    *Type
}

func (w *witem) lval(e Expr) (lvalue, error) {
	switch v := e.(type) {
	case *Ident:
		slot := w.lookup(v.Name)
		if slot == nil {
			return lvalue{}, fmt.Errorf("undefined variable %q", v.Name)
		}
		return lvalue{varRef: slot, typ: slot.typ}, nil
	case *IndexExpr:
		base, err := w.evalExpr(v.Base)
		if err != nil {
			return lvalue{}, err
		}
		if base.typ == nil || base.typ.Kind != TPtr {
			return lvalue{}, fmt.Errorf("indexing non-pointer value")
		}
		if base.p.mem == nil {
			return lvalue{}, fmt.Errorf("indexing null pointer")
		}
		idx, err := w.evalExpr(v.Index)
		if err != nil {
			return lvalue{}, err
		}
		elem := base.p.elem
		off := base.p.off + asInt(idx)*int64(elem.Size())
		return lvalue{mem: base.p.mem, off: off, typ: elem}, nil
	case *UnaryExpr:
		if v.Op == "*" {
			ptr, err := w.evalExpr(v.X)
			if err != nil {
				return lvalue{}, err
			}
			if ptr.typ == nil || ptr.typ.Kind != TPtr || ptr.p.mem == nil {
				return lvalue{}, fmt.Errorf("dereferencing non-pointer or null pointer")
			}
			return lvalue{mem: ptr.p.mem, off: ptr.p.off, typ: ptr.p.elem}, nil
		}
		return lvalue{}, fmt.Errorf("expression is not assignable")
	default:
		return lvalue{}, fmt.Errorf("expression is not assignable")
	}
}

func (w *witem) loadLV(lv lvalue) (value, error) {
	if lv.varRef != nil {
		return *lv.varRef, nil
	}
	return loadScalar(lv.mem, lv.off, lv.typ, &w.prof)
}

func (w *witem) storeLV(lv lvalue, v value) error {
	if lv.varRef != nil {
		*lv.varRef = convertTo(v, lv.typ)
		return nil
	}
	return storeScalar(lv.mem, lv.off, lv.typ, convertTo(v, lv.typ), &w.prof)
}

func (w *witem) evalExpr(e Expr) (value, error) {
	switch v := e.(type) {
	case *IntLit:
		t := TypeInt
		if v.Val > (1<<31)-1 || v.Val < -(1<<31) {
			t = TypeLong
		}
		return value{typ: t, i: v.Val}, nil
	case *FloatLit:
		return value{typ: TypeFloat, f: float64(float32(v.Val))}, nil
	case *Ident:
		if slot := w.lookup(v.Name); slot != nil {
			return *slot, nil
		}
		if c, ok := treePredefined[v.Name]; ok {
			return c, nil
		}
		return value{}, fmt.Errorf("undefined identifier %q", v.Name)
	case *CastExpr:
		x, err := w.evalExpr(v.X)
		if err != nil {
			return value{}, err
		}
		return convertTo(x, v.Type), nil
	case *CondExpr:
		c, err := w.evalExpr(v.Cond)
		if err != nil {
			return value{}, err
		}
		taken, other := v.Then, v.Else
		if !truthy(c) {
			taken, other = other, taken
		}
		x, err := w.evalExpr(taken)
		if err != nil {
			return value{}, err
		}
		// The result has the common type of both arms, as in C.
		if ot := w.typeOf(other); ot != nil {
			tt, et := x.typ, ot
			if taken != v.Then {
				tt, et = ot, x.typ
			}
			t := promote(tt, et)
			switch {
			case tt.Kind == TPtr:
				t = tt
			case et.Kind == TPtr:
				t = et
			}
			x = convertTo(x, t)
		}
		return x, nil
	case *AssignExpr:
		return w.evalAssign(v)
	case *UnaryExpr:
		return w.evalUnary(v)
	case *PostfixExpr:
		lv, err := w.lval(v.X)
		if err != nil {
			return value{}, err
		}
		old, err := w.loadLV(lv)
		if err != nil {
			return value{}, err
		}
		delta := int64(1)
		if v.Op == "--" {
			delta = -1
		}
		var nv value
		if old.typ.Kind == TPtr {
			nv = old
			nv.p.off += delta * int64(old.p.elem.Size())
		} else if old.typ.IsFloat() {
			nv = value{typ: old.typ, f: roundF(old.f+float64(delta), old.typ)}
		} else {
			nv = value{typ: old.typ, i: normalizeInt(old.i+delta, old.typ)}
		}
		if err := w.storeLV(lv, nv); err != nil {
			return value{}, err
		}
		return old, nil
	case *IndexExpr:
		lv, err := w.lval(v)
		if err != nil {
			return value{}, err
		}
		return w.loadLV(lv)
	case *BinaryExpr:
		return w.evalBinary(v)
	case *CallExpr:
		return w.evalCall(v)
	default:
		return value{}, fmt.Errorf("unsupported expression %T", e)
	}
}

func (w *witem) evalAssign(a *AssignExpr) (value, error) {
	lv, err := w.lval(a.L)
	if err != nil {
		return value{}, err
	}
	rhs, err := w.evalExpr(a.R)
	if err != nil {
		return value{}, err
	}
	if a.Op != "=" {
		cur, err := w.loadLV(lv)
		if err != nil {
			return value{}, err
		}
		op := a.Op[:len(a.Op)-1] // "+=" -> "+"
		rhs, err = w.applyBinary(op, cur, rhs)
		if err != nil {
			return value{}, err
		}
	}
	out := convertTo(rhs, lv.typ)
	if err := w.storeLV(lv, out); err != nil {
		return value{}, err
	}
	return out, nil
}

func (w *witem) evalUnary(u *UnaryExpr) (value, error) {
	switch u.Op {
	case "*":
		lv, err := w.lval(u)
		if err != nil {
			return value{}, err
		}
		return w.loadLV(lv)
	case "&":
		lv, err := w.lval(u.X)
		if err != nil {
			return value{}, err
		}
		if lv.mem == nil {
			return value{}, fmt.Errorf("cannot take the address of a register variable")
		}
		return value{typ: PtrTo(lv.typ, ASPrivate), p: ptrVal{mem: lv.mem, off: lv.off, elem: lv.typ}}, nil
	case "++", "--":
		lv, err := w.lval(u.X)
		if err != nil {
			return value{}, err
		}
		old, err := w.loadLV(lv)
		if err != nil {
			return value{}, err
		}
		delta := int64(1)
		if u.Op == "--" {
			delta = -1
		}
		var nv value
		if old.typ.Kind == TPtr {
			nv = old
			nv.p.off += delta * int64(old.p.elem.Size())
		} else if old.typ.IsFloat() {
			nv = value{typ: old.typ, f: roundF(old.f+float64(delta), old.typ)}
		} else {
			nv = value{typ: old.typ, i: normalizeInt(old.i+delta, old.typ)}
		}
		if err := w.storeLV(lv, nv); err != nil {
			return value{}, err
		}
		return nv, nil
	}
	x, err := w.evalExpr(u.X)
	if err != nil {
		return value{}, err
	}
	switch u.Op {
	case "-":
		if x.typ.IsFloat() {
			w.prof.Flops++
			return value{typ: x.typ, f: roundF(-x.f, x.typ)}, nil
		}
		return value{typ: x.typ, i: normalizeInt(-x.i, x.typ)}, nil
	case "!":
		if truthy(x) {
			return value{typ: TypeInt, i: 0}, nil
		}
		return value{typ: TypeInt, i: 1}, nil
	case "~":
		return value{typ: x.typ, i: normalizeInt(^x.i, x.typ)}, nil
	default:
		return value{}, fmt.Errorf("unsupported unary operator %q", u.Op)
	}
}

func (w *witem) evalBinary(b *BinaryExpr) (value, error) {
	switch b.Op {
	case "&&":
		l, err := w.evalExpr(b.L)
		if err != nil {
			return value{}, err
		}
		if !truthy(l) {
			return value{typ: TypeInt, i: 0}, nil
		}
		r, err := w.evalExpr(b.R)
		if err != nil {
			return value{}, err
		}
		return value{typ: TypeInt, i: boolInt(truthy(r))}, nil
	case "||":
		l, err := w.evalExpr(b.L)
		if err != nil {
			return value{}, err
		}
		if truthy(l) {
			return value{typ: TypeInt, i: 1}, nil
		}
		r, err := w.evalExpr(b.R)
		if err != nil {
			return value{}, err
		}
		return value{typ: TypeInt, i: boolInt(truthy(r))}, nil
	case ",":
		if _, err := w.evalExpr(b.L); err != nil {
			return value{}, err
		}
		return w.evalExpr(b.R)
	}
	l, err := w.evalExpr(b.L)
	if err != nil {
		return value{}, err
	}
	r, err := w.evalExpr(b.R)
	if err != nil {
		return value{}, err
	}
	return w.applyBinary(b.Op, l, r)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// roundF applies single-precision rounding when the result type is float.
func roundF(f float64, t *Type) float64 {
	if t.Kind == TFloat {
		return float64(float32(f))
	}
	return f
}

func (w *witem) applyBinary(op string, l, r value) (value, error) {
	// Pointer arithmetic and comparison.
	if l.typ != nil && l.typ.Kind == TPtr || r.typ != nil && r.typ.Kind == TPtr {
		return w.applyPtrBinary(op, l, r)
	}
	t := promote(l.typ, r.typ)
	if t.IsFloat() {
		lf, rf := asFloat(l), asFloat(r)
		w.prof.Flops++
		switch op {
		case "+":
			return value{typ: t, f: roundF(lf+rf, t)}, nil
		case "-":
			return value{typ: t, f: roundF(lf-rf, t)}, nil
		case "*":
			return value{typ: t, f: roundF(lf*rf, t)}, nil
		case "/":
			return value{typ: t, f: roundF(lf/rf, t)}, nil
		case "<":
			return value{typ: TypeInt, i: boolInt(lf < rf)}, nil
		case ">":
			return value{typ: TypeInt, i: boolInt(lf > rf)}, nil
		case "<=":
			return value{typ: TypeInt, i: boolInt(lf <= rf)}, nil
		case ">=":
			return value{typ: TypeInt, i: boolInt(lf >= rf)}, nil
		case "==":
			return value{typ: TypeInt, i: boolInt(lf == rf)}, nil
		case "!=":
			return value{typ: TypeInt, i: boolInt(lf != rf)}, nil
		default:
			return value{}, fmt.Errorf("operator %q not defined on floating-point operands", op)
		}
	}
	li := normalizeInt(asInt(l), t)
	ri := normalizeInt(asInt(r), t)
	unsigned := t.IsUnsigned()
	cmpLess := func() bool {
		if unsigned {
			return uint64(li) < uint64(ri)
		}
		return li < ri
	}
	switch op {
	case "+":
		return value{typ: t, i: normalizeInt(li+ri, t)}, nil
	case "-":
		return value{typ: t, i: normalizeInt(li-ri, t)}, nil
	case "*":
		return value{typ: t, i: normalizeInt(li*ri, t)}, nil
	case "/":
		if ri == 0 {
			return value{}, fmt.Errorf("integer division by zero")
		}
		if unsigned {
			return value{typ: t, i: normalizeInt(int64(uint64(li)/uint64(ri)), t)}, nil
		}
		return value{typ: t, i: normalizeInt(li/ri, t)}, nil
	case "%":
		if ri == 0 {
			return value{}, fmt.Errorf("integer modulo by zero")
		}
		if unsigned {
			return value{typ: t, i: normalizeInt(int64(uint64(li)%uint64(ri)), t)}, nil
		}
		return value{typ: t, i: normalizeInt(li%ri, t)}, nil
	case "&":
		return value{typ: t, i: normalizeInt(li&ri, t)}, nil
	case "|":
		return value{typ: t, i: normalizeInt(li|ri, t)}, nil
	case "^":
		return value{typ: t, i: normalizeInt(li^ri, t)}, nil
	case "<<":
		lt := l.typ
		if lt.Size() < 4 {
			lt = TypeInt
		}
		return value{typ: lt, i: normalizeInt(asInt(l)<<uint(ri&63), lt)}, nil
	case ">>":
		lt := l.typ
		if lt.Size() < 4 {
			lt = TypeInt
		}
		lv := normalizeInt(asInt(l), lt)
		if lt.IsUnsigned() {
			var shifted uint64
			switch lt.Size() {
			case 4:
				shifted = uint64(uint32(lv)) >> uint(ri&63)
			default:
				shifted = uint64(lv) >> uint(ri&63)
			}
			return value{typ: lt, i: normalizeInt(int64(shifted), lt)}, nil
		}
		return value{typ: lt, i: normalizeInt(lv>>uint(ri&63), lt)}, nil
	case "<":
		return value{typ: TypeInt, i: boolInt(cmpLess())}, nil
	case ">":
		return value{typ: TypeInt, i: boolInt(li != ri && !cmpLess())}, nil
	case "<=":
		return value{typ: TypeInt, i: boolInt(li == ri || cmpLess())}, nil
	case ">=":
		return value{typ: TypeInt, i: boolInt(!cmpLess())}, nil
	case "==":
		return value{typ: TypeInt, i: boolInt(li == ri)}, nil
	case "!=":
		return value{typ: TypeInt, i: boolInt(li != ri)}, nil
	default:
		return value{}, fmt.Errorf("unsupported binary operator %q", op)
	}
}

func (w *witem) applyPtrBinary(op string, l, r value) (value, error) {
	lp := l.typ != nil && l.typ.Kind == TPtr
	rp := r.typ != nil && r.typ.Kind == TPtr
	switch {
	case lp && !rp:
		n := asInt(r)
		switch op {
		case "+":
			out := l
			out.p.off += n * int64(l.p.elem.Size())
			return out, nil
		case "-":
			out := l
			out.p.off -= n * int64(l.p.elem.Size())
			return out, nil
		}
	case !lp && rp && op == "+":
		n := asInt(l)
		out := r
		out.p.off += n * int64(r.p.elem.Size())
		return out, nil
	case lp && rp:
		switch op {
		case "-":
			if l.p.mem != r.p.mem {
				return value{}, fmt.Errorf("subtraction of pointers into different objects")
			}
			return value{typ: TypeLong, i: (l.p.off - r.p.off) / int64(l.p.elem.Size())}, nil
		case "==":
			return value{typ: TypeInt, i: boolInt(l.p.mem == r.p.mem && l.p.off == r.p.off)}, nil
		case "!=":
			return value{typ: TypeInt, i: boolInt(!(l.p.mem == r.p.mem && l.p.off == r.p.off))}, nil
		case "<", ">", "<=", ">=":
			if l.p.mem != r.p.mem {
				return value{}, fmt.Errorf("comparison of pointers into different objects")
			}
			return w.applyBinary(op, value{typ: TypeLong, i: l.p.off}, value{typ: TypeLong, i: r.p.off})
		}
	}
	// Pointer vs. integer equality (NULL checks).
	if (lp || rp) && (op == "==" || op == "!=") {
		var isNull bool
		if lp {
			isNull = l.p.mem == nil && asInt(r) == 0
		} else {
			isNull = r.p.mem == nil && asInt(l) == 0
		}
		if op == "==" {
			return value{typ: TypeInt, i: boolInt(isNull)}, nil
		}
		return value{typ: TypeInt, i: boolInt(!isNull)}, nil
	}
	return value{}, fmt.Errorf("unsupported pointer operation %q", op)
}

func (w *witem) evalCall(c *CallExpr) (value, error) {
	// Builtins first: the OpenCL builtin namespace shadows nothing here
	// because user helpers with builtin names are rejected at call time.
	if v, ok, err := w.callBuiltin(c); ok {
		return v, err
	}
	fn := w.in.prog.Unit.Lookup(c.Fun)
	if fn == nil {
		return value{}, fmt.Errorf("call to undefined function %q", c.Fun)
	}
	if fn.Body == nil {
		return value{}, fmt.Errorf("call to function %q with no body", c.Fun)
	}
	if len(c.Args) != len(fn.Params) {
		return value{}, fmt.Errorf("function %q expects %d arguments, got %d", c.Fun, len(fn.Params), len(c.Args))
	}
	if w.depth > 64 {
		return value{}, fmt.Errorf("call depth limit exceeded calling %q", c.Fun)
	}
	args := make([]value, len(c.Args))
	for i, a := range c.Args {
		v, err := w.evalExpr(a)
		if err != nil {
			return value{}, err
		}
		args[i] = v
	}
	saved := w.scopes
	w.scopes = nil
	w.pushScope()
	for i, p := range fn.Params {
		w.define(p.Name, convertTo(args[i], p.Type))
	}
	w.depth++
	savedRet := w.retType
	w.retType = fn.Return
	w.retVal = value{typ: fn.Return}
	_, err := w.execStmt(fn.Body)
	w.retType = savedRet
	w.depth--
	ret := w.retVal
	w.scopes = saved
	if err != nil {
		return value{}, fmt.Errorf("in %s: %w", fn.Name, err)
	}
	return ret, nil
}

// typeOf is the static C type of e in the current scopes, or nil when it
// cannot be told (an undefined name): what `?:` needs of the arm it does not
// evaluate.
func (w *witem) typeOf(e Expr) *Type {
	switch v := e.(type) {
	case *IntLit:
		if v.Val > (1<<31)-1 || v.Val < -(1<<31) {
			return TypeLong
		}
		return TypeInt
	case *FloatLit:
		return TypeFloat
	case *Ident:
		if slot := w.lookup(v.Name); slot != nil {
			return slot.typ
		}
		if c, ok := treePredefined[v.Name]; ok {
			return c.typ
		}
	case *CastExpr:
		return v.Type
	case *CondExpr:
		a, b := w.typeOf(v.Then), w.typeOf(v.Else)
		switch {
		case a == nil || b == nil:
			return nil
		case a.Kind == TPtr:
			return a
		case b.Kind == TPtr:
			return b
		}
		return promote(a, b)
	case *AssignExpr:
		return w.typeOf(v.L)
	case *PostfixExpr:
		return w.typeOf(v.X)
	case *IndexExpr:
		if t := w.typeOf(v.Base); t != nil && t.Kind == TPtr {
			return t.Elem
		}
	case *UnaryExpr:
		t := w.typeOf(v.X)
		switch {
		case v.Op == "!":
			return TypeInt
		case t == nil:
			return nil
		case v.Op == "&":
			return PtrTo(t, ASPrivate)
		case v.Op == "*" && t.Kind == TPtr:
			return t.Elem
		case v.Op != "*":
			return t
		}
	case *BinaryExpr:
		switch v.Op {
		case "&&", "||", "<", ">", "<=", ">=", "==", "!=":
			return TypeInt
		case ",":
			return w.typeOf(v.R)
		}
		a, b := w.typeOf(v.L), w.typeOf(v.R)
		switch {
		case a == nil || b == nil:
			return nil
		case a.Kind == TPtr && b.Kind == TPtr:
			return TypeLong
		case a.Kind == TPtr:
			return a
		case b.Kind == TPtr:
			return b
		case (v.Op == "<<" || v.Op == ">>") && !promote(a, b).IsFloat():
			if a.Size() < 4 {
				return TypeInt
			}
			return a
		}
		return promote(a, b)
	case *CallExpr:
		if fn := w.in.prog.Unit.Lookup(v.Fun); fn != nil && !isTreeBuiltin(v.Fun) {
			return fn.Return
		}
		// Builtin result types the corpus relies on: float math keeps
		// float unless an argument is double; the rest are not used as the
		// untaken arm of a mixed-type ?: in any test.
		for _, a := range v.Args {
			if t := w.typeOf(a); t != nil && t.Kind == TDouble {
				return TypeDouble
			}
		}
		if _, ok := mathFlopWeight[builtinBase(v.Fun)]; ok {
			return TypeFloat
		}
	}
	return nil
}

func isTreeBuiltin(name string) bool {
	base := builtinBase(name)
	_, isMath := mathFlopWeight[base]
	_, isID := workItemFns[base]
	_, isConv := convertFns[base]
	_, isFixed := fixedArity[base]
	return isMath || isID || isConv || isFixed || isAtomicName(base) || base == "barrier"
}
