package clc

import (
	"fmt"
	"math"
	"strings"
)

// predef is an identifier that OpenCL C exposes without declaration.
type predef struct {
	typ *Type
	i   int64
	f   float64
}

var predefined = map[string]predef{
	"CLK_LOCAL_MEM_FENCE":  {typ: TypeUInt, i: 1},
	"CLK_GLOBAL_MEM_FENCE": {typ: TypeUInt, i: 2},
	"M_PI":                 {typ: TypeDouble, f: math.Pi},
	"M_PI_F":               {typ: TypeFloat, f: float64(float32(math.Pi))},
	"M_E":                  {typ: TypeDouble, f: math.E},
	"FLT_MAX":              {typ: TypeFloat, f: float64(math.MaxFloat32)},
	"FLT_MIN":              {typ: TypeFloat, f: float64(math.SmallestNonzeroFloat32)},
	"FLT_EPSILON":          {typ: TypeFloat, f: float64(float32(1.1920929e-7))},
	"MAXFLOAT":             {typ: TypeFloat, f: float64(math.MaxFloat32)},
	"INFINITY":             {typ: TypeFloat, f: math.Inf(1)},
	"NAN":                  {typ: TypeFloat, f: math.NaN()},
	"INT_MAX":              {typ: TypeInt, i: math.MaxInt32},
	"INT_MIN":              {typ: TypeInt, i: math.MinInt32},
	"UINT_MAX":             {typ: TypeUInt, i: int64(math.MaxUint32)},
	"CHAR_BIT":             {typ: TypeInt, i: 8},
	"NULL":                 {typ: PtrTo(TypeVoid, ASPrivate)},
	"true":                 {typ: TypeBool, i: 1},
	"false":                {typ: TypeBool, i: 0},
}

// mathFn is one float math builtin: its arity, the rough operation
// equivalent the roofline cost model charges for it, and its float64
// implementation (results are rounded to single unless an argument is
// double).
type mathFn struct {
	name   string
	nargs  int
	weight int64
	f1     func(a float64) float64
	f2     func(a, b float64) float64
	f3     func(a, b, c float64) float64
}

func m1(name string, weight int64, f func(float64) float64) mathFn {
	return mathFn{name: name, nargs: 1, weight: weight, f1: f}
}

func m2(name string, weight int64, f func(a, b float64) float64) mathFn {
	return mathFn{name: name, nargs: 2, weight: weight, f2: f}
}

func m3(name string, weight int64, f func(a, b, c float64) float64) mathFn {
	return mathFn{name: name, nargs: 3, weight: weight, f3: f}
}

var mathFns = []mathFn{
	m1("sqrt", 4, math.Sqrt),
	m1("rsqrt", 4, func(a float64) float64 { return 1 / math.Sqrt(a) }),
	m1("cbrt", 8, math.Cbrt),
	m1("exp", 8, math.Exp),
	m1("exp2", 8, math.Exp2),
	m1("exp10", 8, func(a float64) float64 { return math.Pow(10, a) }),
	m1("expm1", 8, math.Expm1),
	m1("log", 8, math.Log),
	m1("log2", 8, math.Log2),
	m1("log10", 8, math.Log10),
	m1("log1p", 8, math.Log1p),
	m1("sin", 8, math.Sin),
	m1("cos", 8, math.Cos),
	m1("tan", 10, math.Tan),
	m1("asin", 10, math.Asin),
	m1("acos", 10, math.Acos),
	m1("atan", 10, math.Atan),
	m2("atan2", 12, math.Atan2),
	m1("sinh", 10, math.Sinh),
	m1("cosh", 10, math.Cosh),
	m1("tanh", 10, math.Tanh),
	m2("pow", 12, math.Pow),
	m2("powr", 12, math.Pow),
	m2("hypot", 8, math.Hypot),
	m1("fabs", 1, math.Abs),
	m1("floor", 1, math.Floor),
	m1("ceil", 1, math.Ceil),
	m1("round", 1, math.Round),
	m1("trunc", 1, math.Trunc),
	m1("rint", 1, math.Trunc),
	m2("fmin", 1, math.Min),
	m2("fmax", 1, math.Max),
	m2("fmod", 4, math.Mod),
	m2("copysign", 1, math.Copysign),
	m1("sign", 1, func(a float64) float64 {
		switch {
		case a > 0:
			return 1
		case a < 0:
			return -1
		}
		return 0
	}),
	m3("mad", 2, func(a, b, c float64) float64 { return a*b + c }),
	m3("fma", 2, func(a, b, c float64) float64 { return a*b + c }),
	m3("mix", 3, func(a, b, c float64) float64 { return a + (b-a)*c }),
	m2("step", 1, func(a, b float64) float64 {
		if b < a {
			return 0
		}
		return 1
	}),
	m3("smoothstep", 6, func(a, b, c float64) float64 {
		t := (c - a) / (b - a)
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		return t * t * (3 - 2*t)
	}),
	m3("clamp", 2, func(a, b, c float64) float64 { return math.Max(b, math.Min(a, c)) }),
	m1("degrees", 1, func(a float64) float64 { return a * 180 / math.Pi }),
	m1("radians", 1, func(a float64) float64 { return a * math.Pi / 180 }),
	m1("recip", 4, func(a float64) float64 { return 1 / a }),
	m2("divide", 4, func(a, b float64) float64 { return a / b }),
	// Accepted by name, but no arity is implemented.
	{name: "sincos", weight: 12},
}

var mathIndex = func() map[string]int32 {
	idx := make(map[string]int32, len(mathFns))
	for i, m := range mathFns {
		idx[m.name] = int32(i)
	}
	return idx
}()

// atomics maps an atomic builtin to its argument count and the opcode that
// combines the old value with the operand (0: the operand replaces it).
var atomics = map[string]struct {
	nargs int
	op    opcode
}{
	"atomic_add": {2, opAdd64}, "atom_add": {2, opAdd64},
	"atomic_sub": {2, opSub64}, "atom_sub": {2, opSub64},
	"atomic_inc": {1, opAdd64}, "atom_inc": {1, opAdd64},
	"atomic_dec": {1, opSub64}, "atom_dec": {1, opSub64},
	"atomic_xchg": {2, 0}, "atom_xchg": {2, 0},
	"atomic_min": {2, opMinS}, "atom_min": {2, opMinS},
	"atomic_max": {2, opMaxS}, "atom_max": {2, opMaxS},
	"atomic_cmpxchg": {3, 0}, "atom_cmpxchg": {3, 0},
	"atomic_and": {2, opAnd}, "atomic_or": {2, opOr}, "atomic_xor": {2, opXor},
}

// decodeReg reads one element of type t from b in register form.
func decodeReg(b []byte, t *Type) int64 {
	var raw uint64
	for i := range b {
		raw |= uint64(b[i]) << (8 * i)
	}
	switch t.Kind {
	case TFloat:
		return fbits(float64(math.Float32frombits(uint32(raw))))
	case TPtr:
		return 0 // regions cannot be named in memory
	}
	return normalizeKind(int64(raw), t.Kind)
}

// encodeReg stores register value v as an element of type t.
func encodeReg(b []byte, v int64, t *Type) {
	if t.Kind == TFloat {
		v = int64(math.Float32bits(float32(math.Float64frombits(uint64(v)))))
	}
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}

// builtinBase strips the native_/half_ prefixes, whose variants share
// their exact counterparts.
func builtinBase(name string) string {
	for _, prefix := range []string{"native_", "half_"} {
		if len(name) > len(prefix) && strings.HasPrefix(name, prefix) {
			name = name[len(prefix):]
		}
	}
	return name
}

var workItemFns = map[string]int32{
	"get_global_id": idGlobalID, "get_local_id": idLocalID, "get_group_id": idGroupID,
	"get_global_size": idGlobalSize, "get_local_size": idLocalSize,
	"get_num_groups": idNumGroups, "get_global_offset": idGlobalOffset,
}

var convertFns = map[string]*Type{
	"convert_int": TypeInt, "convert_int_sat": TypeInt,
	"convert_uint": TypeUInt, "convert_uint_sat": TypeUInt,
	"convert_long": TypeLong, "convert_ulong": TypeULong,
	"convert_float": TypeFloat, "convert_double": TypeDouble,
	"convert_uchar": TypeUChar, "convert_uchar_sat": TypeUChar,
	"convert_char": TypeChar, "convert_short": TypeShort, "convert_ushort": TypeUShort,
}

// fixedArity lists the builtins whose argument count is checked before
// any argument is evaluated.
var fixedArity = map[string]int{
	"get_work_dim": 0, "as_float": 1, "as_int": 1, "as_uint": 1, "abs": 1,
	"min": 2, "max": 2, "mul24": 2, "mad24": 3, "rotate": 2, "popcount": 1,
}

// lowerBuiltin lowers c if it names a builtin; ok is false when c is not a
// builtin and should be resolved as a user function.
func (f *funcLowerer) lowerBuiltin(c *CallExpr, hint int32) (v operand, ok bool) {
	name := c.Fun
	base := builtinBase(name)
	void := operand{reg: f.zero(), typ: TypeVoid}
	id, isID := workItemFns[base]
	want, fixed := fixedArity[base]
	if isID {
		want, fixed = 1, true
	}
	if fixed && len(c.Args) != want {
		f.trap(fmt.Sprintf("builtin %s expects %d arguments, got %d", name, want, len(c.Args)))
		return void, true
	}
	if t, isConv := convertFns[base]; isConv {
		if len(c.Args) != 1 {
			f.trap(name + " expects one argument")
			return void, true
		}
		return f.convert(f.lowerExpr(c.Args[0], -1), t, hint), true
	}
	if at, isAtomic := atomics[base]; isAtomic {
		return f.lowerAtomic(base, at.nargs, at.op, c, hint), true
	}
	if idx, isMath := mathIndex[base]; isMath {
		return f.lowerMath(base, idx, c, hint), true
	}
	switch base {
	case "barrier", "work_group_barrier", "mem_fence", "read_mem_fence", "write_mem_fence":
		f.lowerArgs(c.Args)
		if strings.HasSuffix(base, "barrier") {
			f.emit(opBarrier, 0, 0, 0, 0)
		}
		return void, true
	}
	if !fixed {
		return operand{}, false
	}

	a := f.lowerArgs(c.Args)
	asInt := func(i int) int32 { return f.toInt(a[i]).reg }
	dst := f.dest(hint)
	switch {
	case isID:
		if lit, isLit := c.Args[0].(*IntLit); isLit && lit.Val >= 0 && lit.Val <= 2 {
			f.emit(opID, dst, id+int32(lit.Val), 0, 0)
		} else {
			f.emit(opIDDyn, dst, id, asInt(0), 0)
		}
		return operand{reg: dst, typ: TypeSizeT}, true
	case base == "get_work_dim":
		f.emit(opID, dst, idWorkDim, 0, 0)
		return operand{reg: dst, typ: TypeUInt}, true
	case base == "as_float":
		f.emit(opBitsF32, dst, asInt(0), 0, 0)
		return operand{reg: dst, typ: TypeFloat}, true
	case base == "as_int", base == "as_uint":
		bits := operand{reg: f.temp(), typ: TypeULong}
		if a[0].typ.IsFloat() {
			f.emit(opF32Bits, bits.reg, a[0].reg, 0, 0)
		} else {
			bits.reg = asInt(0)
		}
		t := TypeInt
		if base == "as_uint" {
			t = TypeUInt
		}
		return f.convert(bits, t, dst), true
	case base == "abs" && a[0].typ.IsFloat():
		f.emit(opFAbs, dst, a[0].reg, 0, 0)
		return operand{reg: dst, typ: a[0].typ}, true
	case base == "abs":
		f.emit(opAbsU32, dst, asInt(0), 0, 0)
		return operand{reg: dst, typ: TypeUInt}, true
	case base == "min", base == "max":
		return f.lowerMinMax(base == "min", a[0], a[1], dst), true
	case base == "mul24":
		f.emit(opMulI32, dst, asInt(0), asInt(1), 0)
		return operand{reg: dst, typ: TypeInt}, true
	case base == "mad24":
		// dst may be the variable the third argument names: multiply aside.
		product := f.temp()
		f.emit(opMulI32, product, asInt(0), asInt(1), 0)
		f.emit(opAddI32, dst, product, asInt(2), 0)
		return operand{reg: dst, typ: TypeInt}, true
	}
	// rotate and popcount have their first operand's type; of a float or
	// pointer, that type and no value.
	tmp := f.temp()
	if base == "rotate" {
		f.emit(opRotl32, tmp, asInt(0), asInt(1), 0)
	} else {
		f.emit(opPopcnt, tmp, asInt(0), 0, 0)
	}
	if t := a[0].typ; t.IsFloat() || t.Kind == TPtr {
		return f.moveTo(operand{reg: f.zero(), typ: t}, dst), true
	}
	return f.convert(operand{reg: tmp, typ: TypeULong}, a[0].typ, dst), true
}

func (f *funcLowerer) lowerMinMax(isMin bool, a, b operand, dst int32) operand {
	if a.typ.Kind == TPtr || b.typ.Kind == TPtr {
		return f.trapValue("min/max of a pointer")
	}
	t := promote(a.typ, b.typ)
	x, y := f.convert(a, t, -1), f.convert(b, t, -1)
	switch {
	case t.IsFloat():
		f.emit(pick(isMin, opFMin, opFMax), dst, x.reg, y.reg, 0)
	case t.IsUnsigned():
		f.emit(pick(isMin, opMinU, opMaxU), dst, x.reg, y.reg, 0)
	default:
		f.emit(pick(isMin, opMinS, opMaxS), dst, x.reg, y.reg, 0)
	}
	return operand{reg: dst, typ: t}
}

func pick(cond bool, a, b opcode) opcode {
	if cond {
		return a
	}
	return b
}

func (f *funcLowerer) lowerMath(base string, idx int32, c *CallExpr, hint int32) operand {
	args := f.lowerArgs(c.Args)
	m := &mathFns[idx]
	t, d := TypeFloat, idx|1<<16
	for _, a := range args {
		if a.typ.Kind == TDouble {
			t, d = TypeDouble, idx
		}
	}
	switch {
	case m.nargs == 0:
		f.trap(fmt.Sprintf("math builtin %q not implemented", base))
		return operand{reg: f.zero(), typ: t}
	case len(args) != m.nargs:
		f.trap(fmt.Sprintf("builtin %s expects %d arguments, got %d", base, m.nargs, len(args)))
		return operand{reg: f.zero(), typ: t}
	}
	// Arguments take their float64 value unrounded, whatever the result
	// type, in consecutive registers.
	blk := f.block(m.nargs)
	for i, a := range args {
		f.moveTo(f.convert(a, TypeDouble, blk+int32(i)), blk+int32(i))
	}
	dst := f.dest(hint)
	f.emit(opMath, dst, blk, 0, d)
	return operand{reg: dst, typ: t}
}

// lowerAtomic lowers an atomic builtin as a plain load, combine and store:
// work-groups that run concurrently never execute atomics (disjoint.go),
// and the items of a group run one at a time.
func (f *funcLowerer) lowerAtomic(base string, nargs int, op opcode, c *CallExpr, hint int32) operand {
	if len(c.Args) != nargs {
		return f.trapValue(fmt.Sprintf("%s expects %d arguments, got %d", base, nargs, len(c.Args)))
	}
	args := f.lowerArgs(c.Args)
	p := args[0]
	if p.typ.Kind != TPtr {
		return f.trapValue(base + ": first argument must be a non-null pointer")
	}
	lv := lval{base: p.reg, idx: f.zero(), null: 2, note: base, typ: p.typ.Elem}
	old := f.load(lv, -1)
	ov := f.toInt(old).reg
	x, y := f.constInt(1), int32(0)
	if nargs > 1 {
		x = f.toInt(args[1]).reg
	}
	nv := f.temp()
	switch {
	case nargs == 3: // cmpxchg: the third argument if old equals the second
		y = f.toInt(args[2]).reg
		f.emit(opMov, nv, ov, 0, 0)
		skip := f.emit(opJNe, ov, x, 0, 0)
		f.emit(opMov, nv, y, 0, 0)
		f.patch([]int32{skip}, f.here())
	case op == 0:
		nv = x
	default:
		f.emit(op, nv, ov, x, 0)
	}
	if lv.typ.IsFloat() {
		// The integer result has no float value: the element becomes 0.
		f.store(lv, f.constFloat(0, lv.typ))
	} else {
		f.store(lv, operand{reg: nv, typ: TypeLong})
	}
	return f.moveTo(old, hint)
}
