package clc

import (
	"fmt"
	"math"
)

// treePredefined holds identifiers that OpenCL C exposes without declaration.
var treePredefined = map[string]value{
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

// flop weights for transcendental builtins: rough operation equivalents
// used by the roofline cost model.
var mathFlopWeight = map[string]float64{
	"sqrt": 4, "rsqrt": 4, "cbrt": 8,
	"exp": 8, "exp2": 8, "exp10": 8, "expm1": 8,
	"log": 8, "log2": 8, "log10": 8, "log1p": 8,
	"sin": 8, "cos": 8, "tan": 10, "sincos": 12,
	"asin": 10, "acos": 10, "atan": 10, "atan2": 12,
	"sinh": 10, "cosh": 10, "tanh": 10,
	"pow": 12, "powr": 12, "hypot": 8,
	"fabs": 1, "floor": 1, "ceil": 1, "round": 1, "trunc": 1, "rint": 1,
	"fmin": 1, "fmax": 1, "fmod": 4, "copysign": 1, "sign": 1,
	"mad": 2, "fma": 2, "mix": 3, "step": 1, "smoothstep": 6, "clamp": 2,
	"degrees": 1, "radians": 1, "recip": 4, "divide": 4,
}

// callBuiltin dispatches c if it names a builtin; the second result is
// false when c is not a builtin and should be resolved as a user function.
func (w *witem) callBuiltin(c *CallExpr) (value, bool, error) {
	name := c.Fun
	// native_* and half_* variants share their exact counterparts.
	base := name
	for _, prefix := range []string{"native_", "half_"} {
		if len(base) > len(prefix) && base[:len(prefix)] == prefix {
			base = base[len(prefix):]
		}
	}

	evalArgs := func(n int) ([]value, error) {
		if len(c.Args) != n {
			return nil, fmt.Errorf("builtin %s expects %d arguments, got %d", name, n, len(c.Args))
		}
		out := make([]value, n)
		for i, a := range c.Args {
			v, err := w.evalExpr(a)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	switch base {
	// ---- work-item functions ----
	case "get_global_id", "get_local_id", "get_group_id", "get_global_size",
		"get_local_size", "get_num_groups", "get_global_offset":
		args, err := evalArgs(1)
		if err != nil {
			return value{}, true, err
		}
		d := int(asInt(args[0]))
		if d < 0 || d > 2 {
			return value{typ: TypeSizeT, i: 0}, true, nil
		}
		var n int
		switch base {
		case "get_global_id":
			n = w.global[d]
		case "get_local_id":
			n = w.local[d]
		case "get_group_id":
			n = w.g.groupID[d]
		case "get_global_size":
			n = w.in.nd.Global[d]
		case "get_local_size":
			n = w.in.nd.Local[d]
		case "get_num_groups":
			n = w.in.numGroups[d]
		case "get_global_offset":
			n = w.in.nd.Offset[d]
		}
		return value{typ: TypeSizeT, i: int64(n)}, true, nil
	case "get_work_dim":
		if _, err := evalArgs(0); err != nil {
			return value{}, true, err
		}
		return value{typ: TypeUInt, i: int64(w.in.nd.Dims)}, true, nil

	// ---- synchronisation ----
	case "barrier", "work_group_barrier":
		for _, a := range c.Args {
			if _, err := w.evalExpr(a); err != nil {
				return value{}, true, err
			}
		}
		if w.g != nil && w.g.barrier != nil {
			if err := w.g.barrier.await(); err != nil {
				return value{}, true, err
			}
		}
		return value{typ: TypeVoid}, true, nil
	case "mem_fence", "read_mem_fence", "write_mem_fence":
		for _, a := range c.Args {
			if _, err := w.evalExpr(a); err != nil {
				return value{}, true, err
			}
		}
		return value{typ: TypeVoid}, true, nil

	// ---- atomics ----
	case "atomic_add", "atom_add", "atomic_sub", "atom_sub", "atomic_inc",
		"atom_inc", "atomic_dec", "atom_dec", "atomic_xchg", "atom_xchg",
		"atomic_min", "atom_min", "atomic_max", "atom_max",
		"atomic_cmpxchg", "atom_cmpxchg", "atomic_or", "atomic_and",
		"atomic_xor":
		return w.callAtomic(base, c)

	// ---- bit reinterpretation ----
	case "as_float":
		args, err := evalArgs(1)
		if err != nil {
			return value{}, true, err
		}
		bits := uint32(asInt(args[0]))
		return value{typ: TypeFloat, f: float64(math.Float32frombits(bits))}, true, nil
	case "as_int", "as_uint":
		args, err := evalArgs(1)
		if err != nil {
			return value{}, true, err
		}
		var bits uint32
		if args[0].typ.IsFloat() {
			bits = math.Float32bits(float32(args[0].f))
		} else {
			bits = uint32(args[0].i)
		}
		t := TypeInt
		if base == "as_uint" {
			t = TypeUInt
		}
		return value{typ: t, i: normalizeInt(int64(bits), t)}, true, nil

	// ---- integer builtins ----
	case "abs":
		args, err := evalArgs(1)
		if err != nil {
			return value{}, true, err
		}
		if args[0].typ.IsFloat() {
			w.prof.Flops++
			return value{typ: args[0].typ, f: math.Abs(args[0].f)}, true, nil
		}
		n := asInt(args[0])
		if n < 0 {
			n = -n
		}
		return value{typ: TypeUInt, i: normalizeInt(n, TypeUInt)}, true, nil
	case "min", "max":
		args, err := evalArgs(2)
		if err != nil {
			return value{}, true, err
		}
		return w.minmax(base, args[0], args[1])
	case "mul24":
		args, err := evalArgs(2)
		if err != nil {
			return value{}, true, err
		}
		return value{typ: TypeInt, i: normalizeInt(asInt(args[0])*asInt(args[1]), TypeInt)}, true, nil
	case "mad24":
		args, err := evalArgs(3)
		if err != nil {
			return value{}, true, err
		}
		return value{typ: TypeInt, i: normalizeInt(asInt(args[0])*asInt(args[1])+asInt(args[2]), TypeInt)}, true, nil
	case "rotate":
		args, err := evalArgs(2)
		if err != nil {
			return value{}, true, err
		}
		v := uint32(asInt(args[0]))
		s := uint(asInt(args[1])) % 32
		out := v<<s | v>>(32-s)
		return value{typ: args[0].typ, i: normalizeInt(int64(out), args[0].typ)}, true, nil
	case "popcount":
		args, err := evalArgs(1)
		if err != nil {
			return value{}, true, err
		}
		n := uint64(asInt(args[0]))
		count := int64(0)
		for n != 0 {
			count += int64(n & 1)
			n >>= 1
		}
		return value{typ: args[0].typ, i: count}, true, nil

	// ---- type conversions (convert_T / convert_T_sat) ----
	case "convert_int", "convert_int_sat":
		return w.convert1(c, TypeInt)
	case "convert_uint", "convert_uint_sat":
		return w.convert1(c, TypeUInt)
	case "convert_long":
		return w.convert1(c, TypeLong)
	case "convert_ulong":
		return w.convert1(c, TypeULong)
	case "convert_float":
		return w.convert1(c, TypeFloat)
	case "convert_double":
		return w.convert1(c, TypeDouble)
	case "convert_uchar", "convert_uchar_sat":
		return w.convert1(c, TypeUChar)
	case "convert_char":
		return w.convert1(c, TypeChar)
	case "convert_short":
		return w.convert1(c, TypeShort)
	case "convert_ushort":
		return w.convert1(c, TypeUShort)
	}

	// ---- float math with a table-driven flop weight ----
	if weight, ok := mathFlopWeight[base]; ok {
		v, err := w.callMath(base, c, weight)
		return v, true, err
	}
	return value{}, false, nil
}

func (w *witem) convert1(c *CallExpr, t *Type) (value, bool, error) {
	if len(c.Args) != 1 {
		return value{}, true, fmt.Errorf("%s expects one argument", c.Fun)
	}
	v, err := w.evalExpr(c.Args[0])
	if err != nil {
		return value{}, true, err
	}
	return convertTo(v, t), true, nil
}

func (w *witem) minmax(op string, a, b value) (value, bool, error) {
	t := promote(a.typ, b.typ)
	if t.IsFloat() {
		w.prof.Flops++
		af, bf := asFloat(a), asFloat(b)
		if (op == "min") == (af < bf) {
			return value{typ: t, f: roundF(af, t)}, true, nil
		}
		return value{typ: t, f: roundF(bf, t)}, true, nil
	}
	ai := normalizeInt(asInt(a), t)
	bi := normalizeInt(asInt(b), t)
	less := ai < bi
	if t.IsUnsigned() {
		less = uint64(ai) < uint64(bi)
	}
	if (op == "min") == less {
		return value{typ: t, i: ai}, true, nil
	}
	return value{typ: t, i: bi}, true, nil
}

func (w *witem) callAtomic(base string, c *CallExpr) (value, bool, error) {
	nargs := 2
	switch base {
	case "atomic_inc", "atom_inc", "atomic_dec", "atom_dec":
		nargs = 1
	case "atomic_cmpxchg", "atom_cmpxchg":
		nargs = 3
	}
	if len(c.Args) != nargs {
		return value{}, true, fmt.Errorf("%s expects %d arguments, got %d", base, nargs, len(c.Args))
	}
	args := make([]value, len(c.Args))
	for i, a := range c.Args {
		v, err := w.evalExpr(a)
		if err != nil {
			return value{}, true, err
		}
		args[i] = v
	}
	ptr := args[0]
	if ptr.typ == nil || ptr.typ.Kind != TPtr || ptr.p.mem == nil {
		return value{}, true, fmt.Errorf("%s: first argument must be a non-null pointer", base)
	}
	elem := ptr.p.elem

	globalAtomicMu.Lock()
	defer globalAtomicMu.Unlock()
	old, err := loadScalar(ptr.p.mem, ptr.p.off, elem, &w.prof)
	if err != nil {
		return value{}, true, err
	}
	var nv int64
	ov := asInt(old)
	switch base {
	case "atomic_add", "atom_add":
		nv = ov + asInt(args[1])
	case "atomic_sub", "atom_sub":
		nv = ov - asInt(args[1])
	case "atomic_inc", "atom_inc":
		nv = ov + 1
	case "atomic_dec", "atom_dec":
		nv = ov - 1
	case "atomic_xchg", "atom_xchg":
		nv = asInt(args[1])
	case "atomic_min", "atom_min":
		nv = ov
		if x := asInt(args[1]); x < nv {
			nv = x
		}
	case "atomic_max", "atom_max":
		nv = ov
		if x := asInt(args[1]); x > nv {
			nv = x
		}
	case "atomic_and":
		nv = ov & asInt(args[1])
	case "atomic_or":
		nv = ov | asInt(args[1])
	case "atomic_xor":
		nv = ov ^ asInt(args[1])
	case "atomic_cmpxchg", "atom_cmpxchg":
		if ov == asInt(args[1]) {
			nv = asInt(args[2])
		} else {
			nv = ov
		}
	}
	if err := storeScalar(ptr.p.mem, ptr.p.off, elem, value{typ: elem, i: normalizeInt(nv, elem)}, &w.prof); err != nil {
		return value{}, true, err
	}
	return old, true, nil
}

func (w *witem) callMath(base string, c *CallExpr, weight float64) (value, error) {
	args := make([]value, len(c.Args))
	for i, a := range c.Args {
		v, err := w.evalExpr(a)
		if err != nil {
			return value{}, err
		}
		args[i] = v
	}
	w.prof.Flops += weight
	f := make([]float64, len(args))
	t := TypeFloat
	for i, a := range args {
		f[i] = asFloat(a)
		if a.typ != nil && a.typ.Kind == TDouble {
			t = TypeDouble
		}
	}
	need := func(n int) error {
		if len(f) != n {
			return fmt.Errorf("builtin %s expects %d arguments, got %d", base, n, len(f))
		}
		return nil
	}
	var out float64
	switch base {
	case "sqrt":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Sqrt(f[0])
	case "rsqrt":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = 1 / math.Sqrt(f[0])
	case "cbrt":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Cbrt(f[0])
	case "exp":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Exp(f[0])
	case "exp2":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Exp2(f[0])
	case "exp10":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Pow(10, f[0])
	case "expm1":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Expm1(f[0])
	case "log":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Log(f[0])
	case "log2":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Log2(f[0])
	case "log10":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Log10(f[0])
	case "log1p":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Log1p(f[0])
	case "sin":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Sin(f[0])
	case "cos":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Cos(f[0])
	case "tan":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Tan(f[0])
	case "asin":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Asin(f[0])
	case "acos":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Acos(f[0])
	case "atan":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Atan(f[0])
	case "atan2":
		if err := need(2); err != nil {
			return value{}, err
		}
		out = math.Atan2(f[0], f[1])
	case "sinh":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Sinh(f[0])
	case "cosh":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Cosh(f[0])
	case "tanh":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Tanh(f[0])
	case "pow", "powr":
		if err := need(2); err != nil {
			return value{}, err
		}
		out = math.Pow(f[0], f[1])
	case "hypot":
		if err := need(2); err != nil {
			return value{}, err
		}
		out = math.Hypot(f[0], f[1])
	case "fabs":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Abs(f[0])
	case "floor":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Floor(f[0])
	case "ceil":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Ceil(f[0])
	case "round":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Round(f[0])
	case "trunc", "rint":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = math.Trunc(f[0])
	case "fmin":
		if err := need(2); err != nil {
			return value{}, err
		}
		out = math.Min(f[0], f[1])
	case "fmax":
		if err := need(2); err != nil {
			return value{}, err
		}
		out = math.Max(f[0], f[1])
	case "fmod":
		if err := need(2); err != nil {
			return value{}, err
		}
		out = math.Mod(f[0], f[1])
	case "copysign":
		if err := need(2); err != nil {
			return value{}, err
		}
		out = math.Copysign(f[0], f[1])
	case "sign":
		if err := need(1); err != nil {
			return value{}, err
		}
		switch {
		case f[0] > 0:
			out = 1
		case f[0] < 0:
			out = -1
		default:
			out = 0
		}
	case "mad", "fma":
		if err := need(3); err != nil {
			return value{}, err
		}
		out = f[0]*f[1] + f[2]
	case "mix":
		if err := need(3); err != nil {
			return value{}, err
		}
		out = f[0] + (f[1]-f[0])*f[2]
	case "step":
		if err := need(2); err != nil {
			return value{}, err
		}
		if f[1] < f[0] {
			out = 0
		} else {
			out = 1
		}
	case "smoothstep":
		if err := need(3); err != nil {
			return value{}, err
		}
		tt := (f[2] - f[0]) / (f[1] - f[0])
		if tt < 0 {
			tt = 0
		}
		if tt > 1 {
			tt = 1
		}
		out = tt * tt * (3 - 2*tt)
	case "clamp":
		if err := need(3); err != nil {
			return value{}, err
		}
		out = math.Max(f[1], math.Min(f[0], f[2]))
	case "degrees":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = f[0] * 180 / math.Pi
	case "radians":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = f[0] * math.Pi / 180
	case "recip":
		if err := need(1); err != nil {
			return value{}, err
		}
		out = 1 / f[0]
	case "divide":
		if err := need(2); err != nil {
			return value{}, err
		}
		out = f[0] / f[1]
	default:
		return value{}, fmt.Errorf("math builtin %q not implemented", base)
	}
	return value{typ: t, f: roundF(out, t)}, nil
}
