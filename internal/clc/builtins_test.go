package clc

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestAllMathBuiltinsAgainstGo sweeps the single-argument math builtins
// over a set of representative inputs and compares against the Go math
// package (the interpreter computes in float64 and rounds to float32, so
// agreement is within float32 resolution).
func TestAllMathBuiltinsAgainstGo(t *testing.T) {
	cases := []struct {
		name string
		ref  func(float64) float64
	}{
		{"sqrt", math.Sqrt},
		{"cbrt", math.Cbrt},
		{"exp", math.Exp},
		{"exp2", math.Exp2},
		{"exp10", func(x float64) float64 { return math.Pow(10, x) }},
		{"expm1", math.Expm1},
		{"log", math.Log},
		{"log2", math.Log2},
		{"log10", math.Log10},
		{"log1p", math.Log1p},
		{"sin", math.Sin},
		{"cos", math.Cos},
		{"tan", math.Tan},
		{"asin", func(x float64) float64 { return math.Asin(x / 4) }}, // keep in domain via input scaling below
		{"atan", math.Atan},
		{"sinh", math.Sinh},
		{"cosh", math.Cosh},
		{"tanh", math.Tanh},
		{"fabs", math.Abs},
		{"floor", math.Floor},
		{"ceil", math.Ceil},
		{"round", math.Round},
		{"trunc", math.Trunc},
		{"degrees", func(x float64) float64 { return x * 180 / math.Pi }},
		{"radians", func(x float64) float64 { return x * math.Pi / 180 }},
	}
	inputs := []float32{0.1, 0.5, 1.0, 2.25, 3.7}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			arg := "x"
			if c.name == "asin" {
				arg = "x / 4.0f" // stay inside [-1, 1]
			}
			src := "__kernel void f(__global float* out, float x) { out[0] = " + c.name + "(" + arg + "); }"
			p := mustCompile(t, src)
			for _, in := range inputs {
				out := make([]byte, 4)
				_, err := execBoth(t, p, "f", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
					[]KernelArg{{Mem: out}, {Scalar: scalarF32(in)}}, ExecOptions{})
				if err != nil {
					t.Fatalf("%s(%v): %v", c.name, in, err)
				}
				got := float64(f32at(out, 0))
				want := c.ref(float64(in))
				if !closeEnough(got, want) {
					t.Errorf("%s(%v) = %v, want %v", c.name, in, got, want)
				}
			}
		})
	}
}

// TestTwoArgMathBuiltins covers the binary/ternary float builtins.
func TestTwoArgMathBuiltins(t *testing.T) {
	p := mustCompile(t, `
__kernel void f(__global float* out, float a, float b) {
    out[0] = pow(a, b);
    out[1] = hypot(a, b);
    out[2] = fmod(a, b);
    out[3] = atan2(a, b);
    out[4] = copysign(a, -b);
    out[5] = fmin(a, b);
    out[6] = fmax(a, b);
    out[7] = mix(a, b, 0.25f);
    out[8] = step(a, b);
    out[9] = clamp(b, 0.0f, a);
    out[10] = smoothstep(0.0f, a, b);
    out[11] = sign(a - b);
}`)
	a, b := float32(2.5), float32(1.75)
	out := make([]byte, 4*12)
	_, err := execBoth(t, p, "f", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
		[]KernelArg{{Mem: out}, {Scalar: scalarF32(a)}, {Scalar: scalarF32(b)}}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	af, bf := float64(a), float64(b)
	tt := bf / af
	want := []float64{
		math.Pow(af, bf), math.Hypot(af, bf), math.Mod(af, bf), math.Atan2(af, bf),
		-af, bf, af, af + (bf-af)*0.25, 0 /* b < a */, bf,
		tt * tt * (3 - 2*tt), 1,
	}
	for i, w := range want {
		if got := float64(f32at(out, i)); !closeEnough(got, w) {
			t.Errorf("out[%d] = %v, want %v", i, got, w)
		}
	}
}

// TestIntegerBuiltins covers abs/min/max/mul24/mad24/rotate/popcount.
func TestIntegerBuiltins(t *testing.T) {
	p := mustCompile(t, `
__kernel void f(__global int* out, int a, int b) {
    out[0] = (int)abs(a - b * 2);
    out[1] = min(a, b);
    out[2] = max(a, b);
    out[3] = mul24(a, b);
    out[4] = mad24(a, b, 7);
    out[5] = (int)rotate((uint)a, (uint)4);
    out[6] = (int)popcount((uint)a);
}`)
	a, b := int32(300), int32(200)
	out := make([]byte, 4*7)
	ab := make([]byte, 4)
	bb := make([]byte, 4)
	binary.LittleEndian.PutUint32(ab, uint32(a))
	binary.LittleEndian.PutUint32(bb, uint32(b))
	_, err := execBoth(t, p, "f", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
		[]KernelArg{{Mem: out}, {Scalar: ab}, {Scalar: bb}}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rot := uint32(a)<<4 | uint32(a)>>28
	pop := int32(0)
	for v := uint32(a); v != 0; v >>= 1 {
		pop += int32(v & 1)
	}
	want := []int32{100, 200, 300, 60000, 60007, int32(rot), pop}
	for i, w := range want {
		if got := i32at(out, i); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

// TestAtomicVariants covers the remaining atomic builtins not exercised by
// the histogram-style tests.
func TestAtomicVariants(t *testing.T) {
	p := mustCompile(t, `
__kernel void f(__global int* v) {
    atomic_xchg(&v[0], 42);
    atomic_min(&v[1], 5);
    atomic_max(&v[2], 5);
    atomic_and(&v[3], 12);
    atomic_or(&v[4], 3);
    atomic_xor(&v[5], 255);
    atomic_cmpxchg(&v[6], 10, 99);
    atomic_cmpxchg(&v[7], 11, 99);
    atomic_sub(&v[8], 4);
    atomic_dec(&v[9]);
}`)
	vals := []int32{0, 10, 1, 10, 8, 170, 10, 10, 10, 10}
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	_, err := execBoth(t, p, "f", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
		[]KernelArg{{Mem: buf}}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{42, 5, 5, 8, 11, 170 ^ 255, 99, 10, 6, 9}
	for i, w := range want {
		if got := i32at(buf, i); got != w {
			t.Errorf("v[%d] = %d, want %d", i, got, w)
		}
	}
}

// TestConvertBuiltins covers the convert_T family.
func TestConvertBuiltins(t *testing.T) {
	p := mustCompile(t, `
__kernel void f(__global int* out, float x) {
    out[0] = convert_int(x);
    out[1] = (int)convert_uint(x);
    out[2] = (int)convert_uchar(300.0f + x - x);
    out[3] = (int)convert_short(70000.0f + x - x);
    out[4] = (int)convert_float(7);
}`)
	out := make([]byte, 4*5)
	_, err := execBoth(t, p, "f", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
		[]KernelArg{{Mem: out}, {Scalar: scalarF32(3.9)}}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c300, s70000 := 300, 70000
	want := []int32{3, 3, int32(uint8(c300)), int32(int16(s70000)), 7}
	for i, w := range want {
		if got := i32at(out, i); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func closeEnough(got, want float64) bool {
	if math.IsNaN(got) && math.IsNaN(want) {
		return true
	}
	diff := math.Abs(got - want)
	scale := math.Max(1, math.Abs(want))
	return diff <= 1e-5*scale
}
