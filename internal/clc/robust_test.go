package clc

import (
	"testing"
	"testing/quick"
)

// Robustness of the front end and the lowering against arbitrary source is
// fuzzed natively: FuzzCompile and FuzzExecute in fuzz_test.go.

// TestNormalizeIntProperties: normalisation is idempotent and bounded by
// the type's range.
func TestNormalizeIntProperties(t *testing.T) {
	types := []*Type{TypeChar, TypeUChar, TypeShort, TypeUShort, TypeInt, TypeUInt, TypeLong, TypeULong}
	f := func(v int64, pick uint8) bool {
		typ := types[int(pick)%len(types)]
		once := normalizeInt(v, typ)
		twice := normalizeInt(once, typ)
		if once != twice {
			return false
		}
		switch typ.Kind {
		case TChar:
			return once >= -128 && once <= 127
		case TUChar:
			return once >= 0 && once <= 255
		case TShort:
			return once >= -32768 && once <= 32767
		case TUShort:
			return once >= 0 && once <= 65535
		case TInt:
			return once >= -(1<<31) && once <= (1<<31)-1
		case TUInt:
			return once >= 0 && once <= (1<<32)-1
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPromoteProperties: promotion is symmetric and produces a type of
// rank >= both inputs.
func TestPromoteProperties(t *testing.T) {
	types := []*Type{TypeChar, TypeUChar, TypeShort, TypeUShort, TypeInt,
		TypeUInt, TypeLong, TypeULong, TypeFloat, TypeDouble, TypeSizeT}
	for _, a := range types {
		for _, b := range types {
			ab := promote(a, b)
			ba := promote(b, a)
			if !ab.Equal(ba) {
				t.Errorf("promote(%v,%v)=%v but promote(%v,%v)=%v", a, b, ab, b, a, ba)
			}
			if (a.IsFloat() || b.IsFloat()) && !ab.IsFloat() {
				t.Errorf("promote(%v,%v)=%v lost floatness", a, b, ab)
			}
		}
	}
}

// TestInterpreterIntegerMatchesGoProperty: the interpreted expression
// (a*b + (a>>3) - (b&255)) over int32 agrees with Go semantics for random
// inputs.
func TestInterpreterIntegerMatchesGoProperty(t *testing.T) {
	p := mustCompile(t, `
__kernel void f(__global int* out, int a, int b) {
    out[0] = a * b + (a >> 3) - (b & 255);
}`)
	f := func(a, b int32) bool {
		out := make([]byte, 4)
		ab := make([]byte, 4)
		bb := make([]byte, 4)
		putI32(ab, a)
		putI32(bb, b)
		_, err := execBoth(t, p, "f", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
			[]KernelArg{{Mem: out}, {Scalar: ab}, {Scalar: bb}}, ExecOptions{})
		if err != nil {
			return false
		}
		want := a*b + (a >> 3) - (b & 255)
		return i32at(out, 0) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func putI32(b []byte, v int32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// TestInterpreterUnsignedMatchesGoProperty: unsigned wraparound and shifts
// agree with Go's uint32 semantics.
func TestInterpreterUnsignedMatchesGoProperty(t *testing.T) {
	p := mustCompile(t, `
__kernel void f(__global uint* out, uint a, uint b) {
    out[0] = (a - b) ^ (a << 5) ^ (b >> 7);
    out[1] = a > b ? 1u : 0u;
}`)
	f := func(a, b uint32) bool {
		out := make([]byte, 8)
		_, err := execBoth(t, p, "f", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
			[]KernelArg{{Mem: out}, {Scalar: scalarU32(a)}, {Scalar: scalarU32(b)}}, ExecOptions{})
		if err != nil {
			return false
		}
		want0 := (a - b) ^ (a << 5) ^ (b >> 7)
		var want1 uint32
		if a > b {
			want1 = 1
		}
		got0 := uint32(i32at(out, 0))
		got1 := uint32(i32at(out, 1))
		return got0 == want0 && got1 == want1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
