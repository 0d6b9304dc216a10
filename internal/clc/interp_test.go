package clc

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

// --- test helpers ---

func f32buf(vals ...float32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func f32at(b []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
}

func i32buf(vals ...int32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

func i32at(b []byte, i int) int32 {
	return int32(binary.LittleEndian.Uint32(b[4*i:]))
}

func scalarU32(v uint32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, v)
	return b
}

func scalarF32(v float32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, math.Float32bits(v))
	return b
}

func mustCompile(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

// --- tests ---

func TestExecuteVectorAdd(t *testing.T) {
	p := mustCompile(t, `
__kernel void vadd(__global const float* a, __global const float* b,
                   __global float* c, uint n) {
    size_t i = get_global_id(0);
    if (i < n) c[i] = a[i] + b[i];
}`)
	n := 64
	a := make([]byte, 4*n)
	b := make([]byte, 4*n)
	c := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(a[4*i:], math.Float32bits(float32(i)))
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(float32(2*i)))
	}
	prof, err := execBoth(t, p, "vadd",
		NDRange{Dims: 1, Global: [3]int{n}, Local: [3]int{16}},
		[]KernelArg{{Mem: a}, {Mem: b}, {Mem: c}, {Scalar: scalarU32(uint32(n))}},
		ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got, want := f32at(c, i), float32(3*i); got != want {
			t.Fatalf("c[%d] = %v, want %v", i, got, want)
		}
	}
	if prof.WorkItems != int64(n) {
		t.Errorf("profile work-items = %d, want %d", prof.WorkItems, n)
	}
	if prof.Flops < float64(n) {
		t.Errorf("profile flops = %v, want >= %d", prof.Flops, n)
	}
	if prof.GlobalBytes < int64(12*n) {
		t.Errorf("profile bytes = %d, want >= %d", prof.GlobalBytes, 12*n)
	}
}

func TestExecuteBarrierReduction(t *testing.T) {
	// Classic two-stage reduction with __local scratch and barriers:
	// exercises the lock-step work-group execution path.
	p := mustCompile(t, `
__kernel void reduce(__global const float* in, __global float* partial,
                     __local float* scratch) {
    size_t lid = get_local_id(0);
    size_t gid = get_global_id(0);
    scratch[lid] = in[gid];
    barrier(CLK_LOCAL_MEM_FENCE);
    for (uint s = get_local_size(0) / 2; s > 0; s >>= 1) {
        if (lid < s) scratch[lid] += scratch[lid + s];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    if (lid == 0) partial[get_group_id(0)] = scratch[0];
}`)
	n, local := 128, 32
	groups := n / local
	in := make([]byte, 4*n)
	sum := float32(0)
	for i := 0; i < n; i++ {
		v := float32(i%7) + 0.5
		sum += v
		binary.LittleEndian.PutUint32(in[4*i:], math.Float32bits(v))
	}
	partial := make([]byte, 4*groups)
	_, err := execBoth(t, p, "reduce",
		NDRange{Dims: 1, Global: [3]int{n}, Local: [3]int{local}},
		[]KernelArg{{Mem: in}, {Mem: partial}, {LocalSize: 4 * local}},
		ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got float32
	for g := 0; g < groups; g++ {
		got += f32at(partial, g)
	}
	if math.Abs(float64(got-sum)) > 1e-3 {
		t.Errorf("reduction = %v, want %v", got, sum)
	}
}

func TestExecuteLocalArrayDecl(t *testing.T) {
	// __local arrays declared in the body must be shared per work-group.
	p := mustCompile(t, `
__kernel void share(__global int* out) {
    __local int tile[64];
    size_t lid = get_local_id(0);
    tile[lid] = (int)lid * 2;
    barrier(CLK_LOCAL_MEM_FENCE);
    size_t peer = (lid + 1) % get_local_size(0);
    out[get_global_id(0)] = tile[peer];
}`)
	n, local := 64, 16
	out := make([]byte, 4*n)
	if _, err := execBoth(t, p, "share",
		NDRange{Dims: 1, Global: [3]int{n}, Local: [3]int{local}},
		[]KernelArg{{Mem: out}}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		peer := (i%local + 1) % local
		if got, want := i32at(out, i), int32(2*peer); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestExecute2DTranspose(t *testing.T) {
	p := mustCompile(t, `
__kernel void transpose(__global const float* in, __global float* out,
                        uint w, uint h) {
    size_t x = get_global_id(0);
    size_t y = get_global_id(1);
    if (x < w && y < h) out[x * h + y] = in[y * w + x];
}`)
	w, h := 8, 4
	in := make([]byte, 4*w*h)
	out := make([]byte, 4*w*h)
	for i := 0; i < w*h; i++ {
		binary.LittleEndian.PutUint32(in[4*i:], math.Float32bits(float32(i)))
	}
	if _, err := execBoth(t, p, "transpose",
		NDRange{Dims: 2, Global: [3]int{w, h}, Local: [3]int{4, 2}},
		[]KernelArg{{Mem: in}, {Mem: out}, {Scalar: scalarU32(uint32(w))}, {Scalar: scalarU32(uint32(h))}},
		ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if got, want := f32at(out, x*h+y), f32at(in, y*w+x); got != want {
				t.Fatalf("transpose[%d,%d] = %v, want %v", x, y, got, want)
			}
		}
	}
}

func TestExecuteHelperFunctions(t *testing.T) {
	p := mustCompile(t, `
float poly(float x, float a, float b) { return mad(x, a, b); }
int twice(int v) { return v * 2; }
__kernel void k(__global float* out) {
    size_t i = get_global_id(0);
    out[i] = poly((float)i, 2.0f, 1.0f) + (float)twice(3);
}`)
	out := make([]byte, 4*8)
	if _, err := execBoth(t, p, "k", NDRange{Dims: 1, Global: [3]int{8}, Local: [3]int{4}},
		[]KernelArg{{Mem: out}}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		want := float32(i)*2 + 1 + 6
		if got := f32at(out, i); got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestExecuteAtomics(t *testing.T) {
	p := mustCompile(t, `
__kernel void count(__global int* counter, __global const int* vals, int threshold) {
    int v = vals[get_global_id(0)];
    if (v > threshold) atomic_inc(&counter[0]);
    atomic_add(&counter[1], v);
}`)
	n := 256
	vals := make([]byte, 4*n)
	wantCount, wantSum := int32(0), int32(0)
	for i := 0; i < n; i++ {
		v := int32(i % 10)
		if v > 4 {
			wantCount++
		}
		wantSum += v
		binary.LittleEndian.PutUint32(vals[4*i:], uint32(v))
	}
	counter := make([]byte, 8)
	if _, err := execBoth(t, p, "count", NDRange{Dims: 1, Global: [3]int{n}, Local: [3]int{32}},
		[]KernelArg{{Mem: counter}, {Mem: vals}, {Scalar: scalarU32(4)}}, ExecOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if got := i32at(counter, 0); got != wantCount {
		t.Errorf("count = %d, want %d", got, wantCount)
	}
	if got := i32at(counter, 1); got != wantSum {
		t.Errorf("sum = %d, want %d", got, wantSum)
	}
}

func TestExecuteConstantTable(t *testing.T) {
	p := mustCompile(t, `
__constant float coef[3] = { 1.0f, 2.0f, 4.0f };
__kernel void k(__global float* out) {
    size_t i = get_global_id(0);
    out[i] = coef[i % 3];
}`)
	out := make([]byte, 4*6)
	if _, err := execBoth(t, p, "k", NDRange{Dims: 1, Global: [3]int{6}, Local: [3]int{2}},
		[]KernelArg{{Mem: out}}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 2, 4, 1, 2, 4}
	for i, w := range want {
		if got := f32at(out, i); got != w {
			t.Fatalf("out[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestExecuteMathBuiltins(t *testing.T) {
	p := mustCompile(t, `
__kernel void k(__global float* out, float x) {
    out[0] = sqrt(x);
    out[1] = exp(x);
    out[2] = log(x);
    out[3] = sin(x);
    out[4] = cos(x);
    out[5] = pow(x, 2.0f);
    out[6] = fabs(-x);
    out[7] = fmax(x, 3.0f);
    out[8] = native_sqrt(x);
    out[9] = rsqrt(x);
}`)
	out := make([]byte, 4*10)
	x := float32(2.25)
	if _, err := execBoth(t, p, "k", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
		[]KernelArg{{Mem: out}, {Scalar: scalarF32(x)}}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	want := []float64{
		1.5, math.Exp(2.25), math.Log(2.25), math.Sin(2.25), math.Cos(2.25),
		5.0625, 2.25, 3.0, 1.5, 1 / 1.5,
	}
	for i, wv := range want {
		if got := float64(f32at(out, i)); math.Abs(got-wv) > 1e-5*math.Max(1, math.Abs(wv)) {
			t.Errorf("out[%d] = %v, want %v", i, got, wv)
		}
	}
}

func TestExecuteUnsignedSemantics(t *testing.T) {
	p := mustCompile(t, `
__kernel void k(__global uint* out, uint a, uint b) {
    out[0] = a - b;          // wraps
    out[1] = (a - b) / 2u;   // unsigned division
    out[2] = (uint)(-1) > 0u ? 1u : 0u; // unsigned comparison
    out[3] = a >> 1;         // logical shift
}`)
	out := make([]byte, 16)
	if _, err := execBoth(t, p, "k", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
		[]KernelArg{{Mem: out}, {Scalar: scalarU32(2)}, {Scalar: scalarU32(3)}}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(out[0:]); got != 0xFFFFFFFF {
		t.Errorf("2u-3u = %#x, want 0xffffffff", got)
	}
	if got := binary.LittleEndian.Uint32(out[4:]); got != 0x7FFFFFFF {
		t.Errorf("(2u-3u)/2 = %#x, want 0x7fffffff", got)
	}
	if got := binary.LittleEndian.Uint32(out[8:]); got != 1 {
		t.Errorf("unsigned comparison failed")
	}
	if got := binary.LittleEndian.Uint32(out[12:]); got != 1 {
		t.Errorf("2u>>1 = %d, want 1", got)
	}
}

func TestExecuteAsTypeReinterpret(t *testing.T) {
	p := mustCompile(t, `
__kernel void k(__global uint* out, float x) {
    out[0] = as_uint(x);
    out[1] = as_uint(as_float(as_uint(x)));
}`)
	out := make([]byte, 8)
	if _, err := execBoth(t, p, "k", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
		[]KernelArg{{Mem: out}, {Scalar: scalarF32(1.5)}}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	want := math.Float32bits(1.5)
	if got := binary.LittleEndian.Uint32(out[0:]); got != want {
		t.Errorf("as_uint(1.5f) = %#x, want %#x", got, want)
	}
	if got := binary.LittleEndian.Uint32(out[4:]); got != want {
		t.Errorf("roundtrip = %#x, want %#x", got, want)
	}
}

func TestExecuteOutOfBoundsDetected(t *testing.T) {
	p := mustCompile(t, `
__kernel void oob(__global float* x) { x[get_global_id(0) + 100] = 1.0f; }`)
	buf := make([]byte, 4*4)
	_, err := execBoth(t, p, "oob", NDRange{Dims: 1, Global: [3]int{4}, Local: [3]int{4}},
		[]KernelArg{{Mem: buf}}, ExecOptions{})
	if err == nil {
		t.Fatal("out-of-bounds store must be detected")
	}
}

func TestExecuteOutOfBoundsWithBarrierNoDeadlock(t *testing.T) {
	// A faulting work-item must not deadlock group-mates at the barrier.
	p := mustCompile(t, `
__kernel void oob(__global float* x) {
    if (get_local_id(0) == 0) x[1000000] = 1.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    x[get_global_id(0)] = 2.0f;
}`)
	buf := make([]byte, 4*16)
	_, err := execBoth(t, p, "oob", NDRange{Dims: 1, Global: [3]int{16}, Local: [3]int{16}},
		[]KernelArg{{Mem: buf}}, ExecOptions{})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestExecuteDivisionByZero(t *testing.T) {
	p := mustCompile(t, `__kernel void k(__global int* x, int d) { x[0] = 10 / d; }`)
	buf := make([]byte, 4)
	_, err := execBoth(t, p, "k", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
		[]KernelArg{{Mem: buf}, {Scalar: scalarU32(0)}}, ExecOptions{})
	if err == nil {
		t.Fatal("integer division by zero must be detected")
	}
}

func TestExecuteBadLaunches(t *testing.T) {
	p := mustCompile(t, `__kernel void k(__global int* x) { x[0] = 1; }`)
	buf := make([]byte, 4)
	if _, err := execBoth(t, p, "nope", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
		[]KernelArg{{Mem: buf}}, ExecOptions{}); err == nil {
		t.Error("unknown kernel must fail")
	}
	if _, err := execBoth(t, p, "k", NDRange{Dims: 1, Global: [3]int{10}, Local: [3]int{3}},
		[]KernelArg{{Mem: buf}}, ExecOptions{}); err == nil {
		t.Error("non-divisible local size must fail")
	}
	if _, err := execBoth(t, p, "k", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
		nil, ExecOptions{}); err == nil {
		t.Error("missing args must fail")
	}
	if _, err := execBoth(t, p, "k", NDRange{Dims: 0}, []KernelArg{{Mem: buf}}, ExecOptions{}); err == nil {
		t.Error("invalid dims must fail")
	}
}

func TestExecuteMissingBufferArg(t *testing.T) {
	p := mustCompile(t, `__kernel void k(__global int* x) { x[0] = 1; }`)
	_, err := execBoth(t, p, "k", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
		[]KernelArg{{}}, ExecOptions{})
	if err == nil {
		t.Fatal("unset buffer argument must fail")
	}
}

// Property: the interpreter's vadd agrees with a Go reference for random
// inputs (float32 arithmetic is exact for identical operand order).
func TestVectorAddMatchesGoReferenceProperty(t *testing.T) {
	p := mustCompile(t, `
__kernel void vadd(__global const float* a, __global const float* b,
                   __global float* c, uint n) {
    size_t i = get_global_id(0);
    if (i < n) c[i] = a[i] + b[i];
}`)
	f := func(xs []float32) bool {
		n := len(xs)
		if n == 0 {
			return true
		}
		a := make([]byte, 4*n)
		b := make([]byte, 4*n)
		c := make([]byte, 4*n)
		for i, v := range xs {
			binary.LittleEndian.PutUint32(a[4*i:], math.Float32bits(v))
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v*0.5))
		}
		// Round the global size up to a multiple of 4 with a guard in the
		// kernel, matching how real launches pad.
		global := (n + 3) / 4 * 4
		_, err := execBoth(t, p, "vadd", NDRange{Dims: 1, Global: [3]int{global}, Local: [3]int{4}},
			[]KernelArg{{Mem: a}, {Mem: b}, {Mem: c}, {Scalar: scalarU32(uint32(n))}}, ExecOptions{})
		if err != nil {
			return false
		}
		for i, v := range xs {
			want := v + v*0.5
			got := f32at(c, i)
			if got != want && !(math.IsNaN(float64(got)) && math.IsNaN(float64(want))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestProfileScalesWithWork(t *testing.T) {
	p := mustCompile(t, `
__kernel void k(__global float* x) {
    size_t i = get_global_id(0);
    x[i] = x[i] * 2.0f + 1.0f;
}`)
	run := func(n int) Profile {
		buf := make([]byte, 4*n)
		prof, err := execBoth(t, p, "k", NDRange{Dims: 1, Global: [3]int{n}, Local: [3]int{8}},
			[]KernelArg{{Mem: buf}}, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	p1, p2 := run(64), run(128)
	if p2.Flops != 2*p1.Flops {
		t.Errorf("flops %v then %v: not proportional", p1.Flops, p2.Flops)
	}
	if p2.GlobalBytes != 2*p1.GlobalBytes {
		t.Errorf("bytes %d then %d: not proportional", p1.GlobalBytes, p2.GlobalBytes)
	}
}

func TestWriteSetAnalysis(t *testing.T) {
	p := mustCompile(t, `
void bump(__global float* p, int i) { p[i] += 1.0f; }
__kernel void k(__global const float* in, __global float* out,
                __global float* log, __global int* stats, float s) {
    size_t i = get_global_id(0);
    out[i] = in[i] * s;
    bump(log, (int)i);
    atomic_inc(&stats[0]);
}`)
	ws, ok := p.WriteSet("k")
	if !ok {
		t.Fatal("WriteSet failed")
	}
	want := map[int]bool{1: true, 2: true, 3: true}
	got := map[int]bool{}
	for _, i := range ws {
		got[i] = true
	}
	if got[0] {
		t.Error("read-only parameter 'in' must not be in the write set")
	}
	for i := range want {
		if !got[i] {
			t.Errorf("parameter %d missing from write set %v", i, ws)
		}
	}
}

func TestWriteSetAliasTracking(t *testing.T) {
	p := mustCompile(t, `
__kernel void k(__global float* a, __global const float* b) {
    __global float* p = a;
    p[get_global_id(0)] = b[0];
}`)
	ws, _ := p.WriteSet("k")
	if len(ws) != 1 || ws[0] != 0 {
		t.Errorf("write set = %v, want [0]", ws)
	}
}

func TestWriteSetUnknownKernel(t *testing.T) {
	p := mustCompile(t, `__kernel void k(__global float* a) { a[0] = 1.0f; }`)
	if _, ok := p.WriteSet("missing"); ok {
		t.Error("unknown kernel should report !ok")
	}
}

func TestExecuteWorkItemFunctions(t *testing.T) {
	p := mustCompile(t, `
__kernel void ids(__global int* out) {
    size_t i = get_global_id(0) + get_global_id(1) * get_global_size(0);
    out[i * 4 + 0] = (int)get_local_id(0);
    out[i * 4 + 1] = (int)get_group_id(0);
    out[i * 4 + 2] = (int)get_num_groups(0);
    out[i * 4 + 3] = (int)get_work_dim();
}`)
	gx, gy, lx, ly := 8, 2, 4, 1
	out := make([]byte, 4*4*gx*gy)
	if _, err := execBoth(t, p, "ids", NDRange{Dims: 2, Global: [3]int{gx, gy}, Local: [3]int{lx, ly}},
		[]KernelArg{{Mem: out}}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < gy; y++ {
		for x := 0; x < gx; x++ {
			i := x + y*gx
			if got := i32at(out, i*4+0); got != int32(x%lx) {
				t.Fatalf("local id at %d = %d, want %d", i, got, x%lx)
			}
			if got := i32at(out, i*4+1); got != int32(x/lx) {
				t.Fatalf("group id at %d = %d, want %d", i, got, x/lx)
			}
			if got := i32at(out, i*4+2); got != int32(gx/lx) {
				t.Fatalf("num groups at %d = %d, want %d", i, got, gx/lx)
			}
			if got := i32at(out, i*4+3); got != 2 {
				t.Fatalf("work dim = %d, want 2", got)
			}
		}
	}
}

func TestGlobalOffset(t *testing.T) {
	p := mustCompile(t, `
__kernel void k(__global int* out) {
    out[get_global_id(0) - get_global_offset(0)] = (int)get_global_id(0);
}`)
	out := make([]byte, 4*4)
	if _, err := execBoth(t, p, "k",
		NDRange{Dims: 1, Offset: [3]int{10}, Global: [3]int{4}, Local: [3]int{2}},
		[]KernelArg{{Mem: out}}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := i32at(out, i); got != int32(10+i) {
			t.Fatalf("out[%d] = %d, want %d", i, got, 10+i)
		}
	}
}

func TestCompileCollectsSignatures(t *testing.T) {
	p := mustCompile(t, `
__kernel void a(__global float* x) {}
__kernel void b(__global float* x, sampler_t s) {}`)
	if len(p.Sigs) != 2 {
		t.Fatalf("sigs = %d, want 2", len(p.Sigs))
	}
	if s, ok := Lookup(p.Sigs, "b"); !ok || s.Params[1].Kind != ParamSamplerHandle {
		t.Errorf("signature b = %+v", s)
	}
}
