package clc

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// execBoth runs one launch on the lowered executor and, from identical
// inputs, on the tree-walking oracle, and fails the test unless the output
// buffers are bit-identical, the Profiles equal and the errors carry the same
// text. It returns the executor's result; args hold the executor's buffers.
// Every Execute in this package's tests goes through it.
func execBoth(t testing.TB, p *Program, name string, nd NDRange, args []KernelArg, opt ExecOptions) (Profile, error) {
	t.Helper()
	treeArgs := make([]KernelArg, len(args))
	clones := map[*byte][]byte{} // arguments bound to one buffer stay aliased
	for i, a := range args {
		treeArgs[i] = a
		if len(a.Mem) > 0 {
			if clones[&a.Mem[0]] == nil {
				clones[&a.Mem[0]] = bytes.Clone(a.Mem)
			}
			treeArgs[i].Mem = clones[&a.Mem[0]]
		}
	}
	prof, err := p.Execute(name, nd, args, opt)
	treeProf, treeErr := executeTree(p, name, nd, treeArgs)
	switch {
	case (err == nil) != (treeErr == nil), err != nil && err.Error() != treeErr.Error():
		t.Errorf("%s: executor error %v, tree-walker error %v", name, err, treeErr)
	case err != nil:
		return prof, err // buffers after a failed launch are unspecified
	case prof != treeProf:
		t.Errorf("%s: executor profile %+v, tree-walker profile %+v", name, prof, treeProf)
	}
	for i := range args {
		if !bytes.Equal(args[i].Mem, treeArgs[i].Mem) {
			t.Errorf("%s: argument %d differs between executor and tree-walker:\n exec %x\n tree %x",
				name, i, head(args[i].Mem), head(treeArgs[i].Mem))
		}
	}
	return prof, err
}

func head(b []byte) []byte {
	if len(b) > 64 {
		return b[:64]
	}
	return b
}

func i32s(n int, f func(i int) int32) []byte {
	b := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(f(i)))
	}
	return b
}

func f32s(n int, f func(i int) float32) []byte {
	b := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f(i)))
	}
	return b
}

func ramp(i int) float32 { return float32(i%13)*0.75 - 3 }

// constructCase is one kernel `k(__global T* out, __global const T* in,
// extra...)` of the per-construct corpus, launched over 16 items in groups
// of 4 unless nd says otherwise.
type constructCase struct {
	name  string
	src   string
	nd    NDRange
	extra []KernelArg
}

var constructCorpus = []constructCase{
	{name: "literals and predefined", src: `
__kernel void k(__global float* out, __global const float* in) {
    size_t i = get_global_id(0);
    long big = 4294967296;
    out[i] = in[i] * M_PI_F + (float)(big >> 30) + 1.5 + 'a' + 0x10 + 010
           + (FLT_MAX > 1.0f ? 1 : 0) + CHAR_BIT + (true ? M_PI : M_E) + CLK_LOCAL_MEM_FENCE;
}`},
	{name: "integer operators", src: `
__kernel void k(__global int* out, __global const int* in) {
    int i = (int)get_global_id(0);
    int a = in[i] - 7;
    uint u = (uint)a;
    long l = (long)a * 1000003;
    ulong ul = (ulong)l;
    out[i] = (a + 3) * a - a / 3 + a % 5 + (a & 12) + (a | 3) + (a ^ 5) + (a << 3) + (a >> 1)
           + (int)(u / 3u) + (int)(u % 7u) + (int)(u >> 2) + (int)(u << 1) + (int)(l / 7) + (int)(l % 9)
           + (int)(ul >> 40) + (int)(ul / 11) + (a < 2) + (a <= 2) + (a > 2) + (a >= 2) + (a == 2) + (a != 2)
           + (u < 5u) + (u > 5u) + (ul <= 9) + (l >= -3) + (-a) + (~a) + (!a) + (int)(-u) + (int)(~ul);
}`},
	{name: "narrow types", src: `
__kernel void k(__global int* out, __global const int* in, __global uchar* bytes, __global short* shorts) {
    int i = (int)get_global_id(0);
    char c = (char)(in[i] * 37);
    uchar uc = (uchar)(in[i] * 37);
    short s = (short)(in[i] * 4099);
    ushort us = (ushort)(in[i] * 4099);
    bool b = in[i] & 1;
    c += 100; uc -= 200; s *= 9; us >>= 1; c++; --uc; s--; ++us;
    bytes[i] = uc + 250;
    bytes[i] += 9;
    bytes[i]++;
    shorts[i] = s;
    shorts[i] -= 40000;
    out[i] = c + uc + s + us + b + (-uc) + (~us) + (c << 4) + (uc >> 1) + bytes[i] + shorts[i] + (char)300 + (bool)5;
}`, extra: []KernelArg{{Mem: make([]byte, 16)}, {Mem: make([]byte, 32)}}},
	{name: "float and double operators", src: `
__kernel void k(__global float* out, __global const float* in) {
    size_t i = get_global_id(0);
    float x = in[i];
    double d = x;
    int n = (int)i - 4;
    uint u = (uint)i;
    out[i] = (x + 1.25f) * x - x / 3.0f + (float)(d * 1.0000001 + d / 3.0 - d)
           + n * x + u * x + x / n + (x < 0.5f) + (x <= n) + (x > d) + (x >= u) + (x == 0.0f) + (x != 1.0f)
           + (-x) + (!x) + (float)(int)x + (float)(uint)(x + 100.0f) + (float)(long)d + (int)2.75f + (float)3000000000u;
}`},
	{name: "compound assignment", src: `
__kernel void k(__global int* out, __global const int* in, __global float* fout) {
    int i = (int)get_global_id(0);
    int a = in[i];
    a += 5; a -= 2; a *= 3; a /= 2; a %= 17; a &= 29; a |= 64; a ^= 21; a <<= 2; a >>= 1;
    float f = 1.5f;
    f += a; f -= 0.25f; f *= 1.5; f /= 3;
    a += f;
    out[i] = 7;
    out[i] += a; out[i] -= 3; out[i] *= 2; out[i] /= 3; out[i] %= 1000; out[i] <<= 1; out[i] |= 1; out[i] ^= 6; out[i] &= 0xffff; out[i] >>= 1;
    fout[i] = f;
    fout[i] *= 2.5f;
    fout[i] += i;
    out[i]++; ++out[i]; out[i]--; fout[i]++; --fout[i];
}`, extra: []KernelArg{{Mem: make([]byte, 64)}}},
	{name: "increment and decrement values", src: `
__kernel void k(__global int* out, __global const int* in, __global float* fout) {
    int i = (int)get_global_id(0);
    int a = in[i];
    int b = a++ + ++a;
    int c = a-- - --a;
    float f = 16777216.0f;
    float g = ++f;
    float h = f++;
    uint u = 0u;
    u--;
    long l = 2147483647;
    l++;
    out[i] = a + b * 3 + c * 5 + (int)(u >> 16) + (int)(l >> 31);
    fout[i] = f + g + h;
    fout[i] += out[i]++;
}`, extra: []KernelArg{{Mem: make([]byte, 64)}}},
	{name: "evaluation order", src: `
int two(int a, int b) { return a * 10 + b; }
__kernel void k(__global int* out, __global const int* in) {
    int i = (int)get_global_id(0);
    int x = in[i];
    int a = x + (x = 5);
    int b = (x = 7) + x;
    int j = i % 4;
    int tmp[8];
    tmp[j] = j++;
    tmp[j] = j;
    int c = two(j++, j++);
    int y = 3;
    y += (y = 10);
    int z = 1;
    z = z++ + z;
    int m = 3;
    m = mad24(x, 2, m);
    m = min(9, m) + (m = 1);
    float q = 2.0f;
    q = mad(q, 3.0f, q);
    out[i] = a + b * 3 + tmp[i % 4] * 7 + tmp[i % 4 + 1] + c * 11 + y * 13 + z * 17 + j + m * 19 + (int)q;
}`},
	{name: "control flow", src: `
__kernel void k(__global int* out, __global const int* in) {
    int i = (int)get_global_id(0);
    int acc = 0;
    for (int a = 0; a < in[i]; a++) {
        if (a == 2) continue;
        if (a > 9) break;
        acc += a;
    }
    int w = 0;
    while (w < i) { w += 3; if (w > 20) break; }
    int d = 0;
    do { d++; if (d == 2) continue; acc += d; } while (d < i % 5);
    for (;;) { acc++; if (acc > 3) break; }
    int n = 0;
    int b = 0;
    for (int a = 0; a < 3; a++, b += 2) n += b;
    if (i > 12) { out[i] = -1; return; }
    if (i & 1) acc += 100; else if (i & 2) acc += 200; else acc += 300;
    { int acc = 5; w += acc; }
    out[i] = acc + w + d + n;
}`},
	{name: "switch", src: `
int classify(int v) {
    switch (v % 5) {
    case 0: return -5;
    case 1: break;
    case 2: case 3: v += 100;
    default: v += 1000;
    }
    return v * 2;
}
__kernel void k(__global int* out, __global const int* in) {
    int i = (int)get_global_id(0);
    int sum = 0;
    for (int a = 0; a < 6; a++) {
        switch (a % 3) {
        case 0: continue;
        default: sum += 10;
        case 1: sum += 1; break;
        }
        sum += 100;
    }
    switch (in[i]) { case 3: sum = -sum; }
    switch ((float)i) { case 2: sum += 7; break; case 1 + 3: sum += 9; }
    out[i] = sum + classify(in[i]);
}`},
	{name: "conditional and return types", src: `
float halfOf(int v) { return v / 2; }
int trunc3(float v) { return v * 3; }
uchar low(int v) { return v; }
float pickf(int c) { if (c) return 1; return 2.5f; }
void nothing(int v) { return; }
int fallsOff(int v) { if (v > 100) return 1; }
__kernel void k(__global float* out, __global const float* in) {
    int i = (int)get_global_id(0);
    int c = i & 1;
    float m = (c ? 1 : 2.5f) / 2;
    float n = (c ? 7 : 2u) / 2;
    double w = (c ? in[i] : 1.0) * 1.0000001;
    long big = (c ? 1 : 4294967296) >> 1;
    uchar uc = 200;
    int pr = (c ? uc : uc) + 100;
    nothing(i);
    out[i] = m + n + (float)w + (float)big + pr + halfOf(i) + trunc3(in[i]) + low(i * 77) + pickf(c) / 2 + fallsOff(i)
           + (i > 3 ? in[i] : i) + (c ? i : (i > 8 ? 2.0f : 3));
}`},
	{name: "pointers", src: `
void bump(__global int* p, int by) { *p += by; p[1] -= by; }
int sumTo(__local int* from, __local int* to) { int s = 0; while (from != to) s += *from++; return s; }
__kernel void k(__global int* out, __global const int* in, __local int* scratch) {
    int i = (int)get_global_id(0);
    int l = (int)get_local_id(0);
    __global const int* p = in + i;
    __global const int* q = &in[3];
    __global int* o = out;
    __global int* none = 0;
    o += i;
    int priv[6];
    int* pp = priv;
    for (int a = 0; a < 6; a++) *pp++ = a * a;
    pp -= 3;
    scratch[l] = l + 1;
    int viaCast = ((__global const short*)in)[2 * i];
    *o = *p + p[0] + *(q - 1) + (int)(p - q) + (p < q) + (p >= q) + (p == q) + (p != in)
       + (none == 0) + (none != NULL) + (o != 0) + !none + (pp ? 1 : 0) + pp[-1] + *(pp + 1) + (int)(pp - priv)
       + sumTo(scratch, scratch + l + 1) + viaCast;
    if (l == 0 && i + 1 < 16) bump(o, 1000);
    o++; o--; --o; ++o;
    *o += 1;
}`, extra: []KernelArg{{LocalSize: 16}}},
	{name: "arrays and scopes", src: `
__kernel void k(__global int* out, __global const int* in) {
    int i = (int)get_global_id(0);
    int total = 0;
    for (int r = 0; r < 3; r++) {
        int acc;
        int hist[4];
        acc += in[i] + r;
        hist[r] += acc;
        total += hist[r] + hist[(r + 1) % 4];
        float hist2[2 + 1];
        hist2[r] = r;
        total += (int)hist2[2];
    }
    int n = i % 3 + 1;
    long wide[n];
    wide[n - 1] = (long)i << 33;
    int x = 1;
    { int x = 2; { int x = 3; total += x; } total += x; }
    if (i > 2) int x = 50;
    total += x + (int)(wide[n - 1] >> 33) + sizeof(int) + sizeof(double);
    out[i] = total;
}`},
	{name: "constants", src: `
float scale(float v) { return v * 2.0f; }
__constant float coef[4] = { 1.0f, 2.5f, -4.0f, 3 };
__constant int ones[] = { 1, 1 + 1, 3 };
__constant float third = 1.0f / 3;
__constant int seven = 7;
__constant float viaHelper = scale(1.25f);
const int cells[2] = { seven * 2, 3 };
__kernel void k(__global float* out, __global const float* in) {
    size_t i = get_global_id(0);
    __constant float* c = coef + 1;
    out[i] = in[i] * coef[i % 4] + ones[i % 3] + third + seven + viaHelper + cells[i & 1] + c[i % 3] + *c;
}`},
	{name: "helpers at depth", src: `
int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
int odd(int n) { return n == 0 ? 0 : !odd(n - 1); }
int depth(int n, __global int* trace) { trace[n] = n; if (n == 0) return 0; return 1 + depth(n - 1, trace); }
float poly(float x, float a, float b) { return mad(x, a, b); }
void store3(__global float* dst, float v) { dst[0] = v; dst[1] = v + 1; dst[2] = v + 2; }
__kernel void k(__global int* out, __global const int* in, __global float* fout) {
    int i = (int)get_global_id(0);
    out[i] = fact(in[i] % 9) + odd(i);
    if (i == 15) out[0] += depth(12, out);
    if (i % 4 == 0) store3(fout + i, poly(i, 2.0f, 0.5f));
}`, extra: []KernelArg{{Mem: make([]byte, 64)}}},
	{name: "work-item functions", nd: NDRange{Dims: 3, Offset: [3]int{5, 0, 2}, Global: [3]int{4, 2, 2}, Local: [3]int{2, 2, 1}}, src: `
__kernel void k(__global int* out, __global const int* in) {
    size_t lin = (get_global_id(0) - get_global_offset(0)) + get_global_size(0) * (get_global_id(1) + get_global_size(1) * (get_global_id(2) - get_global_offset(2)));
    int acc = (int)get_work_dim();
    for (uint d = 0; d < 4u; d++)
        acc = acc * 3 + (int)(get_global_id(d) + get_local_id(d) * 2 + get_group_id(d) * 5 + get_global_size(d) + get_local_size(d) + get_num_groups(d) + get_global_offset(d));
    out[lin] = acc + (int)native_get_local_id(1) + (int)get_global_id(-1);
}`},
	{name: "integer builtins", src: `
__kernel void k(__global int* out, __global const int* in, __global uint* uout) {
    int i = (int)get_global_id(0);
    int a = in[i] - 8;
    uint u = (uint)in[i] * 2654435761u;
    out[i] = abs(a) + min(a, 3) + max(a, -2) + (int)min(u, 77u) + (int)max((long)a, 5) + mul24(a, 1000) + mad24(a, a, 7)
           + (int)rotate(u, 5u) + (int)rotate(u, 37) + popcount(u) + popcount(a) + (int)min(2.5f, (float)a) + (int)max(a, 1.5f) + (int)abs(-2.5f)
           + convert_int(2.9f) + convert_uchar(300) + convert_short(70000) + (int)convert_ushort(-1) + (int)convert_long(1.0e10f) + convert_char(200)
           + (int)convert_float(a) + (int)convert_double(u) + convert_int_sat(a) + (int)convert_ulong(a) + as_int(1.5f) + (int)as_uint(a) + (int)as_float(0x40400000);
    uout[i] = as_uint(as_float(u)) + as_uint((float)a);
}`, extra: []KernelArg{{Mem: make([]byte, 64)}}},
	{name: "math builtins", src: `
__kernel void k(__global float* out, __global const float* in) {
    size_t i = get_global_id(0);
    float x = fabs(in[i]) + 0.25f;
    double d = x;
    out[i] = sqrt(x) + rsqrt(x) + cbrt(x) + exp(x) + exp2(x) + exp10(x * 0.1f) + expm1(x) + log(x) + log2(x) + log10(x) + log1p(x)
           + sin(x) + cos(x) + tan(x) + asin(x * 0.1f) + acos(x * 0.1f) + atan(x) + atan2(x, 2.0f) + sinh(x) + cosh(x) + tanh(x)
           + pow(x, 1.5f) + powr(x, 2) + hypot(x, 3.0f) + floor(x) + ceil(x) + round(x) + trunc(x) + rint(x) + fmin(x, 1.0f) + fmax(x, 1)
           + fmod(x, 0.75f) + copysign(x, -1.0f) + sign(in[i]) + mad(x, x, 1.0f) + fma(x, 2.0f, x) + mix(x, 2.0f, 0.25f) + step(1.0f, x)
           + smoothstep(0.0f, 4.0f, x) + clamp(x, 0.5f, 2.0f) + degrees(x) + radians(x) + native_recip(x) + native_divide(x, 3.0f)
           + native_sin(x) + half_exp(x) + native_half_sqrt(x) + (float)sqrt(d) + (float)pow(d, 2.0) + (float)mad(d, x, 1) + sqrt(4);
}`},
	{name: "atomics", src: `
__kernel void k(__global int* out, __global const int* in, __global int* counters, __local int* lc, __global float* fl) {
    int i = (int)get_global_id(0);
    int slot = atomic_inc(lc);
    int old = atomic_add(&counters[0], in[i]);
    atom_sub(&counters[1], 2);
    atomic_dec(&counters[2]);
    atomic_min(&counters[3], in[i] - 5);
    atomic_max(&counters[4], in[i]);
    atomic_and(&counters[5], ~(1 << (i % 8)));
    atomic_or(&counters[6], 1 << i);
    atomic_xor(&counters[7], i);
    int was = atomic_xchg(&counters[8], i);
    int cas = atomic_cmpxchg(&counters[9], i, i + 1);
    float f = atomic_xchg(&fl[0], 2.5f);
    out[i] = slot * 1000 + old + was + cas * 3 + (int)f;
    mem_fence(CLK_GLOBAL_MEM_FENCE);
}`, extra: []KernelArg{{Mem: i32s(10, func(i int) int32 { return int32(i * 3) })}, {LocalSize: 4}, {Mem: f32s(2, func(int) float32 { return 7.5 })}}},
	{name: "local memory and barriers", src: `
__kernel void k(__global int* out, __global const int* in, __local int* tile) {
    __local int shared[4];
    int l = (int)get_local_id(0);
    int n = (int)get_local_size(0);
    tile[l] = in[get_global_id(0)];
    shared[l] = l * l;
    barrier(CLK_LOCAL_MEM_FENCE);
    int acc = 0;
    for (int s = 1; s < n; s <<= 1) {
        int peer = tile[(l + s) % n];
        work_group_barrier(CLK_LOCAL_MEM_FENCE);
        tile[l] += peer;
        barrier(CLK_LOCAL_MEM_FENCE | CLK_GLOBAL_MEM_FENCE);
        acc += shared[(l + s) % n];
    }
    out[get_global_id(0)] = tile[l] + acc;
}`, extra: []KernelArg{{LocalSize: 16}}},
}

// TestDifferentialConstructs: one kernel per statement node, expression
// node, builtin family and typing corner, each bit-identical (buffers and
// Profile) on the executor and the tree-walker.
func TestDifferentialConstructs(t *testing.T) {
	for _, c := range constructCorpus {
		t.Run(c.name, func(t *testing.T) {
			p := mustCompile(t, c.src)
			nd := c.nd
			if nd.Dims == 0 {
				nd = NDRange{Dims: 1, Global: [3]int{16}, Local: [3]int{4}}
			}
			n := int(nd.TotalWorkItems())
			in := i32s(n, func(i int) int32 { return int32((i*7 + 3) % 11) })
			if strings.Contains(c.src, "__global const float* in") {
				in = f32s(n, ramp)
			}
			args := append([]KernelArg{{Mem: make([]byte, 4*n)}, {Mem: in}}, c.extra...)
			if _, err := execBoth(t, p, "k", nd, args, ExecOptions{}); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(args[0].Mem, make([]byte, 4*n)) {
				t.Error("kernel wrote nothing: the case checks nothing")
			}
		})
	}
}

// The naive / coalesced / chunked tiled-transpose family: the __local +
// barrier stress case. TILE is the work-group edge, CHUNK the rows one item
// moves.
const transposeFamily = `
#define TILE 8
#define CHUNK 4
__kernel void naiveTransp(__global const float* in, __global float* out, int h, int w) {
    int x = (int)get_global_id(0);
    int y = (int)get_global_id(1);
    if (x < w && y < h) out[x * h + y] = in[y * w + x];
}
__kernel void coalsTransp(__global const float* in, __global float* out, int h, int w) {
    __local float tile[TILE * (TILE + 1)];
    int lx = (int)get_local_id(0);
    int ly = (int)get_local_id(1);
    int x = (int)get_global_id(0);
    int y = (int)get_global_id(1);
    if (x < w && y < h) tile[ly * (TILE + 1) + lx] = in[y * w + x];
    barrier(CLK_LOCAL_MEM_FENCE);
    x = (int)get_group_id(1) * TILE + lx;
    y = (int)get_group_id(0) * TILE + ly;
    if (x < h && y < w) out[y * h + x] = tile[lx * (TILE + 1) + ly];
}
__kernel void optimTransp(__global const float* in, __global float* out, int h, int w) {
    __local float tile[CHUNK * TILE * (TILE + 1)];
    int lx = (int)get_local_id(0);
    int ly = (int)get_local_id(1);
    int x = (int)get_global_id(0);
    int y0 = (int)get_group_id(1) * TILE * CHUNK + ly;
    for (int c = 0; c < CHUNK; c++) {
        int y = y0 + c * TILE;
        if (x < w && y < h) tile[(ly + c * TILE) * (TILE + 1) + lx] = in[y * w + x];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    x = (int)get_group_id(1) * TILE * CHUNK + lx;
    int y = (int)get_group_id(0) * TILE + ly;
    for (int c = 0; c < CHUNK; c++) {
        int xc = x + c * TILE;
        if (xc < h && y < w) out[y * h + xc] = tile[(lx + c * TILE) * (TILE + 1) + ly];
    }
}`

func TestDifferentialTransposeFamily(t *testing.T) {
	p := mustCompile(t, transposeFamily)
	const h, w = 64, 24 // h a multiple of TILE*CHUNK, w of TILE
	in := f32s(h*w, func(i int) float32 { return float32(i) })
	for _, k := range []struct {
		name string
		rows int
	}{{"naiveTransp", h}, {"coalsTransp", h}, {"optimTransp", h / 4}} {
		out := make([]byte, 4*h*w)
		nd := NDRange{Dims: 2, Global: [3]int{w, k.rows}, Local: [3]int{8, 8}}
		args := []KernelArg{{Mem: in}, {Mem: out}, {Scalar: scalarU32(h)}, {Scalar: scalarU32(w)}}
		if _, err := execBoth(t, p, k.name, nd, args, ExecOptions{}); err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if got, want := f32at(out, x*h+y), float32(y*w+x); got != want {
					t.Fatalf("%s: out[%d,%d] = %v, want %v", k.name, x, y, got, want)
				}
			}
		}
	}
}

// TestDifferentialBarrierEdges: barrier cases with defined results.
func TestDifferentialBarrierEdges(t *testing.T) {
	p := mustCompile(t, `
__kernel void uniformLoop(__global int* out, __local int* ring) {
    int l = (int)get_local_id(0);
    int n = (int)get_local_size(0);
    ring[l] = l;
    for (int r = 0; r < 5; r++) {
        barrier(CLK_LOCAL_MEM_FENCE);
        int next = ring[(l + 1) % n];
        barrier(CLK_LOCAL_MEM_FENCE);
        ring[l] = next * 2 + r;
    }
    out[get_global_id(0)] = ring[l];
}
__kernel void earlyReturn(__global int* out, __local int* tile) {
    int l = (int)get_local_id(0);
    out[get_global_id(0)] = -1;
    if (l % 3 == 0) return;
    tile[l] = l * 10;
    barrier(CLK_LOCAL_MEM_FENCE);
    if (l % 3 == 1) return;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = tile[l - 1] + tile[l];
}
void sync(void) { barrier(CLK_LOCAL_MEM_FENCE); }
int viaHelper(__local int* tile, int l) { tile[l] = l + 1; sync(); return tile[l ^ 1]; }
__kernel void inHelper(__global int* out, __local int* tile) {
    int l = (int)get_local_id(0);
    out[get_global_id(0)] = viaHelper(tile, l) * 100 + (barrier(0), l);
}
__kernel void faulting(__global int* out, __local int* tile) {
    int l = (int)get_local_id(0);
    tile[l] = l;
    barrier(CLK_LOCAL_MEM_FENCE);
    if (l == 5) out[1000000] = 1;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = tile[l];
}`)
	nd := NDRange{Dims: 1, Global: [3]int{16}, Local: [3]int{8}}
	run := func(kernel string) ([]byte, error) {
		out := make([]byte, 4*16)
		_, err := execBoth(t, p, kernel, nd, []KernelArg{{Mem: out}, {LocalSize: 32}}, ExecOptions{})
		return out, err
	}

	out, err := run("uniformLoop")
	if err != nil {
		t.Fatal(err)
	}
	ring := [8]int32{0, 1, 2, 3, 4, 5, 6, 7}
	for r := int32(0); r < 5; r++ {
		var next [8]int32
		for l := range ring {
			next[l] = ring[(l+1)%8]*2 + r
		}
		ring = next
	}
	for i := 0; i < 16; i++ {
		if got := i32at(out, i); got != ring[i%8] {
			t.Errorf("uniformLoop: out[%d] = %d, want %d", i, got, ring[i%8])
		}
	}

	// Items 0,3,6 leave before the first barrier and 1,4,7 before the
	// second: each barrier releases once the items still alive arrive.
	if out, err = run("earlyReturn"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		want := int32(-1)
		if l := int32(i % 8); l%3 == 2 {
			want = (l-1)*10 + l*10
		}
		if got := i32at(out, i); got != want {
			t.Errorf("earlyReturn: out[%d] = %d, want %d", i, got, want)
		}
	}

	if out, err = run("inHelper"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		l := int32(i % 8)
		if got, want := i32at(out, i), ((l^1)+1)*100+l; got != want {
			t.Errorf("inHelper: out[%d] = %d, want %d", i, got, want)
		}
	}

	// The faulting item's own error comes back; nothing hangs.
	_, err = run("faulting")
	want := "clc: kernel faulting at work-item (5,0,0): memory store out of bounds: offset 4000000 size 4 in 64-byte region"
	if err == nil || err.Error() != want {
		t.Errorf("faulting: error %v, want %s", err, want)
	}
}

// TestDifferentialErrorText: run-time failures keep their text.
func TestDifferentialErrorText(t *testing.T) {
	p := mustCompile(t, `
int down(int n) { return down(n + 1); }
int idiv(int a, int b) { return a / b; }
__kernel void oobLoad(__global int* x) { x[0] = x[get_global_id(0) + 7]; }
__kernel void oobStore(__global char* x) { x[-1] = 1; }
__kernel void divZero(__global int* x) { x[0] = idiv(10, x[1]); }
__kernel void modZero(__global int* x) { x[0] = 10u % (uint)x[1]; }
__kernel void depth(__global int* x) { x[0] = down(0); }
__kernel void spin(__global int* x) { while (x[1] == 0) x[0]++; }
__kernel void nullDeref(__global int* x) { __global int* p = 0; x[0] = *p; }
__kernel void nullIndex(__global int* x) { __global int* p = 0; p[2] = 1; }
__kernel void undefinedName(__global int* x) { x[0] = nosuch; }
__kernel void undefinedCall(__global int* x) { x[0] = nosuch(1); }
__kernel void arity(__global int* x) { x[0] = idiv(1); }
__kernel void notAssignable(__global int* x) { 3 = x[0]; }
__kernel void addressOf(__global int* x) { int v = 1; x[0] = *(&v); }
__kernel void badArray(__global int* x) { int a[x[1] - 1]; x[0] = a[0]; }
__kernel void floatMod(__global int* x) { x[0] = 1.5f % 2; }
__kernel void builtinArity(__global int* x) { x[0] = (int)sqrt(1.0f, 2.0f) + min(1); }
__kernel void unset(__global int* x, __global int* y) { x[0] = y[0]; }`)
	p.stepLimit = 1000
	one := NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}}
	for _, c := range []struct{ kernel, want string }{
		{"oobLoad", "clc: kernel oobLoad at work-item (0,0,0): memory load out of bounds: offset 28 size 4 in 8-byte region"},
		{"oobStore", "clc: kernel oobStore at work-item (0,0,0): memory store out of bounds: offset -1 size 1 in 8-byte region"},
		{"divZero", "clc: kernel divZero at work-item (0,0,0): in idiv: integer division by zero"},
		{"modZero", "clc: kernel modZero at work-item (0,0,0): integer modulo by zero"},
		{"depth", "clc: kernel depth at work-item (0,0,0): " + strings.Repeat("in down: ", 65) + `call depth limit exceeded calling "down"`},
		{"nullDeref", "clc: kernel nullDeref at work-item (0,0,0): dereferencing non-pointer or null pointer"},
		{"nullIndex", "clc: kernel nullIndex at work-item (0,0,0): indexing null pointer"},
		{"undefinedName", `clc: kernel undefinedName at work-item (0,0,0): undefined identifier "nosuch"`},
		{"undefinedCall", `clc: kernel undefinedCall at work-item (0,0,0): call to undefined function "nosuch"`},
		{"arity", `clc: kernel arity at work-item (0,0,0): function "idiv" expects 2 arguments, got 1`},
		{"notAssignable", "clc: kernel notAssignable at work-item (0,0,0): expression is not assignable"},
		{"addressOf", "clc: kernel addressOf at work-item (0,0,0): cannot take the address of a register variable"},
		{"badArray", "clc: kernel badArray at work-item (0,0,0): array a has invalid length -1"},
		{"floatMod", `clc: kernel floatMod at work-item (0,0,0): operator "%" not defined on floating-point operands`},
		{"builtinArity", "clc: kernel builtinArity at work-item (0,0,0): builtin sqrt expects 1 arguments, got 2"},
	} {
		_, err := execBoth(t, p, c.kernel, one, []KernelArg{{Mem: make([]byte, 8)}}, ExecOptions{})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v\nwant %s", c.kernel, err, c.want)
		}
	}
	// The tree-walker's limit is the production constant (2^28 iterations),
	// so the lowered limit is checked on the executor alone.
	_, err := p.Execute("spin", one, []KernelArg{{Mem: make([]byte, 8)}}, ExecOptions{})
	if want := "clc: kernel spin at work-item (0,0,0): loop iteration limit exceeded"; err == nil || err.Error() != want {
		t.Errorf("spin: error %v, want %s", err, want)
	}
	_, err = execBoth(t, p, "unset", one, []KernelArg{{Mem: make([]byte, 8)}, {}}, ExecOptions{})
	if want := "clc: kernel unset: buffer argument 1 (y) not set"; err == nil || err.Error() != want {
		t.Errorf("unset: error %v, want %s", err, want)
	}
}

// TestDifferentialGroupOrder: conflicting global stores land in group order
// whatever the worker count, and only provably disjoint kernels fan out.
func TestDifferentialGroupOrder(t *testing.T) {
	p := mustCompile(t, `
__kernel void racy(__global float* data, int repeats, uint n) {
    size_t gid = get_global_id(0);
    for (int r = 0; r < repeats; r++) data[(gid + (size_t)r * 64u) % n] = (float)gid;
}
__kernel void disjoint(__global const float* a, __global float* c, __global int* groups, uint n) {
    int i = (int)get_global_id(0);
    size_t g = get_group_id(0);
    if (i < n) c[i] = a[i] + c[i];
    groups[g] = (int)g;
}
__kernel void failsHigh(__global float* c) { c[get_global_id(0)] = 1; }`)
	for _, k := range []struct {
		name string
		want bool
	}{{"racy", false}, {"disjoint", true}, {"failsHigh", true}} {
		for i, fn := range p.Unit.Funcs {
			if got := p.lowered().kernels[i].stores.ok; fn.Name == k.name && got != k.want {
				t.Errorf("%s: group-disjoint = %v, want %v", k.name, got, k.want)
			}
		}
	}
	const n = 256
	nd := NDRange{Dims: 1, Global: [3]int{n}, Local: [3]int{16}}
	for _, workers := range []int{1, 2, 8} {
		opt := ExecOptions{Workers: workers}
		data := make([]byte, 4*n)
		if _, err := execBoth(t, p, "racy", nd, []KernelArg{{Mem: data}, {Scalar: scalarU32(8)}, {Scalar: scalarU32(n)}}, opt); err != nil {
			t.Fatal(err)
		}
		a, c, groups := f32s(n, ramp), f32s(n, ramp), make([]byte, 4*n/16)
		if _, err := execBoth(t, p, "disjoint", nd, []KernelArg{{Mem: a}, {Mem: c}, {Mem: groups}, {Scalar: scalarU32(n)}}, opt); err != nil {
			t.Fatal(err)
		}
		// a and c aliased: the launch falls back to ordered groups.
		if _, err := execBoth(t, p, "disjoint", nd, []KernelArg{{Mem: c}, {Mem: c}, {Mem: groups}, {Scalar: scalarU32(n)}}, opt); err != nil {
			t.Fatal(err)
		}
		// Items 100.. fail, in several workers' shares at once; the
		// lowest-indexed one is reported.
		_, err := execBoth(t, p, "failsHigh", nd, []KernelArg{{Mem: make([]byte, 400)}}, opt)
		if want := "clc: kernel failsHigh at work-item (100,0,0): memory store out of bounds: offset 400 size 4 in 400-byte region"; err == nil || err.Error() != want {
			t.Errorf("workers=%d: error %v, want %s", workers, err, want)
		}
	}
}
