package clc

import "testing"

func TestSwitchBasicDispatch(t *testing.T) {
	p := mustCompile(t, `
__kernel void f(__global int* out, uint n) {
    for (uint i = 0u; i < n; i++) {
        int r = 0;
        switch ((int)i % 4) {
        case 0:
            r = 100;
            break;
        case 1:
            r = 200;
            break;
        case 2:
            r = 300;
            break;
        default:
            r = -1;
            break;
        }
        out[i] = r;
    }
}`)
	n := 8
	out := make([]byte, 4*n)
	if _, err := execBoth(t, p, "f", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
		[]KernelArg{{Mem: out}, {Scalar: scalarU32(uint32(n))}}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	want := []int32{100, 200, 300, -1, 100, 200, 300, -1}
	for i, w := range want {
		if got := i32at(out, i); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestSwitchFallthroughAndSharedLabels(t *testing.T) {
	p := mustCompile(t, `
__kernel void f(__global int* out, int x) {
    int acc = 0;
    switch (x) {
    case 0:
    case 1:
        acc = acc + 1;   // 0 and 1 share this arm
    case 2:
        acc = acc + 10;  // falls through from 0/1; entry for 2
        break;
    case 3:
        acc = acc + 100;
        break;
    }
    out[0] = acc;
}`)
	cases := map[int32]int32{0: 11, 1: 11, 2: 10, 3: 100, 9: 0}
	for in, want := range cases {
		out := make([]byte, 4)
		ib := make([]byte, 4)
		putI32(ib, in)
		if _, err := execBoth(t, p, "f", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
			[]KernelArg{{Mem: out}, {Scalar: ib}}, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		if got := i32at(out, 0); got != want {
			t.Errorf("switch(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSwitchDefaultInMiddle(t *testing.T) {
	p := mustCompile(t, `
__kernel void f(__global int* out, int x) {
    switch (x) {
    case 1:
        out[0] = 10;
        break;
    default:
        out[0] = 99;
        break;
    case 2:
        out[0] = 20;
        break;
    }
}`)
	cases := map[int32]int32{1: 10, 2: 20, 7: 99}
	for in, want := range cases {
		out := make([]byte, 4)
		ib := make([]byte, 4)
		putI32(ib, in)
		if _, err := execBoth(t, p, "f", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
			[]KernelArg{{Mem: out}, {Scalar: ib}}, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		if got := i32at(out, 0); got != want {
			t.Errorf("switch(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSwitchInsideLoopControlFlow(t *testing.T) {
	// return/continue inside a switch must propagate to the function and
	// loop respectively; break must stop only the switch.
	p := mustCompile(t, `
int classify(int v) {
    switch (v) {
    case 0:
        return -5;
    case 1:
        break;
    }
    return v * 2;
}
__kernel void f(__global int* out) {
    int sum = 0;
    for (int i = 0; i < 6; i++) {
        switch (i % 3) {
        case 0:
            continue; // skip multiples of 3
        case 1:
            sum = sum + 1;
            break;
        default:
            sum = sum + 10;
        }
        sum = sum + 100; // reached for i%3 != 0
    }
    out[0] = sum;
    out[1] = classify(0);
    out[2] = classify(1);
    out[3] = classify(4);
}`)
	out := make([]byte, 16)
	if _, err := execBoth(t, p, "f", NDRange{Dims: 1, Global: [3]int{1}, Local: [3]int{1}},
		[]KernelArg{{Mem: out}}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	// i=0,3 skipped; i=1,4 add 1+100 each; i=2,5 add 10+100 each => 422.
	if got := i32at(out, 0); got != 422 {
		t.Errorf("loop/switch sum = %d, want 422", got)
	}
	if got := i32at(out, 1); got != -5 {
		t.Errorf("classify(0) = %d, want -5", got)
	}
	if got := i32at(out, 2); got != 2 {
		t.Errorf("classify(1) = %d, want 2", got)
	}
	if got := i32at(out, 3); got != 8 {
		t.Errorf("classify(4) = %d, want 8", got)
	}
}

func TestSwitchWithBarrier(t *testing.T) {
	// barrier() inside a switch arm must synchronise the group.
	p := mustCompile(t, `
__kernel void f(__global int* out, __local int* tile) {
    size_t lid = get_local_id(0);
    switch ((int)lid % 2) {
    case 0:
        tile[lid] = (int)lid;
        break;
    default:
        tile[lid] = -(int)lid;
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    switch (1) {
    case 1:
        out[get_global_id(0)] = tile[(lid + 1u) % get_local_size(0)];
        barrier(CLK_LOCAL_MEM_FENCE);
        break;
    }
}`)
	out := make([]byte, 4*8)
	if _, err := execBoth(t, p, "f", NDRange{Dims: 1, Global: [3]int{8}, Local: [3]int{8}},
		[]KernelArg{{Mem: out}, {LocalSize: 4 * 8}}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		peer := (i + 1) % 8
		want := int32(peer)
		if peer%2 == 1 {
			want = -want
		}
		if got := i32at(out, i); got != want {
			t.Errorf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestSwitchWriteSetAnalysis(t *testing.T) {
	p := mustCompile(t, `
__kernel void f(__global const float* in, __global float* a, __global float* b, int mode) {
    switch (mode) {
    case 0:
        a[0] = in[0];
        break;
    default:
        b[0] = in[0];
    }
}`)
	ws, ok := p.WriteSet("f")
	if !ok {
		t.Fatal("write set failed")
	}
	got := map[int]bool{}
	for _, i := range ws {
		got[i] = true
	}
	if got[0] || !got[1] || !got[2] {
		t.Errorf("write set = %v, want [1 2]", ws)
	}
}

func TestSwitchParseErrors(t *testing.T) {
	cases := []string{
		`__kernel void f(int x) { switch (x) { int y; case 1: break; } }`, // stmt before label
		`__kernel void f(int x) { switch (x) { default: break; default: break; } }`,
		`__kernel void f(int x) { switch (x) { case 1 break; } }`,
		`__kernel void f(int x) { switch (x) { case 1: break; }`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}
