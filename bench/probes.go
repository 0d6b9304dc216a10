package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"time"

	"checl/internal/clc"
	"checl/internal/ipc"
	"checl/internal/store"
)

// Direct probes call one layer's public functions with nothing else in
// the way. They do not depend on the workload; every traced run repeats
// them so a layer's micro-cost sits next to the workload numbers it
// explains.

// ---- clc ----

const probeSrc = `
__kernel void vadd(__global const float* a, __global const float* b, __global float* c, int n) {
    int i = (int)get_global_id(0);
    if (i < n) c[i] = a[i] + b[i];
}
__kernel void loop(__global float* a, int n) {
    int i = (int)get_global_id(0);
    if (i >= n) return;
    float x = a[i];
    for (int k = 0; k < 64; k++) x = x * 1.0001f + 0.5f;
    a[i] = x;
}
__kernel void transpose(__global const float* in, __global float* out, __local float* tile, int w, int h) {
    int x = (int)get_global_id(0);
    int y = (int)get_global_id(1);
    int lx = (int)get_local_id(0);
    int ly = (int)get_local_id(1);
    int lw = (int)get_local_size(0);
    if (x < w && y < h) tile[ly * lw + lx] = in[y * w + x];
    barrier(CLK_LOCAL_MEM_FENCE);
    int ox = (int)get_group_id(1) * (int)get_local_size(1) + lx;
    int oy = (int)get_group_id(0) * lw + ly;
    if (ox < h && oy < w) out[oy * h + ox] = tile[lx * lw + ly];
}`

type clcProbe struct {
	compileWall   time.Duration
	vaddNs        float64
	loopNs        float64
	transposeNs   float64
	vaddAllocs    float64
	flops         float64
	globalBytes   int64
	probeLaunches int
}

// probeCLC compiles every source the workload built, then times three
// kernels the suite's apps are made of: a streaming add, a 64-FMA inner
// loop, and a __local tile transpose with a barrier.
func probeCLC(sources []string, launches int) (clcProbe, error) {
	var p clcProbe
	t0 := time.Now()
	for _, src := range sources {
		if _, err := clc.Compile(src); err != nil {
			return p, fmt.Errorf("clc probe: compile: %w", err)
		}
	}
	p.compileWall = time.Since(t0)

	prog, err := clc.Compile(probeSrc)
	if err != nil {
		return p, fmt.Errorf("clc probe: %w", err)
	}
	const n, side = 16384, 128
	g := &rng{s: 1}
	a, b, c := make([]byte, 4*n), make([]byte, 4*n), make([]byte, 4*n)
	g.fillFloats(a)
	g.fillFloats(b)
	run := func(name string, nd clc.NDRange, args []clc.KernelArg) (nsPerItem, allocsPerItem float64, err error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < launches; i++ {
			prof, err := prog.Execute(name, nd, args, clc.ExecOptions{})
			if err != nil {
				return 0, 0, fmt.Errorf("clc probe: %s: %w", name, err)
			}
			p.flops += prof.Flops
			p.globalBytes += prof.GlobalBytes
		}
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		items := float64(launches) * float64(nd.TotalWorkItems())
		return float64(wall) / items, float64(m1.Mallocs-m0.Mallocs) / items, nil
	}
	if p.vaddNs, p.vaddAllocs, err = run("vadd", clc.NDRange{Dims: 1, Global: [3]int{n}, Local: [3]int{64}},
		[]clc.KernelArg{{Mem: a}, {Mem: b}, {Mem: c}, {Scalar: u32(n)}}); err != nil {
		return p, err
	}
	if p.loopNs, _, err = run("loop", clc.NDRange{Dims: 1, Global: [3]int{n / 4}, Local: [3]int{64}},
		[]clc.KernelArg{{Mem: c}, {Scalar: u32(n / 4)}}); err != nil {
		return p, err
	}
	if p.transposeNs, _, err = run("transpose", clc.NDRange{Dims: 2, Global: [3]int{side, side}, Local: [3]int{16, 16}},
		[]clc.KernelArg{{Mem: a}, {Mem: b}, {LocalSize: 4 * 16 * 16}, {Scalar: u32(side)}, {Scalar: u32(side)}}); err != nil {
		return p, err
	}
	p.probeLaunches = 3 * launches
	return p, nil
}

// ---- ipc ----

type echoMsg struct{ N int }

type ipcProbe struct {
	echoRTTus     float64
	echoAllocs    float64
	rawMBperS     float64
	rawBytesMoved int64
}

// probeIPC measures the framed transport alone over net.Pipe: the round
// trip of a small gob call (what call_storm pays 120 000 times) and the
// throughput of 1 MiB raw responses received into a caller buffer (what
// the checkpoint drain and the restore re-upload pay).
func probeIPC(calls, bulk int) (ipcProbe, error) {
	var p ipcProbe
	srv := ipc.NewServer()
	ipc.Register(srv, "echo", func(r echoMsg) (echoMsg, error) { return r, nil })
	payload := make([]byte, 1<<20)
	(&rng{s: 2}).fillRandom(payload)
	ipc.RegisterRaw(srv, "bulk", func(r echoMsg, _ []byte) (echoMsg, []byte, error) { return r, payload, nil })

	client, server := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(server) }()
	conn := ipc.NewConn(client)
	// Closing the client end makes ServeConn return; wait for it so the
	// probe leaves no goroutine behind.
	defer func() {
		conn.Close()
		<-served
	}()

	var resp echoMsg
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := conn.Call("echo", echoMsg{N: i}, &resp); err != nil {
			return p, fmt.Errorf("ipc probe: echo: %w", err)
		}
		if resp.N != i {
			return p, fmt.Errorf("ipc probe: echo returned %d, want %d", resp.N, i)
		}
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	p.echoRTTus = float64(wall) / 1e3 / float64(calls)
	p.echoAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(calls)

	buf := make([]byte, len(payload))
	t0 = time.Now()
	for i := 0; i < bulk; i++ {
		got, _, err := conn.CallRecvRawInto("bulk", 0, echoMsg{N: i}, &resp, buf)
		if err != nil {
			return p, fmt.Errorf("ipc probe: bulk: %w", err)
		}
		if i == 0 && !bytes.Equal(got, payload) {
			return p, fmt.Errorf("ipc probe: bulk payload corrupted")
		}
	}
	p.rawBytesMoved = int64(bulk) * int64(len(payload))
	p.rawMBperS = perSecondMB(p.rawBytesMoved, time.Since(t0))
	return p, nil
}

// ---- store coder ----

type coderProbe struct {
	encodeMBperS      float64
	reconstructMBperS float64
}

// probeCoder runs the 4+2 Reed–Solomon coder over 16 KiB chunks (the
// store's average chunk size): encode, then reconstruct with two data
// shards missing, which is what a restore with two fleet nodes down does
// for the chunks those nodes held.
func probeCoder(chunks int) (coderProbe, error) {
	var p coderProbe
	coder, err := store.NewCoder(4, 2)
	if err != nil {
		return p, err
	}
	const chunkBytes = 16 << 10
	data := make([]byte, chunkBytes)
	(&rng{s: 3}).fillRandom(data)

	var shards [][]byte
	t0 := time.Now()
	for i := 0; i < chunks; i++ {
		shards = coder.Encode(data)
	}
	p.encodeMBperS = perSecondMB(int64(chunks)*chunkBytes, time.Since(t0))

	have := map[int][]byte{2: shards[2], 3: shards[3], 4: shards[4], 5: shards[5]}
	var rebuilt [][]byte
	t0 = time.Now()
	for i := 0; i < chunks; i++ {
		if rebuilt, err = coder.Reconstruct(have); err != nil {
			return p, fmt.Errorf("coder probe: %w", err)
		}
	}
	p.reconstructMBperS = perSecondMB(int64(chunks)*chunkBytes, time.Since(t0))
	if !bytes.Equal(coder.Join(rebuilt, chunkBytes), data) {
		return p, fmt.Errorf("coder probe: reconstruction differs from the input")
	}
	return p, nil
}
