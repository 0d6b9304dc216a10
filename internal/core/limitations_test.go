package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"checl/internal/clc"
	"checl/internal/ocl"
)

// Tests documenting the §III-D limitations of CheCL. These are not bugs
// to fix but behaviours the paper explicitly scopes out; the tests pin
// them down so a change in behaviour is noticed.

// TestStructEmbeddedHandleOverlooked: "if a user-defined structure
// including CheCL handles is given to clSetKernelArg as an argument,
// CheCL overlooks the handles in the structure, even though they must be
// converted to OpenCL handles."
//
// The kernel parameter is a by-value scalar blob (a struct); a CheCL mem
// handle embedded inside it is forwarded untranslated.
func TestStructEmbeddedHandleOverlooked(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 64)

	// A 16-byte "struct" whose first 8 bytes are a live CheCL mem handle
	// and whose last 8 bytes are plain data.
	blob := make([]byte, 16)
	binary.LittleEndian.PutUint64(blob[0:], uint64(app.a))
	binary.LittleEndian.PutUint64(blob[8:], 0x1122334455667788)

	prec, err := get(c.db.programs, Handle(app.prog))
	if err != nil {
		t.Fatal(err)
	}
	// The vadd kernel's 4th parameter is a scalar; hand it the struct.
	forwarded, local, err := c.translateArg(prec, "vadd", 3, 16, blob)
	if err != nil {
		t.Fatal(err)
	}
	if local {
		t.Fatal("scalar blob misclassified as __local")
	}
	// The embedded handle is NOT translated: bytes pass through verbatim,
	// still containing the (meaningless to the device) CheCL handle.
	if !bytes.Equal(forwarded, blob) {
		t.Error("struct-embedded CheCL handle was translated; §III-D documents that it must be overlooked")
	}
}

// TestLocalArgRecordedAndReplayed: __local arguments carry only a size
// (NULL value); the recorded argRec must preserve that through restart.
func TestLocalArgRecordedAndReplayed(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})

	plats, _ := c.GetPlatformIDs()
	devs, _ := c.GetDeviceIDs(plats[0], ocl.DeviceTypeAll)
	ctx, _ := c.CreateContext(devs)
	q, _ := c.CreateCommandQueue(ctx, devs[0], 0)
	prog, _ := c.CreateProgramWithSource(ctx, `
__kernel void red(__global float* out, __local float* scratch) {
    size_t lid = get_local_id(0);
    scratch[lid] = (float)lid;
    barrier(CLK_LOCAL_MEM_FENCE);
    if (lid == 0u) {
        float s = 0.0f;
        for (uint i = 0u; i < get_local_size(0); i++) s = s + scratch[i];
        out[get_group_id(0)] = s;
    }
}`)
	if err := c.BuildProgram(prog, ""); err != nil {
		t.Fatal(err)
	}
	k, _ := c.CreateKernel(prog, "red")
	out, _ := c.CreateBuffer(ctx, ocl.MemReadWrite, 4*4, nil)
	if err := c.SetKernelArg(k, 0, 8, handleBytes(out)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetKernelArg(k, 1, 4*16, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnqueueNDRangeKernel(q, k, 1, [3]int{}, [3]int{64}, [3]int{16}, nil); err != nil {
		t.Fatal(err)
	}
	verify := func(api ocl.API) {
		data, _, err := api.EnqueueReadBuffer(q, out, true, 0, 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Sum of 0..15 = 120 per group.
		for g := 0; g < 4; g++ {
			got := f32FromBytes(data[4*g:])
			if got != 120 {
				t.Fatalf("group %d sum = %v, want 120", g, got)
			}
		}
	}
	verify(c)

	// Restart and run again: the replayed __local arg must still be a
	// NULL-valued size-only argument.
	if _, err := c.Checkpoint(node.LocalDisk, "local.ckpt"); err != nil {
		t.Fatal(err)
	}
	c.Proxy().Kill()
	c.App().Kill()
	rc, _, err := Restore(node, node.LocalDisk, "local.ckpt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Detach()
	if _, err := rc.EnqueueNDRangeKernel(q, k, 1, [3]int{}, [3]int{64}, [3]int{16}, nil); err != nil {
		t.Fatalf("launch with replayed __local arg: %v", err)
	}
	verify(rc)
}

// TestWriteSetRecordedInDatabase: CheCL's program records carry the
// write-set analysis that drives incremental checkpointing.
func TestWriteSetRecordedInDatabase(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 64)
	prec, err := get(c.db.programs, Handle(app.prog))
	if err != nil {
		t.Fatal(err)
	}
	ws, ok := prec.WriteSets["vadd"]
	if !ok {
		t.Fatal("vadd write set missing")
	}
	if len(ws) != 1 || ws[0] != 2 {
		t.Errorf("vadd write set = %v, want [2] (only the output buffer)", ws)
	}
	if _, ok := clc.Lookup(prec.Sigs, "scale"); !ok {
		t.Error("scale signature missing from program record")
	}
}

func f32FromBytes(b []byte) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b))
}
