package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"checl/internal/core"
	"checl/internal/hw"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/store"
)

// realRig backs the fleet's honesty sampling: a small real cluster
// (internal/proc) with an NFS-shared content-addressed checkpoint store
// (internal/store). Sampled jobs run an actual OpenCL application under
// CheCL (internal/core); their evictions checkpoint through the real
// CheckpointToStore path and kill the source incarnation, and their
// restores come back through RestoreFromStore — on the *other* node —
// with every buffer verified bit-identical against a digest taken at
// eviction time.
type realRig struct {
	cluster *proc.Cluster
	st      *store.Fleet // on the cluster's NFS, or a 4+2 fleet when Config.StoreNodes selected one
	inj     *proc.NodeFaultInjector
	seq     int
}

func newRealRig(cfg Config) (*realRig, error) {
	cluster := proc.NewCluster("fleet", 2, hw.TableISpec(), func(int) []*ocl.Vendor {
		return []*ocl.Vendor{ocl.NVIDIA()}
	})
	r := &realRig{cluster: cluster}
	if cfg.StoreNodes <= 0 {
		r.st = store.New(cluster.NFS, store.Config{})
		return r, nil
	}
	fcfg := store.FleetConfig{} // 4+2 Reed-Solomon defaults
	n := cfg.StoreNodes
	if n < 6 { // need at least k+m homes
		n = 6
	}
	nodes := make([]store.FleetNode, n)
	for i := range nodes {
		name := fmt.Sprintf("ckpt-%02d", i)
		nodes[i] = store.FleetNode{Name: name, FS: proc.NewFS(name, hw.TableISpec().LocalDisk)}
	}
	fl, err := store.NewFleet(nodes, fcfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint store fleet: %w", err)
	}
	if cfg.StoreFaults != nil {
		plan := *cfg.StoreFaults
		if plan.MaxDown <= 0 || plan.MaxDown > fl.Config().ParityShards {
			plan.MaxDown = fl.Config().ParityShards
		}
		r.inj = proc.NewNodeFaultInjector(plan)
		fl.AttachFaults(r.inj)
	}
	r.st = fl
	return r, nil
}

// realJob is the live state of one sampled job. The CheCL handles (queue
// and buffers) are stable across checkpoint/restore, so they keep working
// against the restored incarnation.
type realJob struct {
	c      *core.CheCL
	parked bool
	q      ocl.CommandQueue
	bufs   [3]ocl.Mem
	size   int64
	digest [sha256.Size]byte
}

const realN = 1 << 10 // floats per buffer: 4 KiB each, cheap but real

// realSrc is the sampled jobs' OpenCL program.
const realSrc = `
__kernel void vadd(__global const float* a, __global const float* b,
                   __global float* c, uint n) {
    size_t i = get_global_id(0);
    if (i < n) c[i] = a[i] + b[i];
}`

// start spawns a process on one of the rig's nodes, attaches CheCL, and
// runs the vadd program so every buffer holds meaningful device state.
func (r *realRig) start(rj *realJob, name string) error {
	node := r.cluster.Nodes[r.seq%len(r.cluster.Nodes)]
	r.seq++
	app := node.Spawn(name)
	c, err := core.Attach(app, core.Options{Incremental: true})
	if err != nil {
		return err
	}
	rj.c = c
	rj.size = 4 * realN

	plats, err := c.GetPlatformIDs()
	if err != nil {
		return err
	}
	devs, err := c.GetDeviceIDs(plats[0], ocl.DeviceTypeAll)
	if err != nil {
		return err
	}
	ctx, err := c.CreateContext(devs[:1])
	if err != nil {
		return err
	}
	if rj.q, err = c.CreateCommandQueue(ctx, devs[0], 0); err != nil {
		return err
	}
	prog, err := c.CreateProgramWithSource(ctx, realSrc)
	if err != nil {
		return err
	}
	if err := c.BuildProgram(prog, ""); err != nil {
		return err
	}
	k, err := c.CreateKernel(prog, "vadd")
	if err != nil {
		return err
	}
	// Distinct per-job contents so digests actually discriminate.
	host := make([]byte, rj.size)
	salt := uint32(len(name)*2654435761 + r.seq)
	for i := 0; i < realN; i++ {
		binary.LittleEndian.PutUint32(host[4*i:], math.Float32bits(float32(i)+float32(salt%97)))
	}
	if rj.bufs[0], err = c.CreateBuffer(ctx, ocl.MemReadOnly|ocl.MemCopyHostPtr, rj.size, host); err != nil {
		return err
	}
	if rj.bufs[1], err = c.CreateBuffer(ctx, ocl.MemReadOnly|ocl.MemCopyHostPtr, rj.size, host); err != nil {
		return err
	}
	if rj.bufs[2], err = c.CreateBuffer(ctx, ocl.MemWriteOnly, rj.size, nil); err != nil {
		return err
	}
	for i, h := range rj.bufs {
		hb := make([]byte, 8)
		binary.LittleEndian.PutUint64(hb, uint64(h))
		if err := c.SetKernelArg(k, i, 8, hb); err != nil {
			return err
		}
	}
	nb := make([]byte, 4)
	binary.LittleEndian.PutUint32(nb, realN)
	if err := c.SetKernelArg(k, 3, 4, nb); err != nil {
		return err
	}
	if _, err := c.EnqueueNDRangeKernel(rj.q, k, 1, [3]int{}, [3]int{realN}, [3]int{64}, nil); err != nil {
		return err
	}
	return c.Finish(rj.q)
}

// readDigest hashes every buffer's device contents.
func (rj *realJob) readDigest() ([sha256.Size]byte, error) {
	h := sha256.New()
	for _, m := range rj.bufs {
		data, _, err := rj.c.EnqueueReadBuffer(rj.q, m, true, 0, rj.size, nil)
		if err != nil {
			return [sha256.Size]byte{}, err
		}
		h.Write(data)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// evict checkpoints the job into the store and terminates the source
// incarnation — the real counterpart of parking a job in the queue.
func (r *realRig) evict(rj *realJob, name string) error {
	digest, err := rj.readDigest()
	if err != nil {
		return err
	}
	rj.digest = digest
	if _, err := rj.c.CheckpointToStore(r.st, name); err != nil {
		return err
	}
	rj.c.App().Kill()
	rj.c.Detach()
	rj.c = nil
	rj.parked = true
	return nil
}

// restore restarts the parked job from its latest store generation on the
// rig's next node and reports whether any buffer came back different.
func (r *realRig) restore(rj *realJob, name string) (mismatch bool, err error) {
	if !rj.parked {
		return false, fmt.Errorf("restore of %s: not parked", name)
	}
	node := r.cluster.Nodes[r.seq%len(r.cluster.Nodes)]
	r.seq++
	c, _, err := core.RestoreFromStore(node, r.st, name, core.Options{Incremental: true})
	if err != nil {
		return false, err
	}
	rj.c = c
	rj.parked = false
	digest, err := rj.readDigest()
	if err != nil {
		return false, err
	}
	return digest != rj.digest, nil
}

// finish tears the sampled job down when its simulated counterpart
// completes.
func (r *realRig) finish(rj *realJob) {
	if rj.c == nil {
		return
	}
	rj.c.App().Kill()
	rj.c.Detach()
	rj.c = nil
}
