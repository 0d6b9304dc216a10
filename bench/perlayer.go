package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"checl/internal/vtime"
)

// traceSizes fixes how much the traced run does beyond the workload's
// own sizes: passes per arm, and the direct probes' repetitions.
type traceSizes struct{ passes, clcLaunches, ipcCalls, ipcBulk, coderChunks int }

var (
	fullTrace  = traceSizes{passes: 3, clcLaunches: 4, ipcCalls: 5000, ipcBulk: 64, coderChunks: 512}
	shortTrace = traceSizes{passes: 1, clcLaunches: 1, ipcCalls: 100, ipcBulk: 2, coderChunks: 8}
)

// untraced names the CheCL arm run with tracing off inside a traced run:
// the base of bench.trace_overhead_pct.
const untraced = "untraced"

// measurePerLayer is the traced run of one workload. Each round runs one
// untraced pass on the CheCL arm and one traced pass on each of the three
// arms; of the rounds, the pass with the median wall represents its arm,
// because layer self times are differences between arms and one noisy
// pass would swamp them. Then come the workload's finish step and the
// direct probes. It returns the per-layer metrics and the recorders
// holding the representative spans.
func measurePerLayer(w workload, sz sizes, ts traceSizes, seed uint64) (result, []*recorder, error) {
	r, err := w.setup(sz, seed)
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	epoch := time.Now()
	res := result{workload: w.name}
	variants := []string{armNative, armProxy, armCheCL, untraced}
	runs := map[string][]passOut{}
	for round := 0; round < ts.passes; round++ {
		for _, v := range variants {
			kind, tracing := v, true
			if v == untraced {
				kind, tracing = armCheCL, false
			}
			runtime.GC()
			out, err := r.pass(kind, newRecorder(w.name, kind, round, tracing, epoch))
			if err != nil {
				return result{}, nil, fmt.Errorf("%s pass: %w", v, err)
			}
			runs[v] = append(runs[v], out)
			res.attempted += len(out.rec.calls) + out.checks.checked
			res.failed += out.rec.errs + out.checks.failed
			res.notes = append(res.notes, out.checks.notes...)
		}
	}
	outs := map[string]passOut{}
	var recs []*recorder
	for _, v := range variants {
		sort.Slice(runs[v], func(i, j int) bool { return runs[v][i].wall < runs[v][j].wall })
		outs[v] = runs[v][len(runs[v])/2]
		if v != untraced {
			recs = append(recs, outs[v].rec)
		}
	}
	var fin passOut
	if err := r.finish(&fin); err != nil {
		return result{}, nil, err
	}
	res.attempted += fin.checks.checked
	res.failed += fin.checks.failed
	res.notes = append(res.notes, fin.checks.notes...)
	base := outs[untraced]
	ch := outs[armCheCL]
	clcP, err := probeCLC(ch.rec.sources, ts.clcLaunches)
	if err != nil {
		return result{}, nil, err
	}
	ipcP, err := probeIPC(ts.ipcCalls, ts.ipcBulk)
	if err != nil {
		return result{}, nil, err
	}
	coderP, err := probeCoder(ts.coderChunks)
	if err != nil {
		return result{}, nil, err
	}

	v := layerValues(outs[armNative], outs[armProxy], ch)
	v["clc.compile_wall_ms"] = ms(clcP.compileWall)
	v["clc.vadd_ns_per_item"] = clcP.vaddNs
	v["clc.loop_ns_per_item"] = clcP.loopNs
	v["clc.transpose_ns_per_item"] = clcP.transposeNs
	v["clc.vadd_allocs_per_item"] = clcP.vaddAllocs
	v["clc.profile_flops"] = clcP.flops
	v["clc.profile_global_bytes"] = float64(clcP.globalBytes)
	v["ipc.echo_rtt_us"] = ipcP.echoRTTus
	v["ipc.echo_allocs_per_call"] = ipcP.echoAllocs
	v["ipc.raw_1mb_mb_per_s"] = ipcP.rawMBperS
	v["store.coder_encode_mb_per_s"] = coderP.encodeMBperS
	v["store.coder_reconstruct_mb_per_s"] = coderP.reconstructMBperS
	v["bench.trace_overhead_pct"] = 100 * ratio(float64(ch.wall-base.wall), float64(base.wall))
	v["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	v["bench.nproc"] = float64(runtime.NumCPU())

	// The workload-specific paper figures are virtual, so the traced pass
	// yields the same values an untraced one would.
	for _, m := range summarize(w.name, nil, []passOut{ch}, nil, fin).metrics {
		v["e2e."+m.name] = m.value
	}
	if _, ok := v["e2e.call_p50_us"]; ok {
		v["e2e.call_p50_us"] = median(base.rec.latencies(opAll)) // a host figure: from the untraced pass
	}
	for _, m := range perLayerNames {
		m.value = v[m.name]
		res.metrics = append(res.metrics, m)
	}
	layers := v["ocl.launch_wall_ms"] + v["ocl.other_wall_ms"] + v["proxy.self_wall_ms"] + v["core.self_wall_ms"] +
		v["core.ckpt_self_wall_ms"] + v["cpr.dump_self_wall_ms"] + v["store.put_wall_ms"] +
		v["core.restore_self_wall_ms"] + v["cpr.restart_self_wall_ms"] + v["store.get_wall_ms"]
	res.header = fmt.Sprintf("traced, median of %d passes per arm, seed %d: checl-arm wall %.1f ms = layer self times %.1f ms (%.1f %%) + load generator %.1f ms",
		ts.passes, seed, ms(ch.wall), layers, 100*ratio(layers, ms(ch.wall)), v["apps.self_wall_ms"])
	return res, recs, nil
}

// layerValues derives the workload-dependent per-layer metrics from the
// three traced passes. A layer's host self time is either its span minus
// its child spans, or the difference between an arm and the arm inside it.
func layerValues(native, prox, ch passOut) map[string]float64 {
	v := map[string]float64{}

	launch := native.rec.apiWall(opLaunch)
	v["ocl.launch_wall_ms"] = ms(launch)
	v["ocl.other_wall_ms"] = ms(native.rec.apiWall(opAll) - launch)
	v["ocl.launches"] = float64(len(native.rec.latencies(opLaunch)))
	v["ocl.work_items"] = float64(native.rec.items)
	v["ocl.native_vtime_ms"] = vms(native.vtime)

	proxySelf := prox.rec.apiWall(opAll) - native.rec.apiWall(opAll)
	trips := prox.px.Calls - prox.px.Posted
	v["proxy.self_wall_ms"] = ms(proxySelf)
	v["proxy.roundtrips"] = float64(trips)
	v["proxy.posted"] = float64(prox.px.Posted)
	v["proxy.batched"] = float64(prox.px.Batched)
	v["proxy.bytes"] = float64(prox.px.Bytes)
	v["proxy.call_us"] = ratio(float64(proxySelf)/1e3, float64(trips))

	coreSelf := ch.rec.apiWall(opAll) - prox.rec.apiWall(opAll)
	v["core.api_calls"] = float64(len(ch.rec.calls))
	v["core.self_wall_ms"] = ms(coreSelf)
	v["core.call_us"] = ratio(float64(coreSelf)/1e3, float64(len(ch.rec.calls)))
	v["core.setarg_p50_us"] = median(ch.rec.latencies(opSetArg))
	v["core.launch_p50_us"] = median(ch.rec.latencies(opLaunch))
	v["core.sync_p50_us"] = median(ch.rec.latencies(opSync))
	v["core.xfer_p50_us"] = median(ch.rec.latencies(opXfer))
	v["core.call_p999_us"] = quantile(sortedCopy(ch.rec.latencies(opAll)), 0.999)

	ckptWall, ckptSelf := ch.rec.spanWall("core.checkpoint")
	_, dumpSelf := ch.rec.spanWall("cpr.dump")
	putWall, _ := ch.rec.spanWall("store.put")
	v["core.ckpt_wall_ms"] = ms(ckptWall)
	v["core.ckpt_self_wall_ms"] = ms(ckptSelf)
	v["cpr.dump_self_wall_ms"] = ms(dumpSelf)
	v["cpr.dump_alloc_mb"] = float64(ch.rec.alloc["cpr.dump"]-ch.rec.alloc["store.put"]) / 1e6
	v["store.put_wall_ms"] = ms(putWall)
	v["store.put_alloc_mb"] = float64(ch.rec.alloc["store.put"]) / 1e6
	if n := float64(len(ch.ckpts)); n > 0 {
		var sync, pre, write, post, putT, compress, fsWrite vtime.Duration
		var dirty, clean, image, payload, fresh, stored int64
		var newChunks, reused int
		for _, c := range ch.ckpts {
			sync, pre = sync+c.Phases.Sync, pre+c.Phases.Preprocess
			write, post = write+c.Phases.Write, post+c.Phases.Postprocess
			dirty, clean, image = dirty+c.DirtyBytes, clean+c.CleanBytes, image+c.FileSize
			if p := c.StorePut; p != nil {
				putT, compress, fsWrite = putT+p.Time, compress+p.CompressTime, fsWrite+p.WriteTime
				payload, fresh, stored = payload+p.TotalBytes, fresh+p.NewBytes, stored+p.StoredBytes
				newChunks, reused = newChunks+p.NewChunks, reused+p.ReusedChunks
			}
		}
		v["core.ckpt_sync_vms"] = vms(sync) / n
		v["core.ckpt_preprocess_vms"] = vms(pre) / n
		v["core.ckpt_write_vms"] = vms(write) / n
		v["core.ckpt_postprocess_vms"] = vms(post) / n
		v["core.ckpt_dirty_bytes"] = float64(dirty)
		v["core.ckpt_clean_bytes"] = float64(clean)
		v["cpr.image_bytes"] = float64(image)
		v["store.put_host_mb_per_s"] = perSecondMB(payload, putWall)
		v["store.put_vms"] = vms(putT)
		v["store.compress_vms"] = vms(compress)
		v["store.write_vms"] = vms(fsWrite)
		v["store.new_chunks"] = float64(newChunks)
		v["store.reused_chunks"] = float64(reused)
		v["store.dedup_ratio"] = 1 - ratio(float64(fresh), float64(payload))
		v["store.stored_bytes"] = float64(stored)
	}

	restoreWall, restoreSelf := ch.rec.spanWall("core.restore")
	_, restartSelf := ch.rec.spanWall("cpr.restart")
	decodeWall, _ := ch.rec.spanWall("cpr.decode")
	_, getSelf := ch.rec.spanWall("store.get")
	v["core.restore_wall_ms"] = ms(restoreWall)
	v["core.restore_self_wall_ms"] = ms(restoreSelf)
	v["cpr.restart_self_wall_ms"] = ms(restartSelf + decodeWall)
	v["store.get_wall_ms"] = ms(getSelf)
	if n := float64(len(ch.restores)); n > 0 {
		var read, recompile, total vtime.Duration
		for _, r := range ch.restores {
			read, recompile, total = read+r.ReadTime, recompile+r.Recompile, total+r.Total
		}
		v["core.restore_read_vms"] = vms(read) / n
		v["core.restore_recompile_vms"] = vms(recompile) / n
		v["core.restore_objects_vms"] = vms(total-read-recompile) / n
	}
	v["store.shards_healed"] = float64(ch.healed)
	v["proc.fs_files"] = float64(ch.fsFiles)
	v["proc.fs_bytes"] = float64(ch.fsBytes)
	v["apps.self_wall_ms"] = ms(ch.wall - ch.rec.apiWall(opAll) - ckptWall - restoreWall)
	return v
}
