#!/bin/sh
# Hot-path benchmark harness: runs the Fig. 4 overhead sweep, the
# proxy-call microbenchmarks, the fleet-scheduler arms, and the
# partial-restart recovery sweep, then distils the headline metrics into
# BENCH_pr3.json, BENCH_pr6.json, BENCH_pr7.json, BENCH_pr8.json and
# BENCH_pr9.json at the repo root.
#
# Usage: scripts/bench.sh [benchtime]   (default 200x)
set -eu
cd "$(dirname "$0")/.."

benchtime=${1:-200x}
out=BENCH_pr3.json
out6=BENCH_pr6.json
out7=BENCH_pr7.json
out8=BENCH_pr8.json
out9=BENCH_pr9.json
tmp=$(mktemp)
tmp6=$(mktemp)
tmp7=$(mktemp)
tmp9=$(mktemp)
trap 'rm -f "$tmp" "$tmp6" "$tmp7" "$tmp9"' EXIT

go test -run '^$' -bench 'BenchmarkProxyCallOverhead' -benchmem \
    -benchtime "$benchtime" . >"$tmp"
go test -run '^$' -bench 'BenchmarkFig4RuntimeOverhead' \
    -benchtime 1x . >>"$tmp"
go test -run '^$' -bench 'BenchmarkScrubHeal' \
    -benchtime 3x . >>"$tmp"
go test -run '^$' -bench 'BenchmarkFleetBursty' -benchtime 3x . >"$tmp6"
go test -run '^$' -bench 'BenchmarkPartialRestart' -benchtime 1x . >"$tmp7"
go test -run '^$' -bench 'BenchmarkErasureFleet' -benchtime 1x . >"$tmp9"

awk '
function grab(line, unit,   i, n, f) {
    n = split(line, f, /[ \t]+/)
    for (i = 1; i < n; i++) if (f[i+1] == unit) return f[i]
    return ""
}
/^BenchmarkProxyCallOverhead\// {
    name = $1
    sub(/^BenchmarkProxyCallOverhead\//, "", name)
    sub(/-[0-9]+$/, "", name)
    ns[name]     = grab($0, "ns/op")
    trips[name]  = grab($0, "ipc-roundtrips/op")
    allocs[name] = grab($0, "allocs/op")
    mbs[name]    = grab($0, "MB/s")
}
/^BenchmarkScrubHeal/ {
    heal_chunks = grab($0, "healed-chunks")
    heal_mb     = grab($0, "healed-MB")
    scrub_ms    = grab($0, "scrub-ms")
}
/^BenchmarkFig4RuntimeOverhead\// {
    cfg = $1
    sub(/^BenchmarkFig4RuntimeOverhead\//, "", cfg)
    sub(/-[0-9]+$/, "", cfg)
    fig4[cfg] = grab($0, "avg-overhead-%")
    cfgs = cfgs (cfgs == "" ? "" : " ") cfg
}
END {
    printf "{\n"
    printf "  \"fig4_avg_overhead_pct\": {"
    n = split(cfgs, c, " ")
    for (i = 1; i <= n; i++)
        printf "%s\"%s\": %s", (i > 1 ? ", " : ""), c[i], fig4[c[i]]
    printf "},\n"
    printf "  \"proxy_call\": {\n"
    first = 1
    for (name in ns) {
        printf "%s    \"%s\": {\"ns_per_call\": %s, \"allocs_per_call\": %s",
               (first ? "" : ",\n"), name, ns[name], allocs[name]
        if (trips[name] != "") printf ", \"ipc_roundtrips_per_op\": %s", trips[name]
        if (mbs[name]   != "") printf ", \"mb_per_s\": %s", mbs[name]
        printf "}"
        first = 0
    }
    printf "\n  },\n"
    if (ns["info-cached"] + 0 > 0)
        printf "  \"info_cache_speedup\": %.1f,\n",
               ns["info-forwarded"] / ns["info-cached"]
    if (heal_chunks != "")
        printf "  \"scrub_heal\": {\"healed_chunks\": %s, \"healed_mb\": %s, \"scrub_ms\": %s},\n",
               heal_chunks, heal_mb, scrub_ms
    printf "  \"benchtime\": \"%s\"\n", BT
    printf "}\n"
}' BT="$benchtime" "$tmp" >"$out"

echo "bench.sh: wrote $out"
cat "$out"

# BENCH_pr6.json: the fleet-scheduler acceptance experiment — 1000 bursty
# jobs, migration-as-load-balancing against the no-migration baseline.
# Migration must win on BOTH throughput and p99 completion latency.
awk '
function grab(line, unit,   i, n, f) {
    n = split(line, f, /[ \t]+/)
    for (i = 1; i < n; i++) if (f[i+1] == unit) return f[i]
    return ""
}
/^BenchmarkFleetBursty\/no-migration/ {
    base_thr = grab($0, "jobs/s"); base_p50 = grab($0, "p50-ms")
    base_p99 = grab($0, "p99-ms"); base_max = grab($0, "max-ms")
    base_evt = grab($0, "evictions")
}
/^BenchmarkFleetBursty\/migration/ {
    mig_thr = grab($0, "jobs/s"); mig_p50 = grab($0, "p50-ms")
    mig_p99 = grab($0, "p99-ms"); mig_max = grab($0, "max-ms")
    mig_migrations = grab($0, "migrations"); mig_evt = grab($0, "evictions")
}
END {
    printf "{\n"
    printf "  \"jobs\": 1000,\n"
    printf "  \"no_migration\": {\"throughput_jobs_per_s\": %s, \"p50_ms\": %s, \"p99_ms\": %s, \"max_ms\": %s, \"evictions\": %s},\n",
           base_thr, base_p50, base_p99, base_max, base_evt
    printf "  \"migration\": {\"throughput_jobs_per_s\": %s, \"p50_ms\": %s, \"p99_ms\": %s, \"max_ms\": %s, \"migrations\": %s, \"evictions\": %s},\n",
           mig_thr, mig_p50, mig_p99, mig_max, mig_migrations, mig_evt
    printf "  \"throughput_gain\": %.2f,\n", mig_thr / base_thr
    printf "  \"p99_improvement\": %.2f,\n", base_p99 / mig_p99
    printf "  \"migration_wins_both\": %s\n", (mig_thr + 0 > base_thr + 0 && mig_p99 + 0 < base_p99 + 0) ? "true" : "false"
    printf "}\n"
}' "$tmp6" >"$out6"

echo "bench.sh: wrote $out6"
cat "$out6"

# BENCH_pr7.json: the partial-restart acceptance experiment — recover one
# killed rank at world sizes 8/64/256, partial restart (per-rank segment
# fetch + sender-log replay) against the full global rollback. Partial
# recovery vtime must stay roughly flat as the world grows and beat the
# full rollback by >= 2x at 256 ranks.
awk '
function grab(line, unit,   i, n, f) {
    n = split(line, f, /[ \t]+/)
    for (i = 1; i < n; i++) if (f[i+1] == unit) return f[i]
    return ""
}
/^BenchmarkPartialRestart\/partial-/ {
    size = $1
    sub(/^BenchmarkPartialRestart\/partial-/, "", size)
    sub(/-[0-9]+$/, "", size)
    part[size]  = grab($0, "recovery-vtime-ms")
    pmb[size]   = grab($0, "restored-MB")
    stall[size] = grab($0, "survivor-stall-ms")
    sizes = sizes (sizes == "" ? "" : " ") size
}
/^BenchmarkPartialRestart\/full-/ {
    size = $1
    sub(/^BenchmarkPartialRestart\/full-/, "", size)
    sub(/-[0-9]+$/, "", size)
    full[size] = grab($0, "recovery-vtime-ms")
    fmb[size]  = grab($0, "restored-MB")
}
END {
    printf "{\n"
    printf "  \"recovery_vtime_ms\": {\n"
    n = split(sizes, s, " ")
    for (i = 1; i <= n; i++)
        printf "%s    \"%s\": {\"partial\": %s, \"full_rollback\": %s, \"speedup\": %.1f}",
               (i > 1 ? ",\n" : ""), s[i], part[s[i]], full[s[i]], full[s[i]] / part[s[i]]
    printf "\n  },\n"
    printf "  \"restored_mb\": {\n"
    for (i = 1; i <= n; i++)
        printf "%s    \"%s\": {\"partial\": %s, \"full_rollback\": %s}",
               (i > 1 ? ",\n" : ""), s[i], pmb[s[i]], fmb[s[i]]
    printf "\n  },\n"
    printf "  \"survivor_stall_ms\": {"
    for (i = 1; i <= n; i++)
        printf "%s\"%s\": %s", (i > 1 ? ", " : ""), s[i], stall[s[i]]
    printf "},\n"
    big = s[n]; small = s[1]
    printf "  \"partial_flat_8_to_256\": %s,\n",
           (part[big] + 0 < 2 * (part[small] + 0)) ? "true" : "false"
    printf "  \"partial_speedup_at_%s\": %.1f,\n", big, full[big] / part[big]
    printf "  \"partial_wins_2x_at_%s\": %s\n", big,
           (full[big] + 0 >= 2 * (part[big] + 0)) ? "true" : "false"
    printf "}\n"
}' "$tmp7" >"$out7"

echo "bench.sh: wrote $out7"
cat "$out7"

# BENCH_pr8.json: the shared-memory ring transport acceptance — the ring
# arms of the proxy microbenchmarks against their framed baselines. The
# read-1MB-ring bandwidth must be >= 2x the pooled framed read, and the
# setargs loop (3 setarg + launch + finish) must cost one round trip on
# either transport: the submission queue sits above both.
awk '
function grab(line, unit,   i, n, f) {
    n = split(line, f, /[ \t]+/)
    for (i = 1; i < n; i++) if (f[i+1] == unit) return f[i]
    return ""
}
/^BenchmarkProxyCallOverhead\// {
    name = $1
    sub(/^BenchmarkProxyCallOverhead\//, "", name)
    sub(/-[0-9]+$/, "", name)
    ns[name]     = grab($0, "ns/op")
    trips[name]  = grab($0, "ipc-roundtrips/op")
    mbs[name]    = grab($0, "MB/s")
}
END {
    printf "{\n"
    printf "  \"read_1mb\": {\"framed_pooled_mb_per_s\": %s, \"ring_mb_per_s\": %s, \"ring_speedup\": %.2f, \"ring_2x\": %s},\n",
           mbs["read-1MB-pooled"], mbs["read-1MB-ring"],
           mbs["read-1MB-ring"] / mbs["read-1MB-pooled"],
           (mbs["read-1MB-ring"] + 0 >= 2 * (mbs["read-1MB-pooled"] + 0)) ? "true" : "false"
    printf "  \"write_1mb\": {\"framed_raw_mb_per_s\": %s, \"ring_mb_per_s\": %s, \"ring_speedup\": %.2f},\n",
           mbs["write-1MB-raw"], mbs["write-1MB-ring"],
           mbs["write-1MB-ring"] / mbs["write-1MB-raw"]
    printf "  \"launch_ns\": {\"framed\": %s, \"ring\": %s},\n",
           ns["launch-framed"], ns["launch-ring"]
    printf "  \"setargs_loop\": {\"framed_roundtrips_per_op\": %s, \"ring_roundtrips_per_op\": %s, \"one_roundtrip\": %s},\n",
           trips["setargs-framed"], trips["setargs-ring"],
           (trips["setargs-framed"] + 0 == 1 && trips["setargs-ring"] + 0 == 1) ? "true" : "false"
    printf "  \"benchtime\": \"%s\"\n", BT
    printf "}\n"
}' BT="$benchtime" "$tmp" >"$out8"

echo "bench.sh: wrote $out8"
cat "$out8"

# BENCH_pr9.json: the erasure-coded checkpoint fleet acceptance — a
# degraded read with m nodes down must stay close to the healthy read,
# Rebuild must restore redundancy at useful throughput, cross-job dedup
# must pay for itself, and the (k+m)/k physical overhead must beat PR 4's
# full-replica baseline (fleet_overhead_beats_replica: fleet < 2x and
# strictly below the replica arm on the same payload).
awk '
function grab(line, unit,   i, n, f) {
    n = split(line, f, /[ \t]+/)
    for (i = 1; i < n; i++) if (f[i+1] == unit) return f[i]
    return ""
}
/^BenchmarkErasureFleet\/degraded-read/ {
    healthy_ms = grab($0, "healthy-read-ms")
    degraded_ms = grab($0, "degraded-read-ms")
    slowdown = grab($0, "degraded-slowdown-x")
}
/^BenchmarkErasureFleet\/rebuild/ {
    reb_mb = grab($0, "rebuilt-MB"); reb_ms = grab($0, "rebuild-ms")
    reb_mbs = grab($0, "rebuild-MB/s")
}
/^BenchmarkErasureFleet\/cross-job-dedup/ {
    dedup_jobs = grab($0, "jobs"); dedup_ratio = grab($0, "dedup-ratio-x")
}
/^BenchmarkErasureFleet\/overhead-vs-replica/ {
    fleet_x = grab($0, "fleet-overhead-x"); replica_x = grab($0, "replica-overhead-x")
}
END {
    printf "{\n"
    printf "  \"degraded_read\": {\"healthy_ms\": %s, \"degraded_ms\": %s, \"slowdown\": %s},\n",
           healthy_ms, degraded_ms, slowdown
    printf "  \"rebuild\": {\"rebuilt_mb\": %s, \"rebuild_ms\": %s, \"mb_per_s\": %s},\n",
           reb_mb, reb_ms, reb_mbs
    printf "  \"cross_job_dedup\": {\"jobs\": %s, \"ratio\": %s},\n",
           dedup_jobs, dedup_ratio
    printf "  \"storage_overhead\": {\"fleet_x\": %s, \"replica_x\": %s},\n",
           fleet_x, replica_x
    printf "  \"fleet_overhead_beats_replica\": %s\n",
           (fleet_x + 0 < 2 && fleet_x + 0 < replica_x + 0) ? "true" : "false"
    printf "}\n"
}' "$tmp9" >"$out9"

echo "bench.sh: wrote $out9"
cat "$out9"
