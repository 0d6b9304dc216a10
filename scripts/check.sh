#!/bin/sh
# Tier-1 gate: formatting, vet, build, and the full test suite under the
# race detector. CI and pre-merge both run exactly this script.
set -eu
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi

go vet ./...
go build ./...
# The bit-identity matrix's five soaks run in gates of their own below
# (the loaded step, ten times, and the checkpoint step, five times); the
# broad name patterns that would also select them skip them.
soaks='^(TestTransportParitySoak|TestFaultAppsBitIdentical|TestTransportParityRingFaultKinds|TestFaultAppsIncrementalBitIdentical|TestFleetStoreAppsDegradedBitIdentical)$'
# Fail fast on a dead gate: every alternative of every -run and -fuzz
# pattern in this script must select at least one test of its packages
# that the line's -skip leaves in, so that a renamed test cannot turn a
# gate, or one alternative of it, into a silent no-op. `go test -list`
# sees top-level names only, so a subtest pattern is checked up to its
# first "/"; an alternative of ^(a|b)$ is checked as ^a$.
awk '/^[ \t]*#/ { next }
    /\\$/ { line = line substr($0, 1, length($0) - 1); next }
    { print line $0; line = "" }' scripts/check.sh |
    awk '/go test .*-(run|fuzz)[ =]/ {
        pat = ""; skip = "-"; pkgs = ""
        for (i = 1; i <= NF; i++) {
            if ($i == "-run") pat = $(i + 1)
            else if ($i == "-skip") skip = $(i + 1)
            else if ($i ~ /^-(run|fuzz)=/) pat = substr($i, index($i, "=") + 1)
            else if ($i ~ /^\.\//) pkgs = pkgs " " $i
        }
        gsub(/\047/, "", pat)
        print pat, skip, pkgs
    }' |
    while read -r pat skip pkgs; do
        # shellcheck disable=SC2086 # pkgs is a list of packages
        tests=$(go test -list . $pkgs | grep -E '^(Test|Fuzz|Benchmark|Example)')
        if [ "$skip" != - ]; then
            eval "skip=$skip"
            tests=$(printf '%s\n' "$tests" | grep -Ev "$skip" || true)
        fi
        top=${pat%%/*}
        case $top in
        '^('*')$') alts=${top#'^('} && alts=${alts%')$'} && anchor='^%s$' ;;
        *) alts=$top && anchor='%s' ;;
        esac
        for alt in $(printf '%s' "$alts" | tr '|' ' '); do
            # shellcheck disable=SC2059 # anchor is the format
            alt=$(printf "$anchor" "$alt")
            if ! printf '%s\n' "$tests" | grep -Eq "$alt"; then
                echo "check.sh: -run '$pat' selects no test for '$alt' in $pkgs" >&2
                exit 1
            fi
        done
    done
go test -race ./...
# Determinism gate: results and virtual times may depend on neither the
# scheduler nor the core count. The apps golden (every bundled program's
# final vtime and buffer digests, recorded from the tree-walker at
# GOMAXPROCS=1, compared at 1, 2 and 8 procs in one process, the test
# setting each) and the executor-vs-tree-walker differential run repeatedly
# at 1 and 8 procs, and the bit-identity matrix's rows that take no
# checkpoint (both transports at both queue depths, clean and under the
# proxy-kill plans), which conflicting global stores used to break, run ten
# times while two busy loops compete for the CPUs.
for procs in 1 8; do
    GOMAXPROCS=$procs go test -run 'AppsGolden|Differential' -race -count=3 \
        ./internal/clc/ ./internal/core/
    # The restore schedule: when each segment of a read was there, the
    # bounds the read's three lanes (disks, link, CPU) keep it within, and
    # what a restore that rebuilds behind its read waits for and costs, are
    # the same at every GOMAXPROCS and on every repeat (ten at each count).
    # So are the write's lanes (CPU, link, disks) and what a Put leaves on
    # the disks and reports, also when its pure half runs on workers ahead
    # of the caller and nodes crash under it.
    GOMAXPROCS=$procs go test -run 'TestSegmentsReadyInOrder|TestReadTimelineBounds|TestWriteTimelineBounds|TestPutIndependentOfProcs|TestPutPipelineMatchesSerial' -race -count=10 ./internal/store/
    GOMAXPROCS=$procs go test -run 'TestRestoreOverlaps|TestRestoreShortRead' -race ./internal/core/
    # The one seeded fault schedule, and each injector's schedule pinned
    # event for event, are the same at every GOMAXPROCS and on every repeat.
    GOMAXPROCS=$procs go test -run 'Pinned' -race -count=3 \
        ./internal/ipc/ ./internal/proc/ ./internal/mpi/
    GOMAXPROCS=$procs go test -race -count=3 ./internal/fault/
done
yes >/dev/null &
load1=$!
yes >/dev/null &
load2=$!
trap 'kill $load1 $load2 2>/dev/null' EXIT
go test -run '^(TestTransportParitySoak|TestFaultAppsBitIdentical|TestTransportParityRingFaultKinds)$' -count=10 -race ./internal/core/
kill $load1 $load2
trap - EXIT
# The matrix's checkpoint rows: a full checkpoint into one disk, incremental
# and speculative ones into a mirror under a disk fault plan and the
# proxy-kill plan, and an incremental one into a 4+2 fleet restored with
# every loss pattern of up to two nodes, each restore bit-identical.
go test -run '^(TestFaultAppsIncrementalBitIdentical|TestFleetStoreAppsDegradedBitIdentical)$' -count=5 -race ./internal/core/
# Front-end fuzz: lexer, parser and lowering never panic on arbitrary source.
go test -fuzz=FuzzCompile -fuzztime=10s ./internal/clc
# Store decoder fuzz: manifests, CHECLSHD shard records and the packs of
# records never panic, fail typed (a torn pack yields the records before
# the tear), and an accepted manifest is safe to hand to the read path.
go test -fuzz=FuzzDecodeManifest -fuzztime=10s ./internal/store
go test -fuzz=FuzzDecodeShard -fuzztime=10s ./internal/store
go test -fuzz=FuzzDecodePack -fuzztime=10s ./internal/store
# Chunker fuzz: the skip-ahead chunker cuts arbitrary data exactly where
# the byte-at-a-time oracle does, however the data is partitioned into a
# slice list (minimising a new input re-runs both, so it gets a short leash).
go test -fuzz=FuzzChunkerSplit -fuzztime=10s -fuzzminimizetime=1s ./internal/store
# Read-path fuzz: an arbitrary blob, split at arbitrary points and claimed
# to be of an arbitrary size, reads through the slice-list inflater as it
# does in one piece through the first-written oracle — same bytes, same
# error, same virtual time — and never writes outside its destination.
go test -fuzz=FuzzVerifyParts -fuzztime=10s -fuzzminimizetime=1s ./internal/store
# Command-stream decoder fuzz: the frame decoder (every API call is a
# frame) never panics, never reads past its input, refuses with a typed
# error, and the server's executor survives whatever it accepted; the
# client's reply decoder, and the decoding of every result type, does the
# same on arbitrary replies.
go test -fuzz=FuzzDecodeBatch -fuzztime=10s ./internal/proxy
go test -fuzz=FuzzDecodeReply -fuzztime=10s ./internal/proxy
# Image and frame-header decoder fuzz: the checkpoint-image decoder, for a
# file and for a store image alike, refuses arbitrary bytes with a
# cpr.ImageError, each reader refuses the other's version, and what it
# accepts survives its own encoding; a server fed arbitrary bytes as a request stream never
# allocates for a header above the frame limit and reports
# ErrTruncatedFrame/ErrFrameTooLarge only where the stream has that defect.
go test -fuzz=FuzzDecodeImage -fuzztime=10s ./internal/cpr
go test -fuzz=FuzzFrameHeader -fuzztime=10s ./internal/ipc
# Fault-tolerance soak: the fault-injection and failover tests run
# repeatedly under the race detector.
go test -run Fault -skip "$soaks" -count=5 -race ./internal/...
# Durability gate: the disk-fault, interrupted-operation and self-healing
# tests (on one disk, 1+0, and on a disk with a mirror, 1+1) run repeatedly
# under the race detector, and the store CLI must stay clean both fault-free
# and under a seeded disk fault plan; what the two CLI runs print is pinned
# by TestStoreFleetGolden (tier-1). The backend conformance table (one
# store type, every geometry), the nonsense-manifest rows and the store
# golden ride along by name, as do the tests of a clean claim, which the
# store checks against the bytes: a segment claimed clean whose bytes
# changed is stored dirty and counted (1+0 and 4+2), a region or buffer
# flagged clean whose bytes changed restores the current generation
# bit-identical, and a generation's image head is its own, so a restore
# reads no older generation's pack for it. So does the test that no store
# operation writes into a file the filesystem lent it. So do the
# two tests that a failure leaves nothing half torn down: a destructive
# checkpoint whose dump fails keeps its proxy, and a restore that fails
# after its image loaded leaves no process on the target node; and the
# destructive checkpoint under DMTCP, which needs the proxy gone before
# the dump. So does the test that every rebind (a restore, a failover, a
# destructive checkpoint) gives each object the references its record
# counts.
go test -run 'DiskFault|Durable|Scrub|Heal|Degraded|Interrupted|Replica|Mirror|Fsck|FaultPositionSweep|ReclaimsCapacity|TestBackendConformance|TestManifestDecoderRejectsNonsense|TestStoreGolden|TestScribbledCleanSegmentStoredDirty|TestStoreNeverWritesWhatItReads|TestWronglyCleanRegionRestoresCurrent|TestWronglyCleanBufferRestoresCurrent|TestStoreHeadIsEachGenerationsOwn|TestDestructiveFailedCheckpointKeepsProxy|TestDestructiveCheckpointUnderDMTCP|TestCrossVendorBinaryProgramFailsToMigrate|TestRebindKeepsReferenceCounts' -skip "$soaks" -count=3 -race \
    ./internal/proc/ ./internal/store/ ./internal/cpr/ ./internal/core/ ./internal/mpi/
go run ./cmd/checl-inspect store ls >/dev/null
go run ./cmd/checl-inspect store fsck >/dev/null
go run ./cmd/checl-inspect -disk-faults 7 store scrub >/dev/null
# Hot-path gate: the proxy hot path (raw frames, the submission queue and
# its command frames, info caches, the proxy client's call counters)
# crosses goroutines in ipc/proxy/core, so its tests get their own
# repeated race-detector pass.
go vet ./internal/ipc/ ./internal/proxy/ ./internal/core/
go test -run 'Raw|Batch|Queue|Cache|StatsRace' -count=3 -race \
    ./internal/ipc/ ./internal/proxy/ ./internal/core/
# Concurrent-checkpoint gate: dirty-buffer tracking and the multi-stream
# drain cross goroutines, so their tests, and those of the overlapped
# store write, run repeatedly under the race detector, as do the tests that
# a clean claim names only the store and job of the last committed
# checkpoint (a failed Put, a flat checkpoint, another job or another store
# in between). The ablation run
# keeps the full-vs-incremental ordering honest, and the inspect demo
# exercises the dirty/clean split end to end.
go test -run 'Incremental|ParallelDrainMatchesSerial|DrainLandsInPlace|Overlapped|BackgroundWrite|Released|CleanClaim' -skip "$soaks" -count=3 -race \
    ./internal/core/
go test -run 'TestAblations' -race ./internal/harness/
go run ./cmd/checl-inspect -incremental -scale 0.2 >/dev/null
# Fleet-scheduler gate: the 500-job bursty soak (with sampled jobs going
# through the real core+store eviction path) and the planner/fleet
# determinism tests run under the race detector, and the operator view
# must render a sampled scenario cleanly.
go test -run 'TestFleetSampledSoak|TestFleetDeterminism|TestFleetMigrationBeatsBaseline|TestFleetRealEvictionBitIdentical' \
    -count=2 -race ./internal/fleet/
go test -run 'TestPlanDeterministicAcrossInputOrders' -count=3 -race ./internal/sched/
go run ./cmd/checl-inspect -fleet-jobs 200 -fleet-sample 40 fleet >/dev/null
# Partial-restart gate: the seeded rank-kill soak sweeps the kill across
# every MPI-op position of a victim rank (bit-identical completion, one
# partial restore each), the collectives/two-deaths/log-bound tests cover
# the replay protocol edges, and the inspect demo drives a kill+restore
# end to end. All repeatedly under the race detector: RestoreRank runs
# concurrently with parked survivors by construction.
go test -run 'TestRankKillPositionSweep|TestPartialRestore|TestCollectivesDuringRecovery|TestTwoRanksDieSameEpoch|TestMessageLogBounded|TestRankDownWithoutLogging|TestRankFaultInjector' \
    -count=3 -race ./internal/mpi/
go run ./cmd/checl-inspect mpi >/dev/null
# Ring-transport gate: the lock-free SPSC queues and the checkpoint drain
# over the ring cross goroutines by construction, so the ring unit tests,
# the one replay contract on both carriers and the cross-transport
# checkpoint parity tests run repeatedly under the race detector (the
# matrix's ring rows run in the loaded step above). The ring is the default
# transport, so every other inspect smoke runs on it; this one proves the
# CLI can still drive a full run+checkpoint over the framed stream.
go test -run 'Ring|TransportParity|ReplayContract' -skip "$soaks" -count=3 -race \
    ./internal/ipc/ ./internal/proxy/ ./internal/core/
go run ./cmd/checl-inspect -transport framed -scale 0.2 >/dev/null
# Erasure-fleet gate: the sharded checkpoint fleet's node-loss surface —
# the (node, fault-position) kill sweep, every-loss-pattern degraded
# reads, Scrub (the one repair pass, paced), the seeded node-fault soak,
# the backend conformance table (its fleet columns: healthy and two nodes
# down), and the MPI restores through the fleet with m nodes down — runs
# repeatedly under the race detector (Scrub and the soak fan out
# goroutines per node);
# the apps' restores through it are the matrix's fleet row, above.
# The TestFleet pattern also runs the pack layout's own tests: the Put
# crash-position sweep (TestFleetPutCrashPositionSweep), the reopen over a
# torn pack and a heal pack (TestFleetReopenServesWithoutAWrite), GC
# compaction and its interrupted rerun; TestNodeFault covers one rot
# flip costing one record.
# The inspect smoke drives checkpoint -> scrub -> degraded read -> node
# replacement -> Scrub end to end under a seeded node fault plan, and
# its output is pinned by TestStoreFleetGolden (tier-1).
go test -run 'TestFleet|TestNodeKillPositionSweep|TestNodeFault|TestBackendConformance|TestEngineErrorsNameNoPlacement' -count=2 -race \
    ./internal/store/ ./internal/proc/
go test -run 'TestGlobalSnapshotThroughErasureFleet' -count=2 -race ./internal/mpi/
go test -run 'TestFleetErasureStoreSoak' -race ./internal/fleet/
go run ./cmd/checl-inspect -node-faults 11 store fleet >/dev/null
# Virtual-metric gate: virtual time is deterministic, so "no metric moved"
# is checked exactly. Each of the frozen benchmark's four workloads must
# pass its own checks (exit 0) in a fresh process at the default seed, and
# its virtual metrics must equal scripts/bench_expect.txt to the last
# digit. What the file pins: checkpoint I/O costs bytes, not files
# (ckpt_stall_vms 147; 172 with the write's CPU, link and disks charged in
# series, 7 709 with one file per shard); a round trip per
# sync point, not per API call, on the shared-memory ring (call_storm
# checl_overhead_pct 4.5; 112 on the framed pipe, 1 139 with a round trip
# per call). A change that moves one on purpose re-records the file from
# the lines this gate prints, in its own commit.
virt=$(mktemp)
trap 'rm -f "$virt"' EXIT
for w in suite call_storm ckpt_cycle recover; do
    out=$(go run ./bench -workload "$w" -seconds 1)
    echo "$out" | awk -v w="$w" '$1 ~ /^(vtime_ms|ckpt_stall_vms|restore_vms|migrate_vms|checl_overhead_pct|stored_per_user_byte)$/ { print w, $1, $2 }' >>"$virt"
    case $w in
    ckpt_cycle) ckpt=$out ;;
    recover) recover=$out ;;
    esac
done
if ! diff -u scripts/bench_expect.txt "$virt"; then
    echo "check.sh: virtual metrics differ from scripts/bench_expect.txt" >&2
    exit 1
fi
rm -f "$virt"
trap - EXIT
# Ablation gate: the design ablation table runs on the virtual clock too, so
# every row is checked exactly against scripts/ablations_expect.txt. A change
# that moves a row on purpose re-records the file, in its own commit.
if ! go run ./cmd/checl-bench ablations | diff -u scripts/ablations_expect.txt -; then
    echo "check.sh: ablation table differs from scripts/ablations_expect.txt" >&2
    exit 1
fi
# Figure gate: the paper's Table I and Figs. 4-8 were measured over a framed
# pipe, and the harness pins that transport for them, so their output must
# equal scripts/figures_expect.txt byte for byte whatever the default
# transport is. The run is deterministic at any GOMAXPROCS.
if ! go run ./cmd/checl-bench table1 fig4 fig5 fig6 fig7 fig8 | diff -u scripts/figures_expect.txt -; then
    echo "check.sh: paper figures differ from scripts/figures_expect.txt" >&2
    exit 1
fi
# Host-clock gate on the ckpt_cycle run: a checkpoint is handed to the
# store as views of the process's regions and copied only where a format or
# the filesystem model demands it, and the filesystem model lends what it
# stores instead of copying it on every read. One pass allocates ~330 MB on
# the ring (~430 while every read of a pack copied it, ~565 on the framed
# pipe, whose gob frames and response scratch the ring does not have) and
# allocated 1 339 with a copy per layer (snapshot, image, compress buffer,
# shard, pack growth), so a return to copy-per-layer fails here. So does a
# drain that gathers on the server or bounces on the client: 1 136 with
# both, and a default that is the framed pipe again, and so does a
# filesystem read that copies again.
alloc_gate() {
    echo "$2" | awk -v w="$1" -v max="$3" '$1 == "host_alloc_mb" { seen = 1; if ($2 > max) { print "check.sh: " w " host_alloc_mb " $2 " > " max > "/dev/stderr"; exit 1 } }
        END { if (!seen) { print "check.sh: bench printed no host_alloc_mb for " w > "/dev/stderr"; exit 1 } }'
}
alloc_gate ckpt_cycle "$ckpt" 360
# The same on the way back, on the recover run: a restore allocates the
# payload its chunks inflate into — which the process's regions and the
# buffers' staging copies then are — besides what the device model and the
# bench's own read-back allocate; the filesystem lends its packs. One pass
# of six restores allocates ~653 MB (788 while every read of a pack copied
# it, 835 while every restore decoded every generation's manifest) and
# allocated 1 660 with a copy per layer (joined blob, chunk buffer, payload,
# regions, staging).
alloc_gate recover "$recover" 700
# Speculative-checkpoint gate: the epoch state machine's drain streams,
# validation and one-pass re-copy of the violated buffers cross goroutines
# (the speculative copies ride the same multi-stream drain), so the epoch
# tests, the conservative-fallback and abort paths, and the speculative
# fault soak run repeatedly under the race detector. The inspect smoke
# drives a speculative incremental checkpoint end to end.
go test -run 'Speculat|Epoch' -count=3 -race ./internal/core/
go test -run 'TestCoordinatedSpeculativeCheckpoint' -count=2 -race ./internal/mpi/
go run ./cmd/checl-inspect -incremental -speculative -scale 0.2 >/dev/null
echo "check.sh: all green"
