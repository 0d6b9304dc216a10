// Package mpi is a minimal message-passing substrate in the spirit of
// Open MPI, sufficient to reproduce the paper's MPI experiments: ranks
// mapped onto simulated cluster nodes, point-to-point Send/Recv with
// NIC-modelled transfer costs, Barrier/Bcast/Allreduce collectives, and
// Hursey-style coordinated checkpointing where per-node local snapshots
// are aggregated into one global snapshot on NFS (§IV-B, Fig. 6).
//
// On top of the coordinated checkpoints the package implements partial
// restart: with Options.LogMessages enabled, every Send between two
// committed generations is appended to an in-memory per-(sender,receiver)
// log, so a single failed rank can be revived from its own segment of the
// last committed global snapshot (RestoreRank) while the survivors keep
// running — logged inbound traffic is replayed in sequence order, the
// recovering rank's re-executed sends are suppressed by sequence number,
// and the failure-aware clock barrier lets survivors park instead of
// deadlock until the rank rejoins. See DESIGN.md §12.
package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"checl/internal/core"
	"checl/internal/proc"
	"checl/internal/store"
	"checl/internal/vtime"
)

// ErrRankDown is wrapped by every operation addressed to (or stalled on)
// a dead rank that cannot be partially restored: Send/Recv to the dead
// rank, and any Barrier, once message logging is off. Match with
// errors.Is.
var ErrRankDown = errors.New("rank is down")

// RankKilled is the error a fault-injected MPI operation returns on the
// victim rank: the rank's process (and its proxy) are dead by the time
// the caller sees it. Survivors do not see RankKilled — they park (with
// logging) or get ErrRankDown (without).
type RankKilled struct {
	Rank int
	Op   int        // the victim's MPI-operation count at the kill
	At   vtime.Time // victim clock when the kill landed
}

func (e *RankKilled) Error() string {
	return fmt.Sprintf("mpi: rank %d killed at op %d (%s)", e.Rank, e.Op, e.At)
}

// PartialRestoreUnsupported is the typed degraded path of RestoreRank:
// rank-level recovery cannot proceed and the job needs a full
// RestoreGlobalFromStore rollback. It latches the world as failed so
// parked survivors unwind with it instead of waiting forever.
type PartialRestoreUnsupported struct {
	Rank   int
	Reason string
}

func (e *PartialRestoreUnsupported) Error() string {
	return fmt.Sprintf("mpi: partial restore of rank %d unsupported: %s (full rollback required)", e.Rank, e.Reason)
}

// ReplayDiverged reports a recovering rank re-executing a send whose
// payload differs from what the log recorded for that sequence number —
// a determinism violation, not a recoverable fault.
type ReplayDiverged struct {
	From, To, Tag int
	Seq           int64
}

func (e *ReplayDiverged) Error() string {
	return fmt.Sprintf("mpi: replayed send %d->%d tag %d seq %d diverged from the message log",
		e.From, e.To, e.Tag, e.Seq)
}

// Options configures a World beyond its size.
type Options struct {
	// LogMessages enables sender-side message logging between coordinated
	// checkpoints — the substrate RestoreRank replays from. Without it a
	// rank death is a whole-job failure (every operation returns an error
	// wrapping ErrRankDown).
	LogMessages bool
	// Fault optionally injects seeded rank kills at MPI operation
	// boundaries.
	Fault *RankFaultInjector
}

// rankState tracks a rank through the failure/recovery cycle.
type rankState int

const (
	rankAlive rankState = iota
	rankDown
	rankRestoring
)

// message is one in-flight point-to-point payload.
type message struct {
	from   int
	tag    int
	seq    int64 // per-(from,to) channel sequence number, 1-based
	data   []byte
	sentAt vtime.Time // sender clock at send time
}

// commitRecord is the world-side bookkeeping snapshot taken atomically
// with the completion of a coordinated checkpoint's final barrier. A
// partially restored rank resumes from exactly this point.
type commitRecord struct {
	manifest string    // store manifest ID, "" for flat-NFS checkpoints
	seq      [][]int64 // sendSeq at commit
	barGen   int64     // completed-barrier count at commit
}

// World is one MPI job: size ranks mapped round-robin onto cluster nodes.
//
// One mutex guards all message-passing state — rank inboxes, sequence
// counters, sender logs, and the clock barrier — with per-rank conds for
// receive wakeups and a shared cond for barrier and parking wakeups. The
// coarse lock is deliberate: operations under it are queue edits and
// counter bumps, while all virtual-time charging happens outside it.
type World struct {
	cluster *proc.Cluster
	opts    Options
	ranks   []*Rank

	mu      sync.Mutex
	barCond *sync.Cond // barrier waiters + senders parked on a restoring rank
	quiet   *sync.Cond // a recovery waiting for the other ranks to park
	states  []rankState
	down    int   // ranks currently Down or Restoring
	failed  error // latched fatal world error; every operation returns it

	// Failure-aware clock barrier: per-rank absolute arrival counters
	// instead of a waiting count, so a dead rank freezes the barrier (its
	// counter stops) and a restored rank re-arriving for generations that
	// completed before its death passes straight through at the recorded
	// completion time (catch-up).
	arrivals        []int64      // arrivals[r] = how many barriers rank r has entered
	barDone         int64        // barrier generations completed
	barBase         int64        // generation barTimes[0] corresponds to
	barTimes        []vtime.Time // completion times of gens [barBase, barDone)
	barMax          vtime.Time   // latest arrival seen for the generation in progress
	havePending     bool         // a commit rides on the generation in progress
	pendingGen      int64
	pendingManifest string

	// Sender-side message logging (LogMessages).
	sendSeq   [][]int64   // [from][to] last issued channel seq
	highWater [][]int64   // [from][to] seq at from's death; re-sends at or below are duplicates
	logs      [][]chanLog // [from][to]
	logStats  logCounters

	gen    int // committed coordinated generations
	commit commitRecord
	stall  vtime.StallTracker
	rec    recoveryCounters

	// First barrier generation to complete after the latest RestoreRank:
	// survivors' clock advance there is recovery stall (see await).
	stallGen  int64
	stallRank int
}

type recoveryCounters struct {
	kills         int
	partials      int
	suppressed    int
	replayedMsgs  int
	replayedBytes int64
}

// Rank is one MPI process.
type Rank struct {
	world       *World
	rank        int
	size        int
	node        *proc.Node
	proc        *proc.Process // current incarnation; world.mu
	cond        *sync.Cond    // receive waiters; on world.mu
	queue       []message     // inbox; world.mu
	incarnation int           // bumped by RestoreRank; world.mu
	ops         int           // MPI operations issued (fault-plan positions); world.mu
	// parkedOn is the cond the rank waits on in an MPI operation, nil while
	// it runs or once a wake of that cond has let it go; inBody says that
	// RunWithRecovery is running its body. Both world.mu.
	parkedOn *sync.Cond
	inBody   bool
}

// NewWorld creates size ranks over the cluster, one process per rank,
// placed round-robin across nodes.
func NewWorld(cluster *proc.Cluster, size int) (*World, error) {
	return NewWorldWithOptions(cluster, size, Options{})
}

// NewWorldWithOptions is NewWorld with message logging and fault
// injection configurable.
func NewWorldWithOptions(cluster *proc.Cluster, size int, opts Options) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size %d", size)
	}
	if len(cluster.Nodes) == 0 {
		return nil, fmt.Errorf("mpi: cluster has no nodes")
	}
	w := &World{
		cluster:   cluster,
		opts:      opts,
		states:    make([]rankState, size),
		arrivals:  make([]int64, size),
		sendSeq:   make([][]int64, size),
		highWater: make([][]int64, size),
		logs:      make([][]chanLog, size),
		stallGen:  -1,
		stallRank: -1,
	}
	w.barCond = sync.NewCond(&w.mu)
	w.quiet = sync.NewCond(&w.mu)
	if opts.Fault != nil {
		opts.Fault.bind(size)
	}
	for i := 0; i < size; i++ {
		w.sendSeq[i] = make([]int64, size)
		w.highWater[i] = make([]int64, size)
		w.logs[i] = make([]chanLog, size)
		node := cluster.Nodes[i%len(cluster.Nodes)]
		r := &Rank{
			world: w,
			rank:  i,
			size:  size,
			proc:  node.Spawn(fmt.Sprintf("mpi-rank-%d", i)),
			node:  node,
		}
		r.cond = sync.NewCond(&w.mu)
		w.ranks = append(w.ranks, r)
		w.watchRank(r)
	}
	return w, nil
}

// watchRank registers the death hook for the rank's current process
// incarnation.
func (w *World) watchRank(r *Rank) {
	rank, inc := r.rank, r.incarnation
	r.proc.OnExit(func() { w.rankExited(rank, inc) })
}

// rankExited is the process-death hook: it runs whatever killed the
// rank's process — a fault-injected op, or an external Kill.
func (w *World) rankExited(rank, incarnation int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	r := w.ranks[rank]
	if r.incarnation != incarnation || w.states[rank] != rankAlive {
		return // a stale hook from a replaced incarnation
	}
	w.states[rank] = rankDown
	w.down++
	w.rec.kills++
	// Everything sent up to this instant was delivered (or logged); any
	// re-execution after restore re-issues exactly these sequence numbers,
	// which Send suppresses as duplicates.
	copy(w.highWater[rank], w.sendSeq[rank])
	// In-flight inbound messages die with the process. The sender logs
	// still hold every undelivered or unconsumed one for replay.
	r.queue = nil
	if !w.opts.LogMessages {
		w.failLocked(fmt.Errorf("mpi: rank %d died: %w", rank, ErrRankDown))
	}
	w.broadcastLocked()
}

// failLocked latches a fatal world error. First failure wins.
func (w *World) failLocked(err error) {
	if w.failed == nil {
		w.failed = err
	}
}

func (w *World) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failLocked(err)
	w.broadcastLocked()
}

// broadcastLocked wakes every parked operation: barrier waiters, parked
// senders, and receive waiters on every rank. It also wakes a recovery
// waiting for the ranks to park: a rank died, or the world failed.
func (w *World) broadcastLocked() {
	w.wakeLocked(w.barCond)
	for _, r := range w.ranks {
		w.wakeLocked(r.cond)
	}
	w.quiet.Broadcast()
}

// parkLocked waits on c, one of the world's conds, until it is woken.
func (w *World) parkLocked(r *Rank, c *sync.Cond) {
	r.parkedOn = c
	w.quiet.Broadcast()
	c.Wait()
	r.parkedOn = nil
}

// wakeLocked wakes every rank parked on c. A rank it wakes counts as
// running from here, not once it has the lock again: what woke it may have
// let it go on.
func (w *World) wakeLocked(c *sync.Cond) {
	for _, r := range w.ranks {
		if r.parkedOn == c {
			r.parkedOn = nil
		}
	}
	c.Broadcast()
}

// awaitParkedLocked waits until nothing but the ranks that are down can
// move the world on — every other rank still in its body is parked in an
// MPI operation that no running rank is left to wake — or the world failed.
// What the world holds then does not depend on how the goroutines were
// scheduled.
func (w *World) awaitParkedLocked() {
	for w.failed == nil {
		running := false
		for i, r := range w.ranks {
			running = running || (w.states[i] == rankAlive && r.inBody && r.parkedOn == nil)
		}
		if !running {
			return
		}
		w.quiet.Wait()
	}
}

// opGate runs at the entry of every MPI operation: it surfaces a latched
// world failure, counts the operation for fault-plan positioning, and
// lands any due injected kill. Kills therefore only strike at MPI
// operation boundaries — never mid-snapshot — which keeps every failure
// point a well-defined cut of the message-passing state.
func (w *World) opGate(r *Rank) error {
	w.mu.Lock()
	if err := w.failed; err != nil {
		w.mu.Unlock()
		return err
	}
	if w.states[r.rank] != rankAlive {
		op := r.ops
		w.mu.Unlock()
		return &RankKilled{Rank: r.rank, Op: op}
	}
	r.ops++
	op := r.ops
	p := r.proc
	w.mu.Unlock()

	f := w.opts.Fault
	if f == nil || !f.shouldKill(r.rank, op, r.node.Clock.Now()) {
		return nil
	}
	p.Kill() // fires the OnExit hook -> rankExited
	return &RankKilled{Rank: r.rank, Op: op, At: r.node.Clock.Now()}
}

// Ranks exposes the world's ranks.
func (w *World) Ranks() []*Rank { return w.ranks }

// Cluster exposes the cluster the world runs on.
func (w *World) Cluster() *proc.Cluster { return w.cluster }

// Generation reports how many coordinated checkpoints have committed.
func (w *World) Generation() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

// CommittedManifest reports the store manifest ID of the last committed
// coordinated checkpoint, or "" if none (no checkpoints yet, or the last
// one went to a flat NFS file).
func (w *World) CommittedManifest() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.commit.manifest
}

// RankArrivals reports each rank's barrier arrival counter: how many
// barrier generations it has entered. Mid-recovery the view is skewed —
// a restored rank's counter is rewound to the commit cut and catches back
// up — which is exactly what tooling wants to show.
func (w *World) RankArrivals() []int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]int64(nil), w.arrivals...)
}

// OpCount reports how many MPI operations the rank has issued. Tests use
// it to calibrate deterministic fault-plan positions from a fault-free
// run.
func (w *World) OpCount(rank int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ranks[rank].ops
}

// Run executes body concurrently on every rank and returns the first
// error (all ranks are waited for regardless).
func (w *World) Run(body func(r *Rank) error) error {
	errs := make([]error, len(w.ranks))
	var wg sync.WaitGroup
	for i, r := range w.ranks {
		wg.Add(1)
		go func(i int, r *Rank) {
			defer wg.Done()
			errs[i] = body(r)
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunWithRecovery is Run for fault plans. body runs on every rank; when a
// rank dies with *RankKilled, onKill is invoked from that rank's
// goroutine once every other rank still in its body is parked in an MPI
// operation or down: the survivors have done all they can without the
// victim, so what onKill sees of the world is the same on every run. If
// onKill returns nil (it typically calls RestoreRank and hands the
// restored CheCL back through shared state), body is re-invoked for the
// restored incarnation — the body must consult its restored application
// state to find its resume point. A non-nil onKill error fails the world
// so parked survivors unwind with it.
func (w *World) RunWithRecovery(body func(r *Rank) error, onKill func(r *Rank, k *RankKilled) error) error {
	errs := make([]error, len(w.ranks))
	w.mu.Lock()
	for _, r := range w.ranks {
		r.inBody = true
	}
	w.mu.Unlock()
	var wg sync.WaitGroup
	for i, r := range w.ranks {
		wg.Add(1)
		go func(i int, r *Rank) {
			defer wg.Done()
			defer func() {
				w.mu.Lock()
				r.inBody = false
				w.quiet.Broadcast()
				w.mu.Unlock()
			}()
			for {
				err := body(r)
				var rk *RankKilled
				if err != nil && onKill != nil && errors.As(err, &rk) && rk.Rank == r.rank {
					w.mu.Lock()
					w.awaitParkedLocked()
					w.mu.Unlock()
					if herr := onKill(r, rk); herr != nil {
						w.fail(herr)
						errs[i] = herr
						return
					}
					continue
				}
				errs[i] = err
				return
			}
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Rank reports this rank's index.
func (r *Rank) Rank() int { return r.rank }

// Size reports the world size.
func (r *Rank) Size() int { return r.size }

// Node reports the node this rank runs on.
func (r *Rank) Node() *proc.Node { return r.node }

// World reports the world the rank belongs to.
func (r *Rank) World() *World { return r.world }

// Process reports the rank's simulated process (the current incarnation
// after a partial restore).
func (r *Rank) Process() *proc.Process {
	r.world.mu.Lock()
	defer r.world.mu.Unlock()
	return r.proc
}

// transferCost models moving n bytes from rank s to rank d.
func (w *World) transferCost(s, d *Rank, n int) vtime.Duration {
	spec := s.node.Spec
	if s.node == d.node {
		return spec.Inter.Memcpy.Transfer(int64(n))
	}
	return 50*vtime.Microsecond + spec.Inter.NIC.Transfer(int64(n))
}

// Send delivers data to rank 'to' with the given tag. It is buffered
// (eager protocol): the sender does not wait for a matching receive.
//
// With message logging on, the payload is appended to the (sender,
// receiver) log before delivery; a send addressed to a dead-but-
// recoverable rank is log-only (replay will deliver it), and a send
// re-executed by a recovering rank with a sequence number at or below its
// pre-death high-water mark is suppressed as a duplicate. A send to a
// rank that is mid-restore parks until the rank rejoins.
func (r *Rank) Send(to, tag int, data []byte) error {
	if to < 0 || to >= r.size {
		return fmt.Errorf("mpi: send to invalid rank %d", to)
	}
	if err := r.world.opGate(r); err != nil {
		return err
	}
	return r.world.send(r, to, tag, data)
}

func (w *World) send(r *Rank, to, tag int, data []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Park while the receiver is mid-restore: its replay set is being
	// assembled from the logs, and a message slipping in now would race
	// the replayed ordering.
	for w.failed == nil && w.states[to] == rankRestoring {
		w.parkLocked(r, w.barCond)
	}
	if w.failed != nil {
		return w.failed
	}
	if w.states[r.rank] != rankAlive {
		return &RankKilled{Rank: r.rank, Op: r.ops}
	}
	w.sendSeq[r.rank][to]++
	seq := w.sendSeq[r.rank][to]
	now := r.node.Clock.Now()
	if !w.opts.LogMessages {
		if w.states[to] == rankDown {
			return fmt.Errorf("mpi: send to rank %d: %w", to, ErrRankDown)
		}
		w.deliverLocked(to, message{from: r.rank, tag: tag, seq: seq, data: append([]byte(nil), data...), sentAt: now})
		return nil
	}
	if seq <= w.highWater[r.rank][to] {
		// Re-executed send of a message that was already delivered before
		// this rank's failure: suppress it. For user traffic the payload
		// must match what the log recorded — a divergent replay is a
		// determinism bug, not a recovery. Control traffic (negative
		// tags) is exempt: e.g. a re-executed checkpoint image may encode
		// clock-dependent state without being wrong.
		w.rec.suppressed++
		if tag >= 0 {
			ent := w.findLogEntry(r.rank, to, seq)
			if ent == nil || !bytes.Equal(ent.Data, data) {
				err := &ReplayDiverged{From: r.rank, To: to, Tag: tag, Seq: seq}
				w.failLocked(err)
				w.broadcastLocked()
				return err
			}
		}
		return nil
	}
	w.appendLogLocked(r.rank, to, logEntry{Seq: seq, Tag: tag, SentAt: now, Data: append([]byte(nil), data...)})
	if w.states[to] == rankDown {
		// Receiver is dead but recoverable: the log entry IS the message;
		// RestoreRank will replay it.
		return nil
	}
	w.deliverLocked(to, message{from: r.rank, tag: tag, seq: seq, data: append([]byte(nil), data...), sentAt: now})
	return nil
}

func (w *World) deliverLocked(to int, m message) {
	dst := w.ranks[to]
	dst.queue = append(dst.queue, m)
	w.wakeLocked(dst.cond)
}

// Recv blocks until a message with the given source and tag arrives.
// Messages with other tags/sources stay queued in arrival order.
func (r *Rank) Recv(from, tag int) ([]byte, error) {
	if err := r.world.opGate(r); err != nil {
		return nil, err
	}
	return r.world.recv(r, from, tag)
}

func (w *World) recv(r *Rank, from, tag int) ([]byte, error) {
	entered := r.node.Clock.Now()
	sawRecovery := false
	w.mu.Lock()
	inc := r.incarnation
	for {
		if w.failed != nil {
			err := w.failed
			w.mu.Unlock()
			return nil, err
		}
		if r.incarnation != inc || w.states[r.rank] != rankAlive {
			op := r.ops
			w.mu.Unlock()
			return nil, &RankKilled{Rank: r.rank, Op: op}
		}
		for i, m := range r.queue {
			if (from >= 0 && m.from != from) || m.tag != tag {
				continue
			}
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			if w.opts.LogMessages {
				w.markConsumedLocked(m.from, r.rank, m.seq)
			}
			src := w.ranks[m.from]
			cost := w.transferCost(src, r, len(m.data))
			w.mu.Unlock()
			// Replayed messages carry their original send time, so the
			// modelled arrival instant — and with it the restored rank's
			// timeline — is bit-identical to the original delivery.
			r.node.Clock.AdvanceTo(m.sentAt.Add(cost))
			if sawRecovery {
				// This wait overlapped a rank failure: any clock advance
				// beyond the park instant is recovery-induced stall (a
				// replayed message keeps its original timestamp and
				// charges nothing).
				w.stall.Add("recv", r.node.Clock.Now().Sub(entered.Add(cost)))
			}
			return m.data, nil
		}
		if w.down > 0 {
			sawRecovery = true
		}
		w.parkLocked(r, r.cond)
	}
}

// Barrier blocks until every live rank has entered it; on exit all ranks'
// clocks agree on the barrier's completion time. While a rank is down (or
// restoring) under message logging, waiters park instead of deadlocking
// and complete once the restored rank re-arrives; without logging a
// barrier with a dead rank fails with the latched ErrRankDown error.
func (r *Rank) Barrier() error {
	if err := r.world.opGate(r); err != nil {
		return err
	}
	return r.world.await(r, "", false)
}

// commitBarrier is the final barrier of a coordinated checkpoint: its
// completion atomically commits the generation (sequence snapshot, log
// truncation, barrier-history trim). Rank 0 passes the store manifest ID;
// the other ranks pass "".
func (r *Rank) commitBarrier(manifest string) error {
	if err := r.world.opGate(r); err != nil {
		return err
	}
	return r.world.await(r, manifest, true)
}

// await is the failure-aware clock barrier.
func (w *World) await(r *Rank, manifest string, isCommit bool) error {
	w.mu.Lock()
	if err := w.failed; err != nil {
		w.mu.Unlock()
		return err
	}
	w.arrivals[r.rank]++
	myGen := w.arrivals[r.rank] - 1
	if myGen < w.barDone {
		// Catch-up: a restored rank re-running a barrier generation that
		// completed before its death. Pass straight through at the
		// recorded completion time — survivors have long moved on.
		t := w.barTimes[myGen-w.barBase]
		w.mu.Unlock()
		r.node.Clock.AdvanceTo(t)
		return nil
	}
	arrived := r.node.Clock.Now()
	if arrived > w.barMax {
		w.barMax = arrived
	}
	if isCommit {
		if !w.havePending || w.pendingGen != myGen {
			w.havePending = true
			w.pendingGen = myGen
			w.pendingManifest = ""
		}
		if manifest != "" {
			w.pendingManifest = manifest
		}
	}
	if w.barrierReadyLocked() {
		w.completeBarrierLocked()
	}
	recovery := false
	for myGen >= w.barDone {
		if err := w.failed; err != nil {
			w.mu.Unlock()
			return err
		}
		if w.down > 0 {
			recovery = true
		}
		w.parkLocked(r, w.barCond)
	}
	t := w.barTimes[myGen-w.barBase]
	// The first barrier generation to complete after a restore absorbs the
	// recovery's clock inflation: every survivor's advance beyond its own
	// arrival there is recovery-induced stall. (The parked-while-down case
	// additionally catches survivors whose wait overlapped the failure.)
	if myGen == w.stallGen && r.rank != w.stallRank {
		recovery = true
	}
	w.mu.Unlock()
	if recovery {
		w.stall.Add("barrier", t.Sub(arrived))
	}
	r.node.Clock.AdvanceTo(t)
	return nil
}

// barrierReadyLocked reports whether the generation in progress is
// complete: every rank has arrived more times than generations completed.
func (w *World) barrierReadyLocked() bool {
	for _, a := range w.arrivals {
		if a <= w.barDone {
			return false
		}
	}
	return true
}

func (w *World) completeBarrierLocked() {
	w.barTimes = append(w.barTimes, w.barMax)
	w.barDone++
	w.barMax = 0
	if w.havePending && w.pendingGen == w.barDone-1 {
		w.commitGenerationLocked(w.pendingManifest)
		w.havePending = false
	}
	w.wakeLocked(w.barCond)
}

// commitGenerationLocked runs atomically with the completion of a
// coordinated checkpoint's final barrier: from this cut, every rank's
// committed image, the sequence counters, and the barrier generation
// agree — a partially restored rank resumes from exactly here.
func (w *World) commitGenerationLocked(manifest string) {
	w.gen++
	seq := make([][]int64, len(w.sendSeq))
	for i, row := range w.sendSeq {
		seq[i] = append([]int64(nil), row...)
	}
	w.commit = commitRecord{manifest: manifest, seq: seq, barGen: w.barDone}
	w.truncateLogsLocked()
	// Barrier history before the commit can never be caught up to again
	// (restores resume at barGen), so trim it: history stays bounded by
	// the barriers per checkpoint epoch. The just-completed generation is
	// kept — ranks parked in it still read their completion time.
	if n := w.barDone - 1 - w.barBase; n > 0 {
		w.barTimes = append([]vtime.Time(nil), w.barTimes[n:]...)
		w.barBase = w.barDone - 1
	}
}

// Bcast distributes root's data to every rank and returns each rank's
// copy.
func (r *Rank) Bcast(root int, data []byte) ([]byte, error) {
	if r.rank == root {
		for i := 0; i < r.size; i++ {
			if i == root {
				continue
			}
			if err := r.Send(i, tagBcast, data); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	return r.Recv(root, tagBcast)
}

// AllreduceSum sums one float64 across ranks (gather at rank 0 + bcast).
func (r *Rank) AllreduceSum(v float64) (float64, error) {
	if r.rank == 0 {
		sum := v
		for i := 1; i < r.size; i++ {
			data, err := r.Recv(i, tagReduce)
			if err != nil {
				return 0, err
			}
			sum += decodeF64(data)
		}
		if _, err := r.Bcast(0, encodeF64(sum)); err != nil {
			return 0, err
		}
		return sum, nil
	}
	if err := r.Send(0, tagReduce, encodeF64(v)); err != nil {
		return 0, err
	}
	data, err := r.Recv(0, tagBcast)
	if err != nil {
		return 0, err
	}
	return decodeF64(data), nil
}

const (
	tagBcast  = -100
	tagReduce = -101
	tagCkpt   = -102
)

func encodeF64(v float64) []byte {
	bits := f64bits(v)
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(bits >> (8 * i))
	}
	return b
}

func decodeF64(b []byte) float64 {
	var bits uint64
	for i := 0; i < 8 && i < len(b); i++ {
		bits |= uint64(b[i]) << (8 * i)
	}
	return f64frombits(bits)
}

// GlobalSnapshotStats describes one coordinated checkpoint.
type GlobalSnapshotStats struct {
	LocalTimes    []vtime.Duration // per-rank local snapshot time
	LocalSizes    []int64
	AggregateTime vtime.Duration // reading local snapshots + writing NFS
	GlobalSize    int64
	Total         vtime.Duration // slowest local + aggregation

	// LocalStalls is the per-rank application-visible stall of the local
	// snapshot (CheckpointStats.StallTime): when the rank opened a
	// speculative epoch the drain overlaps its continued execution and
	// only the residue appears here.
	LocalStalls []vtime.Duration

	// Store-backed snapshots only, set on rank 0: the manifest written
	// and the dedup/compression breakdown of the store Put.
	Manifest string
	StorePut *store.PutStats
}

// CoordinatedCheckpoint takes a global snapshot of an MPI+CheCL job
// (Hursey et al. style, as Open MPI's CPR service does): every rank
// synchronises, writes a local snapshot of its process to its node's
// local disk, and rank 0 aggregates the local snapshots into one global
// snapshot file on the shared NFS. The CheCL instance of rank r.rank must
// be passed as checl.
func (r *Rank) CoordinatedCheckpoint(checl *core.CheCL, globalPath string) (GlobalSnapshotStats, error) {
	return r.coordinated(checl, globalPath, func(locals [][]byte, stats *GlobalSnapshotStats) (string, error) {
		global, err := encodeGlobalSnapshot(locals)
		if err != nil {
			return "", err
		}
		nfs := r.node.NFS
		if nfs == nil {
			return "", fmt.Errorf("mpi: no shared NFS for the global snapshot")
		}
		if err := nfs.WriteFile(r.node.Clock, globalPath, global); err != nil {
			return "", err
		}
		stats.GlobalSize = int64(len(global))
		return "", nil
	})
}

// coordinated is the protocol of both coordinated checkpoints: a barrier,
// every rank's local snapshot to <name>.local.<rank> on its node's local
// disk, a barrier, the locals shipped to rank 0, and the commit barrier.
// aggregate is rank 0's step in between: it writes the global snapshot of
// the rank-ordered locals, fills GlobalSize (and a store's Manifest and
// StorePut) in stats, and returns the manifest the commit records, "" for
// none.
func (r *Rank) coordinated(checl *core.CheCL, name string, aggregate func(locals [][]byte, stats *GlobalSnapshotStats) (string, error)) (GlobalSnapshotStats, error) {
	var stats GlobalSnapshotStats
	if err := r.Barrier(); err != nil {
		return stats, err
	}

	// A rank with work to overlap opens its own speculative epoch
	// (checl.BeginCheckpointEpoch) before calling in; checl.Checkpoint
	// commits whatever epoch is open, and validation happens there, before
	// the commit barrier below. It also barriers first on a store write an
	// earlier solo checkpoint left behind.
	localPath := fmt.Sprintf("%s.local.%d", name, r.rank)
	st, err := checl.Checkpoint(r.node.LocalDisk, localPath)
	if err != nil {
		return stats, fmt.Errorf("mpi: rank %d local snapshot: %w", r.rank, err)
	}
	stats.LocalTimes = []vtime.Duration{st.Phases.Total()}
	stats.LocalSizes = []int64{st.FileSize}
	stats.LocalStalls = []vtime.Duration{st.StallTime}
	if err := r.Barrier(); err != nil { // all local snapshots complete
		return stats, err
	}

	manifest := ""
	if r.rank != 0 {
		// Ship the local snapshot to the coordinator.
		data, err := r.node.LocalDisk.ReadFile(r.node.Clock, localPath)
		if err != nil {
			return stats, err
		}
		if err := r.Send(0, tagCkpt, data); err != nil {
			return stats, err
		}
	} else {
		sw := vtime.NewStopwatch(r.node.Clock)
		locals := make([][]byte, r.size)
		if locals[0], err = r.node.LocalDisk.ReadFile(r.node.Clock, localPath); err != nil {
			return stats, err
		}
		for i := 1; i < r.size; i++ {
			if locals[i], err = r.Recv(i, tagCkpt); err != nil {
				return stats, err
			}
		}
		if manifest, err = aggregate(locals, &stats); err != nil {
			return stats, err
		}
		stats.AggregateTime = sw.Elapsed()
		stats.Total = st.Phases.Total() + stats.AggregateTime
	}
	if err := r.commitBarrier(manifest); err != nil { // global snapshot committed
		return stats, err
	}
	return stats, nil
}
