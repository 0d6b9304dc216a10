// Shared-memory ring transport. Where the framed transport serialises
// every call through gob and a byte stream, the ring models the
// io_uring/NVMe-style pair of single-producer/single-consumer queues an
// application and its proxy would share in mapped memory: the client
// publishes fixed-size submission slots, the proxy's service loop polls
// them doorbell-free, and completions come back on a second ring. Typed
// request/response values cross by reference (same address space in this
// model), so the gob encode/decode and copy-in/copy-out that dominate the
// framed hot path disappear; bulk reads land zero-copy in the caller's
// buffers, which a RegisterParts handler is handed as its into list.
//
// Fault injection is cooperative rather than byte-level: the client picks
// the call's fault from the same seeded FaultInjector stream the framed
// transport uses, and the kind rides inside the submission slot so the
// service loop can tear down at the matching protocol position (see the
// fault matrix in serveOne). Replay dedupe runs against the same Server
// cache, so a reconnect-and-retry after a kill behaves identically on
// both backends.
package ipc

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"checl/internal/vtime"
)

// ringSlotBytes is the modelled size of one submission or completion slot
// (a cacheline for the descriptor plus an inline header). The ring's byte
// accounting charges one slot per publish or completion plus the raw
// payload it points at; gob envelopes do not exist here.
const ringSlotBytes = 64

// ringDepth is the slot count per queue (a power of two).
const ringDepth = 256

// Spin budgets before a waiter parks. The client burns longer (it is the
// latency-sensitive side); the service loop yields sooner so an idle
// proxy does not monopolise a CPU.
const (
	ringClientSpin = 512
	ringServerSpin = 256
)

// errRingClosed wakes waiters on a torn-down queue.
var errRingClosed = errors.New("ipc: ring closed")

// spsc is a lock-free single-producer/single-consumer bounded queue.
// head/tail are free-running uint64 counters (masked into the power-of-2
// buffer), so full/empty never alias. Waiters spin first, then park on a
// condvar; every push and pop takes the mutex once to wake any sleeper.
type spsc[T any] struct {
	buf  []T
	mask uint64
	head atomic.Uint64 // next slot the consumer pops
	tail atomic.Uint64 // next slot the producer fills

	mu       sync.Mutex
	cond     *sync.Cond
	sleepers int
	down     atomic.Bool
}

func newSPSC[T any](depth int) *spsc[T] {
	if depth < 2 {
		depth = 2
	}
	// Round up to a power of two so masking replaces modulo.
	n := 1
	for n < depth {
		n <<= 1
	}
	q := &spsc[T]{buf: make([]T, n), mask: uint64(n - 1)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push publishes v, blocking while the queue is full. A closed queue
// fails immediately — in-flight slots die with the ring, like bytes in a
// killed stream.
func (q *spsc[T]) push(v T) error {
	spins := 0
	for {
		if q.down.Load() {
			return errRingClosed
		}
		tail := q.tail.Load()
		if tail-q.head.Load() < uint64(len(q.buf)) {
			q.buf[tail&q.mask] = v
			q.tail.Store(tail + 1)
			q.wake()
			return nil
		}
		if spins++; spins < ringClientSpin {
			runtime.Gosched()
			continue
		}
		q.sleep(func() bool {
			return q.down.Load() || q.tail.Load()-q.head.Load() < uint64(len(q.buf))
		})
		spins = 0
	}
}

// pop consumes the next slot, blocking while the queue is empty.
func (q *spsc[T]) pop(spinBudget int) (T, error) {
	var zero T
	spins := 0
	for {
		if q.down.Load() {
			return zero, errRingClosed
		}
		head := q.head.Load()
		if head != q.tail.Load() {
			v := q.buf[head&q.mask]
			q.buf[head&q.mask] = zero // release references for GC
			q.head.Store(head + 1)
			q.wake()
			return v, nil
		}
		if spins++; spins < spinBudget {
			runtime.Gosched()
			continue
		}
		q.sleep(func() bool {
			return q.down.Load() || q.head.Load() != q.tail.Load()
		})
		spins = 0
	}
}

// sleep parks until ready reports true. The condition reads only atomics,
// and wakers broadcast under the same mutex, so no wakeup is lost.
func (q *spsc[T]) sleep(ready func() bool) {
	q.mu.Lock()
	for !ready() {
		q.sleepers++
		q.cond.Wait()
		q.sleepers--
	}
	q.mu.Unlock()
}

// wake rouses parked waiters. It locks on every call: a sleeper registers
// under the same mutex, which is what rules out a lost wakeup. A lock-free
// check of the sleeper count measured no faster on call_storm, so it is
// not worth the memory-ordering argument it would need.
func (q *spsc[T]) wake() {
	q.mu.Lock()
	if q.sleepers > 0 {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// close tears the queue down and wakes every waiter.
func (q *spsc[T]) close() {
	q.down.Store(true)
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()
}

// ringMsg is one submission slot.
type ringMsg struct {
	method  string
	seq     uint64   // replay-dedupe sequence; 0 = idempotent
	req     any      // the typed request value, by reference
	payload []byte   // raw request payload (valid until the handler returns)
	into    [][]byte // caller's destinations for the response parts, if any
	fault   FaultKind
}

// ringCpl is one completion slot.
type ringCpl struct {
	env   respEnvelope
	resp  any
	raw   [][]byte
	fault FaultKind // non-None: the completion arrived poisoned
}

// Ring is the client handle of a shared-memory ring transport bound to a
// Server. Run the server half with Serve (usually on its own goroutine).
// Like Conn, one synchronous call is outstanding at a time and the type
// is safe for concurrent use.
type Ring struct {
	srv   *Server
	inj   *FaultInjector
	stats TransportStats

	sq *spsc[ringMsg]
	cq *spsc[ringCpl]

	// mu is the producer lock: one submission is in flight at a time. The
	// service loop never takes it — a client blocked on its completion
	// holds mu the whole time.
	mu       sync.Mutex
	clock    *vtime.Clock
	timeout  vtime.Duration
	maxFrame int

	// stateMu guards the down latch; both sides touch it, so it stays off
	// mu.
	stateMu sync.Mutex
	downErr error
}

// NewRing builds a ring transport served by srv. inj, when non-nil, drives
// the ring's cooperative fault injection from the same seeded plan state
// the framed transport uses. The caller starts the service loop with go
// ring.Serve().
func NewRing(srv *Server, inj *FaultInjector) *Ring {
	return &Ring{
		srv:      srv,
		inj:      inj,
		sq:       newSPSC[ringMsg](ringDepth),
		cq:       newSPSC[ringCpl](ringDepth),
		maxFrame: DefaultMaxFrame,
	}
}

// SetMaxFrame bounds a single raw payload, mirroring the framed limit.
func (r *Ring) SetMaxFrame(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxFrame = n
}

// SetDeadline arms a per-call deadline on the virtual clock, identical in
// meaning to Conn.SetDeadline.
func (r *Ring) SetDeadline(clock *vtime.Clock, timeout vtime.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock = clock
	r.timeout = timeout
}

// Stats exposes the ring's modelled byte accounting.
func (r *Ring) Stats() *TransportStats { return &r.stats }

// Down reports whether the ring has been latched down.
func (r *Ring) Down() bool {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	return r.downErr != nil
}

// Close tears the ring down; both sides wake with ErrConnDown-class
// failures and the service loop exits.
func (r *Ring) Close() error {
	r.latch(errors.New("connection closed"))
	return nil
}

// latch records the first cause of death and closes both queues.
func (r *Ring) latch(err error) {
	r.stateMu.Lock()
	if r.downErr == nil {
		r.downErr = err
	}
	r.stateMu.Unlock()
	r.sq.close()
	r.cq.close()
}

// fail latches the ring down and wraps the (first) cause as a DownError.
func (r *Ring) fail(method string, err error) error {
	r.stateMu.Lock()
	if r.downErr == nil {
		r.downErr = err
	}
	cause := r.downErr
	r.stateMu.Unlock()
	r.sq.close()
	r.cq.close()
	return &DownError{Method: method, Err: cause}
}

// downError returns the latched cause, if any.
func (r *Ring) downError() error {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	return r.downErr
}

// Call invokes method synchronously over the ring.
func (r *Ring) Call(method string, req, resp any) (int64, error) {
	_, n, err := r.exchange(method, 0, req, nil, resp, nil)
	return n, err
}

// CallSeq is Call with an explicit dedupe sequence number.
func (r *Ring) CallSeq(method string, seq uint64, req, resp any) (int64, error) {
	_, n, err := r.exchange(method, seq, req, nil, resp, nil)
	return n, err
}

// CallRaw attaches rawReq to the request and hands into to the handler as
// its destination list. Both cross by reference: the handler contract
// (payload valid until the handler returns) holds because the call is
// synchronous, and a RegisterParts handler writes straight into the
// caller's buffers.
func (r *Ring) CallRaw(method string, seq uint64, req any, rawReq []byte, resp any, into [][]byte) ([][]byte, int64, error) {
	return r.exchange(method, seq, req, rawReq, resp, into)
}

// submitFault draws the call's fault from the injector and fires the
// submission-side kinds. The returned kind (if any) rides in the slot for
// the service loop to act on.
func (r *Ring) submitFault(method string) (FaultKind, error) {
	if r.inj == nil {
		return FaultNone, nil
	}
	kind := r.inj.nextKind()
	switch kind {
	case FaultKillBeforeRequest:
		// Nothing reaches the submission queue — the ring analogue of a
		// stream killed before the first request byte.
		return FaultNone, r.fail(method, fmt.Errorf("%w before the request", errKilled))
	case FaultCrashServer:
		// The proxy process dies before consuming the slot. The crash hook
		// runs on this side so the service loop (which the hook's teardown
		// waits on) is never the one triggering its own demise.
		err := r.fail(method, fmt.Errorf("fault injected: proxy crashed before consuming the slot"))
		r.inj.fireCrash()
		return FaultNone, err
	case FaultDelay:
		r.inj.delay()
		return FaultNone, nil
	}
	return kind, nil
}

// exchange runs one synchronous submission/completion cycle under the
// producer lock.
func (r *Ring) exchange(method string, seq uint64, req any, rawReq []byte, resp any, into [][]byte) ([][]byte, int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.downError(); err != nil {
		return nil, 0, &DownError{Method: method, Err: err}
	}
	var start vtime.Time
	if r.clock != nil {
		start = r.clock.Now()
	}
	kind, err := r.submitFault(method)
	if err != nil {
		return nil, 0, err
	}
	if len(rawReq) > r.maxFrame {
		return nil, 0, r.fail(method, fmt.Errorf("%d-byte payload: %w (max %d)", len(rawReq), ErrFrameTooLarge, r.maxFrame))
	}
	n := int64(ringSlotBytes + len(rawReq))
	r.stats.AddSent(n)
	msg := ringMsg{method: method, seq: seq, req: req, payload: rawReq, into: into, fault: kind}
	if err := r.sq.push(msg); err != nil {
		return nil, n, r.fail(method, err)
	}
	cpl, err := r.cq.pop(ringClientSpin)
	if err != nil {
		return nil, n, r.fail(method, err)
	}
	recv := ringSlotBytes + rawLen(cpl.raw)
	r.stats.AddRecv(recv)
	n += recv
	if cpl.fault != FaultNone {
		return nil, n, r.fail(method, fmt.Errorf("fault injected: %s completion poisoned (%s)", method, cpl.fault))
	}
	for _, p := range cpl.raw {
		if len(p) > r.maxFrame {
			return nil, n, r.fail(method, fmt.Errorf("%d-byte payload: %w (max %d)", len(p), ErrFrameTooLarge, r.maxFrame))
		}
	}
	var callErr error
	var rawResp [][]byte
	if cpl.env.ErrOp != "" {
		callErr = &RemoteError{Op: cpl.env.ErrOp, Detail: cpl.env.ErrDetail, Status: cpl.env.ErrStatus}
	} else {
		if resp != nil && cpl.resp != nil {
			dst := reflect.ValueOf(resp).Elem()
			src := reflect.ValueOf(cpl.resp)
			if !src.Type().AssignableTo(dst.Type()) {
				return nil, n, r.fail(method, fmt.Errorf("ipc: %s: response is %s, want %s", method, src.Type(), dst.Type()))
			}
			dst.Set(src)
		}
		rawResp = cpl.raw
	}
	if r.clock != nil && r.timeout > 0 {
		if elapsed := r.clock.Now().Sub(start); elapsed > r.timeout {
			return nil, n, r.fail(method,
				fmt.Errorf("%s exceeded the %s call deadline (took %s)", method, r.timeout, elapsed))
		}
	}
	return rawResp, n, callErr
}

// Serve is the proxy-side service loop: it polls the submission queue,
// dispatches ring handlers, and publishes completions until the ring goes
// down. Run it on its own goroutine.
func (r *Ring) Serve() {
	for {
		msg, err := r.sq.pop(ringServerSpin)
		if err != nil {
			return
		}
		if !r.serveOne(msg) {
			return
		}
	}
}

// serveOne handles one submission. It returns false when a fault latched
// the ring down and the service loop should exit.
//
// The server-side fault matrix (the kind rides in msg.fault):
//
//	FaultKillMidRequest, FaultTornSlotPublish — the consumer observes a
//	  torn slot: down, request NOT executed.
//	FaultStalledConsumer — the service loop wedges for the plan's Delay,
//	  then dies: down, request NOT executed.
//	FaultKillBeforeResponse, FaultKillBetween — the handler EXECUTES (and
//	  a sequenced response enters the replay cache), then the completion
//	  is lost: down. This is the case replay dedupe exists for.
//	FaultKillMidResponse, FaultArenaPoison — the handler executes and the
//	  completion is delivered poisoned; the client latches down on it.
func (r *Ring) serveOne(msg ringMsg) bool {
	switch msg.fault {
	case FaultKillMidRequest, FaultTornSlotPublish:
		r.latch(fmt.Errorf("fault injected: torn %s submission slot", msg.method))
		return false
	case FaultStalledConsumer:
		if r.inj != nil {
			r.inj.delay()
		}
		r.latch(fmt.Errorf("fault injected: ring consumer stalled on %s", msg.method))
		return false
	}

	var cpl ringCpl

	var done func(cachedResp)
	if msg.seq != 0 {
		cached, served, claim := r.srv.claimSeq(msg.seq)
		if served {
			cpl.env, cpl.resp = cached.env, cached.resp
			// The cache keeps its pinned copy; the client gets its own (in
			// its destination buffers where it offered them).
			for k, p := range cached.raw {
				var dst []byte
				if k < len(msg.into) && cap(msg.into[k]) >= len(p) {
					dst = msg.into[k][:0]
				}
				cpl.raw = append(cpl.raw, append(dst, p...))
			}
			return r.complete(msg, cpl)
		}
		done = claim
	}

	h, ok := r.srv.ringHandler(msg.method)
	if !ok {
		cpl.env = respEnvelope{ErrOp: msg.method, ErrDetail: "unknown method", ErrStatus: -9998}
		if done != nil {
			done(cachedResp{env: cpl.env})
		}
		return r.complete(msg, cpl)
	}
	resp, raw, err := h(msg.req, msg.payload, msg.into)
	env := envFor(msg.method, err)
	if err != nil {
		raw = nil
	}
	env.Raw = len(raw)
	cpl.env, cpl.resp, cpl.raw = env, resp, raw
	if done != nil {
		// The delivered parts may alias the client's buffers (the zero-copy
		// into path); the replay cache pins its own copies so a later
		// replay is immune to client mutation.
		var cacheRaw [][]byte
		for _, p := range raw {
			cacheRaw = append(cacheRaw, append([]byte(nil), p...))
		}
		done(cachedResp{env: env, resp: resp, raw: cacheRaw})
	}
	return r.complete(msg, cpl)
}

// complete publishes a completion, applying the response-side faults.
func (r *Ring) complete(msg ringMsg, cpl ringCpl) bool {
	switch msg.fault {
	case FaultKillBeforeResponse, FaultKillBetween:
		// Executed, completion lost.
		r.latch(fmt.Errorf("fault injected: %s completion lost", msg.method))
		return false
	case FaultKillMidResponse, FaultArenaPoison:
		cpl.fault = msg.fault
	}
	if err := r.cq.push(cpl); err != nil {
		return false
	}
	// A poisoned completion takes the ring down as soon as it is seen;
	// the service loop stops here rather than racing the latch.
	if cpl.fault != FaultNone {
		return false
	}
	return true
}
