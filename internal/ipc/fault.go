package ipc

// Fault injection for the app<->proxy transport. A FaultInjector wraps the
// client end of a connection and, driven by a deterministic seeded plan,
// kills the stream at precise protocol positions (before the request, mid
// request frame, before the response, between the response envelope and
// its body, mid response body), crashes the proxy process mid-handler, or
// delays a call. Because the injector parses the frame headers flowing
// through it, every fault lands on an exact frame boundary, which makes
// the failure modes reproducible enough for table-driven tests and seeded
// soak runs.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"checl/internal/fault"
	"checl/internal/vtime"
)

// FaultKind selects where in a call's lifecycle the connection fails.
type FaultKind int

const (
	// FaultNone leaves the call alone.
	FaultNone FaultKind = iota
	// FaultKillBeforeRequest kills the connection before any request byte.
	FaultKillBeforeRequest
	// FaultKillMidRequest kills the connection inside the request body
	// frame, so the server sees a truncated frame.
	FaultKillMidRequest
	// FaultKillBeforeResponse delivers the full request (the server
	// executes it) and kills the connection before any response byte —
	// the case sequence-number dedupe exists for.
	FaultKillBeforeResponse
	// FaultKillBetween delivers the response envelope frame and kills the
	// connection before the response body frame.
	FaultKillBetween
	// FaultKillMidResponse kills the connection inside the response body
	// frame, after its header has been read.
	FaultKillMidResponse
	// FaultCrashServer crashes the proxy process mid-handler: the request
	// is delivered, then the injector fires the CrashServer hook, so the
	// handler's reply hits a closed connection and the process is gone.
	FaultCrashServer
	// FaultDelay advances the virtual clock by Plan.Delay before the
	// request: a slow call that still succeeds.
	FaultDelay
	// FaultTornSlotPublish (ring only) tears a submission-slot publish: the
	// consumer observes a half-written slot and the ring latches down with
	// the request unexecuted — the ring analogue of FaultKillMidRequest.
	// Inert on the framed transport.
	FaultTornSlotPublish
	// FaultStalledConsumer (ring only) models the service loop wedging: the
	// plan's Delay elapses with the slot unconsumed, then the ring latches
	// down without executing the request. Inert on the framed transport.
	FaultStalledConsumer
	// FaultArenaPoison (ring only) corrupts the shared arena under a
	// completed call: the request executes, but its completion arrives
	// poisoned and the client latches the ring down — the ring analogue of
	// FaultKillMidResponse. Inert on the framed transport.
	FaultArenaPoison
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultKillBeforeRequest:
		return "kill-before-request"
	case FaultKillMidRequest:
		return "kill-mid-request"
	case FaultKillBeforeResponse:
		return "kill-before-response"
	case FaultKillBetween:
		return "kill-between-envelope-and-body"
	case FaultKillMidResponse:
		return "kill-mid-response"
	case FaultCrashServer:
		return "crash-server"
	case FaultDelay:
		return "delay"
	case FaultTornSlotPublish:
		return "torn-slot-publish"
	case FaultStalledConsumer:
		return "stalled-consumer"
	case FaultArenaPoison:
		return "arena-poison"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// killKinds is the default fault mix: every way a connection can die
// without losing the proxy process.
var killKinds = []FaultKind{
	FaultKillBeforeRequest,
	FaultKillMidRequest,
	FaultKillBeforeResponse,
	FaultKillBetween,
	FaultKillMidResponse,
}

// RingFaultKinds are the fault points specific to the shared-memory ring
// transport. They slot into FaultPlan.Kinds like any other kind; on the
// framed transport they are inert (the call runs unfaulted), so a plan
// mixing them stays valid on both backends.
var RingFaultKinds = []FaultKind{
	FaultTornSlotPublish,
	FaultStalledConsumer,
	FaultArenaPoison,
}

// FaultPlan is a deterministic schedule of injected faults.
type FaultPlan struct {
	Seed      uint64         // drives the kind choice; same seed, same faults
	EveryN    int            // inject on every Nth call; <= 0 disables the plan
	SkipFirst int            // leave the first SkipFirst calls alone (bootstrap)
	Max       int            // stop injecting after Max faults; 0 = unlimited
	Kinds     []FaultKind    // candidate kinds; nil means every kill kind
	Delay     vtime.Duration // the extra latency FaultDelay injects
}

// FaultEvent records one injected fault for reporting.
type FaultEvent struct {
	Call int // 1-based index of the faulted call
	Kind FaultKind
}

// FaultInjector owns a plan's mutable state. One injector may wrap many
// connections in turn (each reconnect after a kill wraps a fresh stream)
// while the call count and seeded RNG run on across them. Its Schedule
// counts calls (Ops), and its Suspend is what the failover path holds
// while it rebinds.
type FaultInjector struct {
	fault.Schedule[FaultEvent]
	plan  FaultPlan
	clock *vtime.Clock
	crash func()
}

// NewFaultInjector builds an injector for plan.
func NewFaultInjector(plan FaultPlan) *FaultInjector {
	if len(plan.Kinds) == 0 {
		plan.Kinds = killKinds
	}
	f := &FaultInjector{plan: plan}
	f.Init(plan.Seed, plan.EveryN, plan.SkipFirst, plan.Max)
	return f
}

// SetClock provides the virtual clock FaultDelay charges.
func (f *FaultInjector) SetClock(c *vtime.Clock) {
	f.Lock()
	defer f.Unlock()
	f.clock = c
}

// SetCrashServer installs the hook FaultCrashServer fires (proxy.Spawn
// points it at the proxy process's kill path).
func (f *FaultInjector) SetCrashServer(fn func()) {
	f.Lock()
	defer f.Unlock()
	f.crash = fn
}

// nextKind counts one call and decides its fault, if any.
func (f *FaultInjector) nextKind() FaultKind {
	f.Lock()
	defer f.Unlock()
	call, fire := f.Due()
	if !fire {
		return FaultNone
	}
	k := f.plan.Kinds[f.Draw()%uint64(len(f.plan.Kinds))]
	f.Record(FaultEvent{Call: call, Kind: k})
	return k
}

// fireCrash runs the CrashServer hook outside the injector lock.
func (f *FaultInjector) fireCrash() {
	f.Lock()
	crash := f.crash
	f.Unlock()
	if crash != nil {
		crash()
	}
}

// delay charges the plan's injected latency to the virtual clock.
func (f *FaultInjector) delay() {
	f.Lock()
	clock, d := f.clock, f.plan.Delay
	f.Unlock()
	if clock != nil && d > 0 {
		clock.Advance(d)
	}
}

// Wrap returns rwc with the injector's faults applied. The result
// implements CallFaulter, which ipc.Conn invokes per call.
func (f *FaultInjector) Wrap(rwc io.ReadWriteCloser) io.ReadWriteCloser {
	return &faultConn{inj: f, rwc: rwc}
}

// errKilled is what reads and writes return once a fault killed the
// stream; Conn wraps it into a DownError.
var errKilled = errors.New("fault injected: connection killed")

// frameTracker follows the 4-byte-header framing through a byte stream so
// faults can target exact frame positions.
type frameTracker struct {
	hdr       [4]byte
	hdrN      int
	remaining int
	frames    int // completed frames since the last reset
}

func (t *frameTracker) feed(b []byte) {
	for len(b) > 0 {
		if t.remaining == 0 {
			take := 4 - t.hdrN
			if take > len(b) {
				take = len(b)
			}
			copy(t.hdr[t.hdrN:], b[:take])
			t.hdrN += take
			b = b[take:]
			if t.hdrN == 4 {
				t.remaining = int(binary.BigEndian.Uint32(t.hdr[:]))
				t.hdrN = 0
				if t.remaining == 0 {
					t.frames++
				}
			}
			continue
		}
		take := t.remaining
		if take > len(b) {
			take = len(b)
		}
		t.remaining -= take
		b = b[take:]
		if t.remaining == 0 {
			t.frames++
		}
	}
}

// atBoundary reports whether the stream sits exactly between frames.
func (t *frameTracker) atBoundary() bool { return t.remaining == 0 && t.hdrN == 0 }

// inBody reports whether a frame header has been consumed but its payload
// has not finished.
func (t *frameTracker) inBody() bool { return t.remaining > 0 }

// faultConn is the fault-injecting transport wrapper.
type faultConn struct {
	inj *FaultInjector
	rwc io.ReadWriteCloser

	mu      sync.Mutex
	pending FaultKind
	killed  bool
	rt, wt  frameTracker
}

// CallStarting arms (at most) one fault for the call about to run and
// fires the faults that land before the first request byte.
func (fc *faultConn) CallStarting() error {
	k := fc.inj.nextKind()
	fc.mu.Lock()
	fc.pending = k
	fc.rt.frames, fc.wt.frames = 0, 0
	fc.mu.Unlock()
	switch k {
	case FaultKillBeforeRequest:
		fc.kill()
		return fmt.Errorf("%w before the request", errKilled)
	case FaultDelay:
		fc.inj.delay()
		fc.setPending(FaultNone)
	}
	return nil
}

func (fc *faultConn) setPending(k FaultKind) {
	fc.mu.Lock()
	fc.pending = k
	fc.mu.Unlock()
}

// kill closes the underlying stream and latches the wrapper dead.
func (fc *faultConn) kill() {
	fc.mu.Lock()
	already := fc.killed
	fc.killed = true
	fc.mu.Unlock()
	if !already {
		_ = fc.rwc.Close()
	}
}

func (fc *faultConn) Write(p []byte) (int, error) {
	fc.mu.Lock()
	if fc.killed {
		fc.mu.Unlock()
		return 0, errKilled
	}
	pending := fc.pending
	midRequest := pending == FaultKillMidRequest && fc.wt.frames >= 1
	fc.mu.Unlock()

	if midRequest {
		// Let half of this chunk of the body frame escape, then die: the
		// server sees a frame cut off mid-flight.
		half := len(p) / 2
		if half > 0 {
			_, _ = fc.rwc.Write(p[:half])
		}
		fc.kill()
		return half, fmt.Errorf("%w mid-request", errKilled)
	}

	n, err := fc.rwc.Write(p)

	fc.mu.Lock()
	fc.wt.feed(p[:n])
	crash := fc.pending == FaultCrashServer && fc.wt.frames >= 2
	if crash {
		fc.pending = FaultNone
	}
	fc.mu.Unlock()
	if crash {
		// The full request is on the wire; crash the proxy before it can
		// reply, so the handler dies with its response unsent.
		fc.inj.fireCrash()
	}
	return n, err
}

func (fc *faultConn) Read(p []byte) (int, error) {
	fc.mu.Lock()
	if fc.killed {
		fc.mu.Unlock()
		return 0, errKilled
	}
	var (
		kill  bool
		cause string
	)
	switch fc.pending {
	case FaultKillBeforeResponse:
		kill, cause = true, "before the response"
	case FaultKillBetween:
		// The response envelope frame is through; die on the boundary
		// before the body frame's header.
		if fc.rt.frames >= 1 && fc.rt.atBoundary() {
			kill, cause = true, "between response envelope and body"
		}
	case FaultKillMidResponse:
		// Let the body frame's header through, then die inside the body.
		if fc.rt.frames >= 1 && fc.rt.inBody() {
			kill, cause = true, "mid-response"
		}
	}
	fc.mu.Unlock()

	if kill {
		fc.kill()
		return 0, fmt.Errorf("%w %s", errKilled, cause)
	}

	n, err := fc.rwc.Read(p)
	fc.mu.Lock()
	fc.rt.feed(p[:n])
	fc.mu.Unlock()
	return n, err
}

func (fc *faultConn) Close() error { return fc.rwc.Close() }
