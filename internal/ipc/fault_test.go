package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"

	"checl/internal/vtime"
)

// faultPair is pair with a fault injector wrapped around the client end.
func faultPair(t *testing.T, s *Server, inj *FaultInjector) *Conn {
	t.Helper()
	a, b := net.Pipe()
	go s.ServeConn(b)
	conn := NewConn(inj.Wrap(a))
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestFaultKillKinds drives every connection-kill position through a real
// client/server pair: the faulted call must surface ErrConnDown, the
// connection must latch down, and later calls must fail fast.
func TestFaultKillKinds(t *testing.T) {
	kinds := []FaultKind{
		FaultKillBeforeRequest,
		FaultKillMidRequest,
		FaultKillBeforeResponse,
		FaultKillBetween,
		FaultKillMidResponse,
	}
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			s := NewServer()
			Register(s, "add", func(r addReq) (addResp, error) {
				return addResp{Sum: r.A + r.B}, nil
			})
			inj := NewFaultInjector(FaultPlan{Seed: 1, EveryN: 2, Kinds: []FaultKind{k}})
			conn := faultPair(t, s, inj)

			var resp addResp
			if _, err := conn.Call("add", addReq{A: 1, B: 2}, &resp); err != nil || resp.Sum != 3 {
				t.Fatalf("pre-fault call: err=%v sum=%d", err, resp.Sum)
			}
			if _, err := conn.Call("add", addReq{A: 2, B: 2}, &resp); !errors.Is(err, ErrConnDown) {
				t.Fatalf("faulted call err = %v, want ErrConnDown", err)
			}
			requireDown(t, conn)
			if inj.Injected() != 1 {
				t.Errorf("injected = %d, want 1", inj.Injected())
			}
			if ev := inj.Events(); len(ev) != 1 || ev[0].Kind != k || ev[0].Call != 2 {
				t.Errorf("events = %+v", ev)
			}
		})
	}
}

// TestFaultFrameTooLargeOutbound rejects an oversized request frame on the
// client side before it touches the wire.
func TestFaultFrameTooLargeOutbound(t *testing.T) {
	type fatReq struct{ Data []byte }
	s := NewServer()
	Register(s, "fat", func(r fatReq) (addResp, error) { return addResp{Sum: len(r.Data)}, nil })
	conn := pair(t, s)
	conn.fw.max = 64
	var resp addResp
	_, err := conn.Call("fat", fatReq{Data: make([]byte, 4096)}, &resp)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if !errors.Is(err, ErrConnDown) {
		t.Error("an oversized frame must take the connection down")
	}
	requireDown(t, conn)
}

// TestFaultFrameTooLargeInbound rejects an oversized request frame on the
// server side: the serve loop returns ErrFrameTooLarge and closes the
// stream so the client does not hang on the synchronous transport.
func TestFaultFrameTooLargeInbound(t *testing.T) {
	type fatReq struct{ Data []byte }
	s := NewServer()
	Register(s, "fat", func(r fatReq) (addResp, error) { return addResp{Sum: len(r.Data)}, nil })
	s.maxFrame = 64
	a, b := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- s.ServeConn(b) }()
	conn := NewConn(a)
	defer conn.Close()

	var resp addResp
	if _, err := conn.Call("fat", fatReq{Data: make([]byte, 4096)}, &resp); !errors.Is(err, ErrConnDown) {
		t.Fatalf("client err = %v, want ErrConnDown", err)
	}
	if err := <-served; !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ServeConn = %v, want ErrFrameTooLarge", err)
	}
}

// TestFaultTruncatedFrames feeds the frame reader raw cut-off streams.
func TestFaultTruncatedFrames(t *testing.T) {
	frame := func(payload []byte) []byte {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		return append(hdr[:], payload...)
	}
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"clean-eof", nil, io.EOF},
		{"clean-eof-after-frame", frame(make([]byte, 8)), io.EOF},
		{"header-cut-short", []byte{0, 0}, ErrTruncatedFrame},
		{"body-cut-short", frame(make([]byte, 100))[:20], ErrTruncatedFrame},
		{"oversized", frame(make([]byte, 200)), ErrFrameTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr := &frameReader{r: bytes.NewReader(tc.raw), max: 128}
			_, err := io.ReadAll(fr)
			if tc.want == io.EOF {
				if err != nil {
					t.Fatalf("err = %v, want clean EOF", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestFaultSeqReplay checks the server's request-dedupe cache: re-sending a
// sequenced call replays the cached response instead of re-executing the
// handler, while seq-0 calls always execute.
func TestFaultSeqReplay(t *testing.T) {
	var execs atomic.Int32
	s := NewServer()
	Register(s, "bump", func(r addReq) (addResp, error) {
		return addResp{Sum: int(execs.Add(1))}, nil
	})
	conn := pair(t, s)

	var r1, r2 addResp
	if _, err := callSeq(conn, "bump", 7, addReq{}, &r1); err != nil {
		t.Fatal(err)
	}
	if _, err := callSeq(conn, "bump", 7, addReq{}, &r2); err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 1 {
		t.Errorf("handler executed %d times, want 1 (second send must replay)", got)
	}
	if r1.Sum != r2.Sum {
		t.Errorf("replayed response %d differs from original %d", r2.Sum, r1.Sum)
	}
	if s.ReplayedCalls() != 1 {
		t.Errorf("ReplayedCalls = %d, want 1", s.ReplayedCalls())
	}

	var r3, r4 addResp
	if _, err := callSeq(conn, "bump", 0, addReq{}, &r3); err != nil {
		t.Fatal(err)
	}
	if _, err := callSeq(conn, "bump", 0, addReq{}, &r4); err != nil {
		t.Fatal(err)
	}
	if r3.Sum == r4.Sum {
		t.Error("seq-0 calls must re-execute, not replay")
	}
}

// TestFaultReplayWindowEviction fills the dedupe cache past its window and
// checks that evicted sequence numbers re-execute.
func TestFaultReplayWindowEviction(t *testing.T) {
	var execs atomic.Int32
	s := NewServer()
	Register(s, "bump", func(r addReq) (addResp, error) {
		return addResp{Sum: int(execs.Add(1))}, nil
	})
	conn := pair(t, s)
	var resp addResp
	for seq := uint64(1); seq <= replayWindow+1; seq++ {
		if _, err := callSeq(conn, "bump", seq, addReq{}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	// Seq 1 was evicted by seq replayWindow+1: it executes again.
	before := execs.Load()
	if _, err := callSeq(conn, "bump", 1, addReq{}, &resp); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != before+1 {
		t.Error("evicted seq should re-execute")
	}
	// Seq 3 is still cached (re-storing seq 1 evicted seq 2): replayed.
	if _, err := callSeq(conn, "bump", 3, addReq{}, &resp); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != before+1 {
		t.Error("cached seq should replay, not re-execute")
	}
}

// TestFaultDelayIsASlowCall: FaultDelay charges the plan's Delay to the
// virtual clock and the call still succeeds, on both carriers.
func TestFaultDelayIsASlowCall(t *testing.T) {
	for _, carrier := range []string{"framed", "ring"} {
		t.Run(carrier, func(t *testing.T) {
			s := NewServer()
			Register(s, "add", func(r addReq) (addResp, error) {
				return addResp{Sum: r.A + r.B}, nil
			})
			clock := vtime.NewClock()
			inj := NewFaultInjector(FaultPlan{
				EveryN: 1,
				Kinds:  []FaultKind{FaultDelay},
				Delay:  10 * vtime.Millisecond,
			})
			inj.SetClock(clock)
			var tr Transport
			if carrier == "ring" {
				tr = ringPair(t, s, inj)
			} else {
				tr = faultPair(t, s, inj)
			}
			var resp addResp
			before := clock.Now()
			if _, err := callSeq(tr, "add", 0, addReq{A: 1, B: 1}, &resp); err != nil || resp.Sum != 2 {
				t.Fatalf("delayed call: %v, sum %d", err, resp.Sum)
			}
			if got := clock.Now().Sub(before); got != 10*vtime.Millisecond {
				t.Errorf("clock moved %v, want the plan's 10ms delay", got)
			}
		})
	}
}

// TestFaultPlanDeterminism: the same seed yields the same fault schedule;
// a different seed yields a different one.
func TestFaultPlanDeterminism(t *testing.T) {
	drive := func(seed uint64, calls int) []FaultEvent {
		inj := NewFaultInjector(FaultPlan{Seed: seed, EveryN: 3})
		for i := 0; i < calls; i++ {
			inj.nextKind()
		}
		return inj.Events()
	}
	a, b := drive(42, 150), drive(42, 150)
	if len(a) != 50 {
		t.Fatalf("injected %d faults, want 50", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must produce the same fault schedule")
	}
	if c := drive(43, 150); reflect.DeepEqual(a, c) {
		t.Error("different seeds should produce different schedules")
	}
}

// TestFaultSchedulePinned pins one seeded schedule event for event, so a
// change to the seeding, the draw or the cadence gate cannot pass by
// agreeing with itself. Calls 46–55 run suspended: they count as calls but
// cannot fire, and the draw skips them.
func TestFaultSchedulePinned(t *testing.T) {
	kinds := append(append([]FaultKind(nil), killKinds...), RingFaultKinds...)
	inj := NewFaultInjector(FaultPlan{Seed: 42, EveryN: 3, SkipFirst: 2, Max: 30, Kinds: kinds})
	for call := 1; call <= 120; call++ {
		switch call {
		case 46:
			inj.Suspend()
		case 56:
			inj.Resume()
		}
		inj.nextKind()
	}
	want := []FaultEvent{
		{3, FaultStalledConsumer}, {6, FaultKillBeforeResponse}, {9, FaultKillMidRequest},
		{12, FaultArenaPoison}, {15, FaultKillMidResponse}, {18, FaultArenaPoison},
		{21, FaultKillBeforeResponse}, {24, FaultKillBeforeRequest}, {27, FaultKillMidResponse},
		{30, FaultKillBetween}, {33, FaultKillBetween}, {36, FaultTornSlotPublish},
		{39, FaultKillBetween}, {42, FaultKillBetween}, {45, FaultKillBetween},
		{57, FaultKillBetween}, {60, FaultArenaPoison}, {63, FaultKillMidRequest},
		{66, FaultKillBeforeRequest}, {69, FaultKillBetween}, {72, FaultTornSlotPublish},
		{75, FaultKillMidResponse}, {78, FaultKillMidResponse}, {81, FaultKillBeforeRequest},
		{84, FaultKillBetween}, {87, FaultTornSlotPublish}, {90, FaultArenaPoison},
		{93, FaultKillMidResponse}, {96, FaultArenaPoison}, {99, FaultKillMidResponse},
	}
	if got := inj.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("events diverged from the pinned schedule:\n got %v\nwant %v", got, want)
	}
	if inj.Injected() != 30 {
		t.Fatalf("injected=%d, want 30", inj.Injected())
	}
}
