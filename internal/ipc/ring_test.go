package ipc

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// ringPair builds a served Ring on s, torn down with the test.
func ringPair(t *testing.T, s *Server, inj *FaultInjector) *Ring {
	t.Helper()
	r := NewRing(s, inj)
	done := make(chan struct{})
	go func() { defer close(done); r.Serve() }()
	t.Cleanup(func() {
		r.Close()
		<-done
	})
	return r
}

func TestSPSCOrderedUnderConcurrency(t *testing.T) {
	q := newSPSC[int](8) // tiny: force wraparound and full-queue parking
	const total = 50_000
	errs := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := q.push(i); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < total; i++ {
		v, err := q.pop(ringServerSpin)
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		if v != i {
			t.Fatalf("pop %d = %d, want %d (FIFO violated)", i, v, i)
		}
	}
	if err := <-errs; err != nil {
		t.Fatalf("push: %v", err)
	}
	q.close()
	if _, err := q.pop(1); !errors.Is(err, errRingClosed) {
		t.Fatalf("pop after close = %v, want errRingClosed", err)
	}
	if err := q.push(1); !errors.Is(err, errRingClosed) {
		t.Fatalf("push after close = %v, want errRingClosed", err)
	}
}

func TestRingCallRoundtrip(t *testing.T) {
	s := NewServer()
	Register(s, "add", func(r addReq) (addResp, error) {
		return addResp{Sum: r.A + r.B}, nil
	})
	ring := ringPair(t, s, nil)
	var resp addResp
	n, err := callSeq(ring, "add", 0, addReq{A: 2, B: 40}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sum != 42 {
		t.Errorf("sum = %d", resp.Sum)
	}
	if n != 2*ringSlotBytes {
		t.Errorf("modelled bytes = %d, want %d (two slots)", n, 2*ringSlotBytes)
	}
}

func TestRingErrorPropagation(t *testing.T) {
	s := NewServer()
	Register(s, "fail", func(r addReq) (addResp, error) {
		return addResp{}, &codedError{op: "clFail", detail: "nope"}
	})
	ring := ringPair(t, s, nil)
	var resp addResp
	_, err := callSeq(ring, "fail", 0, addReq{}, &resp)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Op != "clFail" || re.Status != -42 || re.Detail != "nope" {
		t.Errorf("remote error = %+v", re)
	}
	// The ring survives handler errors, like the framed stream.
	Register(s, "ok", func(r addReq) (addResp, error) { return addResp{Sum: 1}, nil })
	if _, err := callSeq(ring, "ok", 0, addReq{}, &resp); err != nil || resp.Sum != 1 {
		t.Errorf("post-error call: %v, %d", err, resp.Sum)
	}
	if _, err := callSeq(ring, "nosuch", 0, addReq{}, &resp); err == nil {
		t.Error("unknown method should error")
	}
}

func TestRingRawPayloadAndInto(t *testing.T) {
	s := NewServer()
	RegisterRaw(s, "double", func(r addReq, payload []byte) (addResp, []byte, error) {
		out := make([]byte, len(payload))
		for i, b := range payload {
			out[i] = b * 2
		}
		return addResp{Sum: len(payload)}, out, nil
	})
	// A parts handler writes into the caller's buffer: zero copy.
	RegisterParts(s, "fill", func(r addReq, _ []byte, into [][]byte) (addResp, [][]byte, error) {
		var buf []byte
		if len(into) > 0 {
			buf = into[0]
		}
		if cap(buf) < r.A {
			buf = make([]byte, r.A)
		}
		buf = buf[:r.A]
		for i := range buf {
			buf[i] = byte(r.B)
		}
		return addResp{Sum: r.A}, [][]byte{buf}, nil
	})
	ring := ringPair(t, s, nil)

	var resp addResp
	payload := []byte{1, 2, 3, 4}
	raw, n, err := one(ring.CallRaw("double", 7, addReq{}, payload, &resp, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, []byte{2, 4, 6, 8}) || resp.Sum != 4 {
		t.Errorf("raw = %v sum = %d", raw, resp.Sum)
	}
	if n != 2*ringSlotBytes+int64(len(payload))+int64(len(raw)) {
		t.Errorf("modelled bytes = %d", n)
	}

	dst := make([]byte, 0, 1024)
	raw, _, err = one(ring.CallRaw("fill", 0, addReq{A: 512, B: 9}, nil, &resp, [][]byte{dst}))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 512 || raw[0] != 9 || raw[511] != 9 {
		t.Fatalf("into result wrong: len=%d", len(raw))
	}
	if &raw[0] != &dst[:1][0] {
		t.Error("into path did not land zero-copy in the caller's buffer")
	}
}

func TestRingReplayDedupe(t *testing.T) {
	s := NewServer()
	var execs atomic.Int64
	Register(s, "bump", func(r addReq) (addResp, error) {
		execs.Add(1)
		return addResp{Sum: r.A}, nil
	})
	ring := ringPair(t, s, nil)
	var resp addResp
	if _, err := callSeq(ring, "bump", 41, addReq{A: 7}, &resp); err != nil {
		t.Fatal(err)
	}
	// A second ring generation on the same server (the redial-after-fault
	// shape) re-sends the same sequence number: answered from cache.
	ring2 := ringPair(t, s, nil)
	resp = addResp{}
	if _, err := callSeq(ring2, "bump", 41, addReq{A: 7}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Sum != 7 {
		t.Errorf("replayed resp = %+v", resp)
	}
	if got := execs.Load(); got != 1 {
		t.Errorf("handler executed %d times, want 1 (dedupe)", got)
	}
	if s.ReplayedCalls() != 1 {
		t.Errorf("ReplayedCalls = %d", s.ReplayedCalls())
	}
}

// TestRingFaultMatrix drives every fault kind through the ring and checks
// the protocol position it models: whether the handler executed, and that
// the ring latches down with an ErrConnDown-class error.
func TestRingFaultMatrix(t *testing.T) {
	cases := []struct {
		kind     FaultKind
		executed bool
	}{
		{FaultKillBeforeRequest, false},
		{FaultKillMidRequest, false},
		{FaultTornSlotPublish, false},
		{FaultStalledConsumer, false},
		{FaultKillBeforeResponse, true},
		{FaultKillBetween, true},
		{FaultKillMidResponse, true},
		{FaultArenaPoison, true},
		{FaultCrashServer, false},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			s := NewServer()
			var execs atomic.Int64
			Register(s, "op", func(r addReq) (addResp, error) {
				execs.Add(1)
				return addResp{}, nil
			})
			inj := NewFaultInjector(FaultPlan{Seed: 1, EveryN: 1, Kinds: []FaultKind{tc.kind}})
			var crashed atomic.Bool
			inj.SetCrashServer(func() { crashed.Store(true) })
			ring := ringPair(t, s, inj)
			var resp addResp
			_, err := callSeq(ring, "op", 1, addReq{}, &resp)
			if !errors.Is(err, ErrConnDown) {
				t.Fatalf("err = %v, want ErrConnDown class", err)
			}
			if got := execs.Load() == 1; got != tc.executed {
				t.Errorf("executed = %v, want %v", got, tc.executed)
			}
			if tc.kind == FaultCrashServer && !crashed.Load() {
				t.Error("crash hook did not fire")
			}
			// Every further call fails fast.
			requireDown(t, ring)
		})
	}
}

func TestRingFaultKindsInertOnFramed(t *testing.T) {
	// A plan mixing ring-only kinds must leave framed calls unfaulted.
	s := NewServer()
	Register(s, "ok", func(r addReq) (addResp, error) { return addResp{Sum: 1}, nil })
	inj := NewFaultInjector(FaultPlan{Seed: 3, EveryN: 1, Kinds: RingFaultKinds})
	conn := faultPair(t, s, inj)
	var resp addResp
	for i := 0; i < 4; i++ {
		if _, err := conn.Call("ok", addReq{}, &resp); err != nil || resp.Sum != 1 {
			t.Fatalf("call %d under ring-only kinds: %v", i, err)
		}
	}
	if inj.Injected() == 0 {
		t.Error("injector should still count the (inert) faults")
	}
}

func TestRingMaxFrame(t *testing.T) {
	s := NewServer()
	RegisterRaw(s, "echo", func(r addReq, payload []byte) (addResp, []byte, error) {
		return addResp{}, append([]byte(nil), payload...), nil
	})
	ring := ringPair(t, s, nil)
	ring.maxFrame = 64
	var resp addResp
	_, _, err := ring.CallRaw("echo", 1, addReq{}, make([]byte, 1024), &resp, nil)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized payload err = %v, want ErrFrameTooLarge", err)
	}
	// A frame violation latches the ring down, like the framed stream.
	requireDown(t, ring)
}

// TestRingConcurrentSubmitComplete is the -race gate: many goroutines
// hammering synchronous calls through one ring.
func TestRingConcurrentSubmitComplete(t *testing.T) {
	s := NewServer()
	var sum atomic.Int64
	Register(s, "acc", func(r addReq) (addResp, error) {
		sum.Add(int64(r.A))
		return addResp{Sum: r.A}, nil
	})
	ring := ringPair(t, s, nil)
	var wg sync.WaitGroup
	const workers, per = 8, 200
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var resp addResp
				if _, err := callSeq(ring, "acc", 0, addReq{A: 1}, &resp); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if got := sum.Load(); got != workers*per {
		t.Errorf("executed sum = %d, want %d", got, workers*per)
	}
}
