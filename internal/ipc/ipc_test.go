package ipc

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type addReq struct{ A, B int }
type addResp struct{ Sum int }

type codedError struct{ op, detail string }

func (e *codedError) Error() string { return e.op + ": " + e.detail }
func (e *codedError) ErrorCode() (string, int32, string) {
	return e.op, -42, e.detail
}

func pair(t *testing.T, s *Server) *Conn {
	t.Helper()
	a, b := net.Pipe()
	go s.ServeConn(b)
	conn := NewConn(a)
	t.Cleanup(func() { conn.Close() })
	return conn
}

// callSeq drives either carrier through the one call contract: a gob-only
// call under seq, with no raw parts either way.
func callSeq(tr Transport, method string, seq uint64, req, resp any) (int64, error) {
	_, n, err := tr.CallRaw(method, seq, req, nil, resp, nil)
	return n, err
}

// requireDown asserts that tr is latched down: the next call fails with
// ErrConnDown and moves no bytes.
func requireDown(t *testing.T, tr Transport) {
	t.Helper()
	var resp addResp
	if n, err := callSeq(tr, "add", 0, addReq{}, &resp); !errors.Is(err, ErrConnDown) || n != 0 {
		t.Errorf("call on a downed transport: %d bytes, err %v; want a fast ErrConnDown", n, err)
	}
}

func TestCallRoundtrip(t *testing.T) {
	s := NewServer()
	Register(s, "add", func(r addReq) (addResp, error) {
		return addResp{Sum: r.A + r.B}, nil
	})
	conn := pair(t, s)
	var resp addResp
	n, err := conn.Call("add", addReq{A: 2, B: 40}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sum != 42 {
		t.Errorf("sum = %d", resp.Sum)
	}
	if n <= 0 {
		t.Error("wire bytes not counted")
	}
}

func TestErrorPropagation(t *testing.T) {
	s := NewServer()
	Register(s, "fail", func(r addReq) (addResp, error) {
		return addResp{}, &codedError{op: "clFail", detail: "nope"}
	})
	Register(s, "plain", func(r addReq) (addResp, error) {
		return addResp{}, errors.New("vanilla")
	})
	conn := pair(t, s)

	var resp addResp
	_, err := conn.Call("fail", addReq{}, &resp)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Op != "clFail" || re.Status != -42 || re.Detail != "nope" {
		t.Errorf("remote error = %+v", re)
	}

	_, err = conn.Call("plain", addReq{}, &resp)
	if !errors.As(err, &re) || !strings.Contains(re.Detail, "vanilla") {
		t.Errorf("plain error = %v", err)
	}
	// The connection survives errors: a normal call still works.
	Register(s, "ok", func(r addReq) (addResp, error) { return addResp{Sum: 1}, nil })
	if _, err := conn.Call("ok", addReq{}, &resp); err != nil || resp.Sum != 1 {
		t.Errorf("post-error call: %v, %d", err, resp.Sum)
	}
}

func TestUnknownMethodTerminates(t *testing.T) {
	s := NewServer()
	conn := pair(t, s)
	var resp addResp
	_, err := conn.Call("nosuch", addReq{}, &resp)
	if err == nil {
		t.Fatal("unknown method should error")
	}
}

func TestConcurrentCalls(t *testing.T) {
	s := NewServer()
	Register(s, "echo", func(r addReq) (addResp, error) {
		return addResp{Sum: r.A}, nil
	})
	conn := pair(t, s)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp addResp
			_, err := conn.Call("echo", addReq{A: i}, &resp)
			if err == nil && resp.Sum != i {
				err = errors.New("wrong echo")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

func TestCleanCloseEndsServe(t *testing.T) {
	s := NewServer()
	a, b := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- s.ServeConn(b) }()
	conn := NewConn(a)
	conn.Close()
	if err := <-done; err != nil {
		t.Errorf("ServeConn after clean close = %v, want nil", err)
	}
}

func TestBytesScaleWithPayload(t *testing.T) {
	type blobReq struct{ Data []byte }
	type blobResp struct{ N int }
	s := NewServer()
	Register(s, "blob", func(r blobReq) (blobResp, error) { return blobResp{N: len(r.Data)}, nil })
	conn := pair(t, s)
	var r blobResp
	small, err := conn.Call("blob", blobReq{Data: make([]byte, 100)}, &r)
	if err != nil {
		t.Fatal(err)
	}
	big, err := conn.Call("blob", blobReq{Data: make([]byte, 100_000)}, &r)
	if err != nil {
		t.Fatal(err)
	}
	if big < small+99_000 {
		t.Errorf("payload not reflected in wire bytes: small=%d big=%d", small, big)
	}
}

// TestReplayWaitsForInflightCall pins the dedupe contract for the window a
// transport fault opens: the original connection dies while its handler is
// still executing, the client re-sends the same seq on a fresh connection,
// and the replay must wait for the stale execution and serve its cached
// response — never run the handler a second time (the runtime behind real
// handlers is not safe for concurrent mutation).
func TestReplayWaitsForInflightCall(t *testing.T) {
	s := NewServer()
	var calls int32
	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	Register(s, "slow", func(r addReq) (addResp, error) {
		atomic.AddInt32(&calls, 1)
		entered <- struct{}{}
		<-gate
		return addResp{Sum: r.A + r.B}, nil
	})

	// Original call on conn1; its handler parks inside the server.
	conn1 := pair(t, s)
	origErr := make(chan error, 1)
	go func() {
		var resp addResp
		_, err := callSeq(conn1, "slow", 7, addReq{A: 2, B: 40}, &resp)
		origErr <- err
	}()
	<-entered

	// The transport fault: the first connection dies mid-call while the
	// handler is still running. The client replays seq 7 on a fresh
	// connection generation, like Conn redial does.
	conn2 := pair(t, s)
	replayed := make(chan addResp, 1)
	go func() {
		var resp addResp
		if _, err := callSeq(conn2, "slow", 7, addReq{A: 2, B: 40}, &resp); err != nil {
			t.Errorf("replayed call: %v", err)
		}
		replayed <- resp
	}()

	// The replay must block on the in-flight claim, not re-enter the
	// handler.
	select {
	case <-entered:
		t.Fatal("replayed seq re-entered the handler while the original was in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(gate) // stale execution completes; the replay serves its response
	resp := <-replayed
	if resp.Sum != 42 {
		t.Errorf("replayed sum = %d, want 42", resp.Sum)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Errorf("handler ran %d times, want 1", got)
	}
	if got := s.ReplayedCalls(); got != 1 {
		t.Errorf("ReplayedCalls = %d, want 1", got)
	}
	conn1.Close()
	<-origErr
}

// TestReplayContractBothCarriers pins the one replay contract on both
// carriers. A re-sent sequenced call gets its first answer, even when the
// handler has since written into the memory it returned; an unknown
// method sent with a sequence number claims it like any other call; and a
// replayed parts answer lands in the caller's destination.
func TestReplayContractBothCarriers(t *testing.T) {
	for _, carrier := range []string{"framed", "ring"} {
		t.Run(carrier, func(t *testing.T) {
			var runs atomic.Int32
			owned := []byte("first")
			s := NewServer()
			RegisterRaw(s, "stamp", func(rawReqHdr, []byte) (rawRespHdr, []byte, error) {
				runs.Add(1)
				return rawRespHdr{N: len(owned)}, owned, nil
			})
			RegisterParts(s, "parts", func(rawReqHdr, []byte, [][]byte) (rawRespHdr, [][]byte, error) {
				runs.Add(1)
				return rawRespHdr{N: 1}, [][]byte{[]byte("part")}, nil
			})
			var tr Transport
			if carrier == "ring" {
				tr = ringPair(t, s, nil)
			} else {
				tr = pair(t, s)
			}
			var resp rawRespHdr

			got, _, err := one(tr.CallRaw("stamp", 5, rawReqHdr{}, nil, &resp, nil))
			if err != nil || string(got) != "first" {
				t.Fatalf("first send: %q, %v", got, err)
			}
			copy(owned, "LATER")
			got, _, err = one(tr.CallRaw("stamp", 5, rawReqHdr{}, nil, &resp, nil))
			if err != nil || string(got) != "first" {
				t.Errorf("replay: %q, %v; want the first answer %q", got, err, "first")
			}

			for send := 1; send <= 2; send++ {
				_, _, err := tr.CallRaw("nosuch", 6, rawReqHdr{}, nil, &resp, nil)
				var re *RemoteError
				if !errors.As(err, &re) || re.Status != -9998 {
					t.Fatalf("unknown method, send %d: %v; want status -9998", send, err)
				}
			}
			if got := s.ReplayedCalls(); got != 2 {
				t.Errorf("ReplayedCalls = %d, want 2 (the second sends of seq 5 and seq 6)", got)
			}

			if _, _, err := tr.CallRaw("parts", 7, rawReqHdr{}, nil, &resp, nil); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, 0, 16)
			parts, _, err := tr.CallRaw("parts", 7, rawReqHdr{}, nil, &resp, [][]byte{dst})
			if err != nil || len(parts) != 1 || string(parts[0]) != "part" {
				t.Fatalf("replayed parts: %q, %v", parts, err)
			}
			if &parts[0][0] != &dst[:1][0] {
				t.Error("the replayed part did not land in the caller's destination")
			}
			if got := runs.Load(); got != 2 {
				t.Errorf("handlers ran %d times, want 2 (one per sequence number)", got)
			}
		})
	}
}
