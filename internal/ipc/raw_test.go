package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

type rawReqHdr struct{ N int }
type rawRespHdr struct{ N int }

// one unwraps a CallRaw result that carries at most one raw part.
func one(parts [][]byte, n int64, err error) ([]byte, int64, error) {
	if len(parts) == 0 {
		return nil, n, err
	}
	return parts[0], n, err
}

// TestRawRequestRoundTrip: a request payload travels as a verbatim frame
// after the gob body and arrives intact; the response payload comes back
// the same way.
func TestRawRequestRoundTrip(t *testing.T) {
	s := NewServer()
	RegisterRaw(s, "xor", func(r rawReqHdr, payload []byte) (rawRespHdr, []byte, error) {
		if len(payload) != r.N {
			t.Errorf("handler payload = %d bytes, header says %d", len(payload), r.N)
		}
		// The inbound payload is pooled — copy before transforming.
		out := make([]byte, len(payload))
		for i, b := range payload {
			out[i] = b ^ 0xFF
		}
		return rawRespHdr{N: len(out)}, out, nil
	})
	conn := pair(t, s)

	payload := bytes.Repeat([]byte{0x5A}, 1<<20)
	var resp rawRespHdr
	rawResp, n, err := one(conn.CallRaw("xor", 0, rawReqHdr{N: len(payload)}, payload, &resp, nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.N != len(payload) || len(rawResp) != len(payload) {
		t.Fatalf("sizes: resp.N=%d rawResp=%d", resp.N, len(rawResp))
	}
	for i, b := range rawResp {
		if b != 0x5A^0xFF {
			t.Fatalf("rawResp[%d] = %#x", i, b)
		}
	}
	if n < int64(2*len(payload)) {
		t.Errorf("wire bytes = %d, want at least both payloads (%d)", n, 2*len(payload))
	}
}

// TestRawResponseOnly: a handler may attach a raw response to a plain
// gob request, received via CallRecvRawInto.
func TestRawResponseOnly(t *testing.T) {
	s := NewServer()
	RegisterRaw(s, "fill", func(r rawReqHdr, payload []byte) (rawRespHdr, []byte, error) {
		if payload != nil {
			t.Error("gob-only request delivered a payload")
		}
		return rawRespHdr{N: r.N}, bytes.Repeat([]byte{7}, r.N), nil
	})
	conn := pair(t, s)
	var resp rawRespHdr
	raw, _, err := conn.CallRecvRawInto("fill", 0, rawReqHdr{N: 4096}, &resp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4096 || raw[0] != 7 || raw[4095] != 7 {
		t.Fatalf("raw response corrupted: len=%d", len(raw))
	}
}

// TestRawFramingSurvivesErrorsAndMixing: error responses carry no raw
// frame; after an error — and after raw traffic in general — the framed
// stream stays aligned and plain gob calls keep working.
func TestRawFramingSurvivesErrorsAndMixing(t *testing.T) {
	s := NewServer()
	RegisterRaw(s, "reject", func(r rawReqHdr, payload []byte) (rawRespHdr, []byte, error) {
		return rawRespHdr{}, nil, errors.New("no thanks")
	})
	RegisterRaw(s, "echo", func(r rawReqHdr, payload []byte) (rawRespHdr, []byte, error) {
		return rawRespHdr{N: len(payload)}, append([]byte(nil), payload...), nil
	})
	Register(s, "add", func(r addReq) (addResp, error) { return addResp{Sum: r.A + r.B}, nil })
	conn := pair(t, s)

	// A raw-carrying request whose handler fails: the error comes back,
	// no stray raw frame is left in the stream.
	var rh rawRespHdr
	if _, _, err := one(conn.CallRaw("reject", 0, rawReqHdr{N: 3}, []byte{1, 2, 3}, &rh, nil)); err == nil {
		t.Fatal("rejected raw call returned nil error")
	}
	// Gob-only call right after the error.
	var ar addResp
	if _, err := conn.Call("add", addReq{A: 20, B: 22}, &ar); err != nil || ar.Sum != 42 {
		t.Fatalf("gob call after raw error: %v, sum=%d", err, ar.Sum)
	}
	// Raw call after gob call.
	raw, _, err := one(conn.CallRaw("echo", 0, rawReqHdr{N: 5}, []byte{9, 8, 7, 6, 5}, &rh, nil))
	if err != nil || !bytes.Equal(raw, []byte{9, 8, 7, 6, 5}) {
		t.Fatalf("raw call after gob call: %v, raw=%v", err, raw)
	}
}

// TestRawReplayDedupe: a sequenced raw call re-sent with the same seq is
// answered from the dedupe cache — the handler does not run twice and
// the cached raw response is returned verbatim (the PR-2 crash-retry
// contract extended to raw frames).
func TestRawReplayDedupe(t *testing.T) {
	var runs atomic.Int64
	s := NewServer()
	RegisterRaw(s, "once", func(r rawReqHdr, payload []byte) (rawRespHdr, []byte, error) {
		runs.Add(1)
		return rawRespHdr{N: len(payload)}, append([]byte(nil), payload...), nil
	})
	conn := pair(t, s)

	payload := []byte("exactly-once")
	var resp rawRespHdr
	first, _, err := one(conn.CallRaw("once", 41, rawReqHdr{N: len(payload)}, payload, &resp, nil))
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := one(conn.CallRaw("once", 41, rawReqHdr{N: len(payload)}, payload, &resp, nil))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("handler ran %d times for one seq, want 1", runs.Load())
	}
	if !bytes.Equal(first, second) || !bytes.Equal(second, payload) {
		t.Errorf("replayed raw response diverged: %q vs %q", first, second)
	}
}

// TestRawPartsLandInDestinations: a RegisterParts handler answers with a
// list of parts, each received into the caller's matching destination when
// its capacity suffices — on both transports. On the framed one the
// handler is lent the connection's scratch, which is what the previous
// unsequenced call returned, and never for a sequenced call, whose parts
// the replay cache pins.
func TestRawPartsLandInDestinations(t *testing.T) {
	for _, tr := range []string{"framed", "ring"} {
		t.Run(tr, func(t *testing.T) {
			var lent [][]int // capacities of the into list, per call
			s := NewServer()
			RegisterParts(s, "parts", func(r rawReqHdr, _ []byte, into [][]byte) (rawRespHdr, [][]byte, error) {
				caps := []int{}
				var parts [][]byte
				for k := 0; k < r.N; k++ {
					var dst []byte
					if k < len(into) {
						caps = append(caps, cap(into[k]))
						dst = into[k][:0]
					}
					if cap(dst) < 100*(k+1) {
						dst = make([]byte, 0, 100*(k+1))
					}
					parts = append(parts, append(dst, bytes.Repeat([]byte{byte(k + 1)}, 100*(k+1))...))
				}
				lent = append(lent, caps)
				return rawRespHdr{N: r.N}, parts, nil
			})
			var tp Transport = pair(t, s)
			if tr == "ring" {
				tp = ringPair(t, s, nil)
			}
			call := func(seq uint64, into [][]byte) [][]byte {
				t.Helper()
				var resp rawRespHdr
				parts, _, err := tp.CallRaw("parts", seq, rawReqHdr{N: 3}, nil, &resp, into)
				if err != nil || len(parts) != 3 {
					t.Fatalf("call: %v, %d parts", err, len(parts))
				}
				for k, p := range parts {
					if !bytes.Equal(p, bytes.Repeat([]byte{byte(k + 1)}, 100*(k+1))) {
						t.Fatalf("part %d corrupted (%d bytes)", k, len(p))
					}
				}
				return parts
			}

			big, small := make([]byte, 0, 512), make([]byte, 0, 8)
			parts := call(0, [][]byte{big, small})
			if &parts[0][0] != &big[:1][0] {
				t.Error("part 0 did not land in the destination that had the capacity")
			}
			if cap(parts[1]) == cap(small) {
				t.Error("part 1 claims to sit in a destination too small for it")
			}
			call(0, nil)
			call(9, nil)
			switch tr {
			case "ring":
				// The handler sees the client's own list and nothing else.
				if want := [][]int{{512, 8}, {}, {}}; !reflect.DeepEqual(lent, want) {
					t.Errorf("ring handler was lent %v, want %v", lent, want)
				}
			case "framed":
				// First call: empty scratch. Second: what the first returned.
				// Third, sequenced: nothing.
				if want := [][]int{{}, {100, 200, 300}, {}}; !reflect.DeepEqual(lent, want) {
					t.Errorf("framed handler was lent %v, want %v", lent, want)
				}
			}
		})
	}
}

// scriptConn is a connection whose peer has already said everything it
// will say: reads drain the script, writes vanish.
type scriptConn struct{ r *bytes.Reader }

func (c scriptConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (scriptConn) Write(p []byte) (int, error)  { return len(p), nil }
func (scriptConn) Close() error                 { return nil }

// teeConn records what the client end of a connection sends.
type teeConn struct {
	net.Conn
	sent *bytes.Buffer
}

func (c teeConn) Write(p []byte) (int, error) {
	c.sent.Write(p)
	return c.Conn.Write(p)
}

// firstFramingDefect walks stream as consecutive [4-byte length][body]
// frames — gob and raw frames share the header — and names the first
// defect a reader must hit: nil when the stream ends on a boundary.
func firstFramingDefect(stream []byte, max int) error {
	for len(stream) > 0 {
		if len(stream) < 4 {
			return ErrTruncatedFrame
		}
		size := int(binary.BigEndian.Uint32(stream))
		if size > max {
			return ErrFrameTooLarge
		}
		if len(stream)-4 < size {
			return ErrTruncatedFrame
		}
		stream = stream[4+size:]
	}
	return nil
}

// FuzzFrameHeader feeds arbitrary bytes to a server as one connection's
// request stream, through frameReader's Read and rawHeader both: it never
// panics, never allocates for a header above the frame limit, and reports
// ErrTruncatedFrame or ErrFrameTooLarge only for a stream that has that
// defect. Seeds: what a client really sends for a plain call, a raw call
// and an unknown method, whole, cut short, and under an oversized header.
func FuzzFrameHeader(f *testing.F) {
	const max = 64 << 10
	newServer := func() *Server {
		s := NewServer()
		s.maxFrame = max
		Register(s, "add", func(r addReq) (addResp, error) { return addResp{Sum: r.A + r.B}, nil })
		RegisterRaw(s, "echo", func(r rawReqHdr, payload []byte) (rawRespHdr, []byte, error) {
			return rawRespHdr{N: len(payload)}, append([]byte(nil), payload...), nil
		})
		return s
	}
	var sent bytes.Buffer
	a, b := net.Pipe()
	go newServer().ServeConn(b)
	conn := NewConn(teeConn{a, &sent})
	var ar addResp
	var rr rawRespHdr
	for _, call := range []func() error{
		func() error { _, err := conn.Call("add", addReq{A: 1, B: 2}, &ar); return err },
		func() error {
			_, _, err := conn.CallRaw("echo", 7, rawReqHdr{N: 100}, make([]byte, 100), &rr, nil)
			return err
		},
		func() error { _, _, err := conn.CallRaw("nope", 0, rawReqHdr{}, []byte{1}, &rr, nil); return err },
	} {
		from := sent.Len()
		if err := call(); err != nil {
			var re *RemoteError
			if !errors.As(err, &re) {
				f.Fatal(err)
			}
		}
		stream := append([]byte(nil), sent.Bytes()[from:]...)
		f.Add(stream)
		f.Add(stream[:len(stream)-1])
		f.Add(stream[:2])
		big := append([]byte(nil), stream...)
		binary.BigEndian.PutUint32(big, 0xFFFFFFFF)
		f.Add(big)
	}
	conn.Close()
	f.Add(sent.Bytes())

	f.Fuzz(func(t *testing.T, stream []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := newServer().ServeConn(scriptConn{bytes.NewReader(stream)})
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20+8*uint64(len(stream)) {
			t.Fatalf("serving %d bytes under a %d-byte frame limit allocated %d", len(stream), max, got)
		}
		defect := firstFramingDefect(stream, max)
		for _, kind := range []error{ErrTruncatedFrame, ErrFrameTooLarge} {
			if errors.Is(err, kind) && defect != kind {
				t.Fatalf("server reports %v; the stream's first framing defect is %v", err, defect)
			}
		}
	})
}
