package ipc

import "checl/internal/vtime"

// Transport is the call surface proxy.Client drives, extracted from Conn
// so the framed stream and the shared-memory ring are interchangeable
// backends. Both latch down on a transport fault (every later call fails
// fast with an error matching ErrConnDown), both honour sequence-number
// replay dedupe against the same Server cache, and both report their byte
// traffic through the shared TransportStats layer.
type Transport interface {
	// Call invokes method with resp decoded/copied into resp (a pointer),
	// returning the bytes the call moved across the transport.
	Call(method string, req, resp any) (int64, error)
	// CallSeq is Call with an explicit dedupe sequence number (0 = never
	// deduped; non-zero must be unique per logical call).
	CallSeq(method string, seq uint64, req, resp any) (int64, error)
	// CallRaw is CallSeq with raw payloads both ways: a non-nil rawReq is
	// attached verbatim to the request, skipping any encoding, and the raw
	// parts of the response are returned in order, part k received into
	// into[k] when its capacity suffices (the returned slice then aliases
	// it).
	CallRaw(method string, seq uint64, req any, rawReq []byte, resp any, into [][]byte) ([][]byte, int64, error)

	// SetDeadline arms a per-call deadline on the virtual clock.
	SetDeadline(clock *vtime.Clock, timeout vtime.Duration)
	// SetMaxFrame bounds a single payload (request or response).
	SetMaxFrame(n int)
	// Stats exposes the transport's byte accounting.
	Stats() *TransportStats
	// Down reports whether the transport has been latched down.
	Down() bool
	// Close tears the transport down; further calls fail with ErrConnDown.
	Close() error
}

var (
	_ Transport = (*Conn)(nil)
	_ Transport = (*Ring)(nil)
)
