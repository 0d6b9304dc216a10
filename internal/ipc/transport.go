package ipc

// Transport is the call contract proxy.Client drives. Conn (the framed
// stream) and Ring (the shared-memory queues) both carry it, and both
// dispatch through the same Server: one route table, one serve body, one
// replay cache.
type Transport interface {
	// CallRaw invokes method. seq is the call's dedupe sequence number: 0
	// for an idempotent call, otherwise unique per logical call, so that a
	// re-send after a lost response is answered from the replay cache
	// instead of re-executed. A non-nil rawReq is attached verbatim to the
	// request, skipping any encoding; the response is stored in resp (a
	// pointer), and its raw parts are returned in order, part k received
	// into into[k] when its capacity suffices (the returned slice then
	// aliases it). n is the bytes the call moved across the carrier. A
	// carrier fault latches the transport down: this and every later call
	// fails with an error matching ErrConnDown.
	CallRaw(method string, seq uint64, req any, rawReq []byte, resp any, into [][]byte) (parts [][]byte, n int64, err error)
	// Close tears the transport down; further calls fail with ErrConnDown.
	Close() error
}

var (
	_ Transport = (*Conn)(nil)
	_ Transport = (*Ring)(nil)
)
