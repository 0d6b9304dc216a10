// Package ipc carries the calls between an application process and its
// API proxy. There is one call contract, Transport, and two carriers of
// it: Conn, a framed gob stream over any io.ReadWriteCloser (an in-memory
// net.Pipe for a same-node proxy, a TCP socket for a remote one), and
// Ring, a pair of shared-memory queues (ring.go). Both dispatch through
// one Server: one route per method, and one serve body that runs the
// handler and the exactly-once replay of sequenced calls.
//
// On the framed stream every gob message travels inside an explicit
// length-prefixed frame (4-byte big-endian length + payload). The framing
// hardens the wire format: oversized frames are rejected with
// ErrFrameTooLarge and a connection that dies mid-frame surfaces
// ErrTruncatedFrame instead of a hang or a raw io.ErrUnexpectedEOF. Once a
// carrier has failed it is latched down and every further call fails fast
// with an error matching ErrConnDown, which is what proxy.Client keys its
// retry/failover on.
//
// Bulk payloads (buffer transfers, batched enqueue data) can bypass gob
// entirely: a call whose request envelope sets Raw is followed — after the
// gob-encoded request body — by one raw frame carrying the payload bytes
// verbatim, and a response envelope announces in Raw how many raw frames
// follow the response body, one per part the handler returned. Raw frames
// use the identical 4-byte-length framing, so the fault injector's frame
// tracker and the byte counter see them like any other frame, but they
// skip the gob reflection/copy cost that dominates the hot path.
//
// Every call reports the bytes it moved across its carrier, so callers
// can charge the modelled cost of the extra process-to-process copy (the
// dominant CheCL overhead for transfer-bound programs, §IV-A).
package ipc

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// DefaultMaxFrame bounds a single frame (gob body or raw payload).
// The largest legitimate payloads are buffer transfers, well under this.
const DefaultMaxFrame = 256 << 20

// replayWindow bounds the server's request-dedupe cache: responses to the
// most recent replayWindow sequenced (mutating) calls are kept so a client
// that lost a response can safely re-send after reconnecting.
const replayWindow = 512

// replayMaxBytes additionally bounds the raw payload bytes the dedupe
// cache may pin (batched readbacks can be large); the oldest entries are
// evicted first, like the count bound.
const replayMaxBytes = 64 << 20

// Typed transport failures. ErrConnDown is the umbrella the retry layer
// matches with errors.Is; the frame errors describe why the stream is
// unusable.
var (
	// ErrConnDown marks a connection that can no longer carry calls.
	ErrConnDown = errors.New("ipc: connection down")
	// ErrFrameTooLarge rejects a frame above the configured maximum.
	ErrFrameTooLarge = errors.New("ipc: frame exceeds maximum size")
	// ErrTruncatedFrame reports a stream that ended inside a frame.
	ErrTruncatedFrame = errors.New("ipc: truncated frame")
)

// DownError wraps the transport failure that took a connection down.
// errors.Is(err, ErrConnDown) is true for every DownError.
type DownError struct {
	Method string // the call in flight when the connection failed
	Err    error  // the underlying transport error
}

func (e *DownError) Error() string {
	return fmt.Sprintf("ipc: %s: connection down: %v", e.Method, e.Err)
}

func (e *DownError) Unwrap() error { return e.Err }

// Is reports ErrConnDown so callers can match the class, not the cause.
func (e *DownError) Is(target error) bool { return target == ErrConnDown }

// reqEnvelope precedes every request body on the wire. Seq is non-zero
// for mutating calls: the server remembers the response so a retry after
// a lost response is answered from cache instead of re-executed. Raw
// announces that one raw payload frame follows the gob request body.
type reqEnvelope struct {
	Method string
	Seq    uint64
	Raw    bool
}

// respEnvelope precedes every response body. A non-empty ErrOp signals a
// remote error; the body (and any raw frame) is then omitted. Raw is the
// number of raw payload frames that follow the gob response body.
type respEnvelope struct {
	ErrOp     string
	ErrDetail string
	ErrStatus int32
	Raw       int
}

// RemoteError is an error propagated from the server side of a call.
type RemoteError struct {
	Op     string
	Detail string
	Status int32
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote %s failed (status %d): %s", e.Op, e.Status, e.Detail)
}

// ErrorCoder lets server handlers attach a numeric status that survives
// the wire (ocl.Error implements the shape directly).
type ErrorCoder interface {
	error
	ErrorCode() (op string, status int32, detail string)
}

// CallFaulter is implemented by fault-injecting transports (see fault.go).
// Conn invokes it at the top of every call so the injector can arm one
// fault per call and align kills with frame boundaries.
type CallFaulter interface {
	CallStarting() error
}

// countingRWC counts the bytes crossing an io.ReadWriteCloser in both
// directions. Only a call in progress reads or writes the stream, so n is
// guarded by Conn.mu.
type countingRWC struct {
	rwc io.ReadWriteCloser
	n   int64
}

func (c *countingRWC) Read(p []byte) (int, error) {
	n, err := c.rwc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingRWC) Write(p []byte) (int, error) {
	n, err := c.rwc.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingRWC) Close() error { return c.rwc.Close() }

// frameWriter buffers one gob message and emits it as a single
// length-prefixed frame on flush.
type frameWriter struct {
	w   io.Writer
	max int
	buf []byte
}

func (f *frameWriter) Write(p []byte) (int, error) {
	f.buf = append(f.buf, p...)
	return len(p), nil
}

func (f *frameWriter) flush() error {
	n := len(f.buf)
	f.buf = f.buf[:0]
	if n == 0 {
		return nil
	}
	if n > f.max {
		return fmt.Errorf("%d-byte frame: %w (max %d)", n, ErrFrameTooLarge, f.max)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	if _, err := f.w.Write(hdr[:]); err != nil {
		return err
	}
	// The payload was reset above, so re-slice the backing array the
	// append grew; buf[:0] keeps the bytes alive until the next Write.
	_, err := f.w.Write(f.buf[:n])
	return err
}

// writeRaw emits p verbatim as one length-prefixed frame, bypassing the
// gob buffer. Unlike flush it always writes a header, even for an empty
// payload, because the peer was promised exactly one frame.
func (f *frameWriter) writeRaw(p []byte) error {
	if len(p) > f.max {
		return fmt.Errorf("%d-byte raw frame: %w (max %d)", len(p), ErrFrameTooLarge, f.max)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
	if _, err := f.w.Write(hdr[:]); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	_, err := f.w.Write(p)
	return err
}

// frameReader presents the payloads of consecutive frames as one byte
// stream, validating each frame header as it goes. A clean peer close at
// a frame boundary is io.EOF; anywhere else it is ErrTruncatedFrame.
type frameReader struct {
	r         io.Reader
	max       int
	remaining int
}

func (f *frameReader) Read(p []byte) (int, error) {
	for f.remaining == 0 {
		var hdr [4]byte
		n, err := io.ReadFull(f.r, hdr[:])
		if err != nil {
			if err == io.ErrUnexpectedEOF || (err == io.EOF && n > 0) {
				return 0, fmt.Errorf("frame header cut short: %w", ErrTruncatedFrame)
			}
			return 0, err
		}
		size := int(binary.BigEndian.Uint32(hdr[:]))
		if size > f.max {
			return 0, fmt.Errorf("%d-byte frame: %w (max %d)", size, ErrFrameTooLarge, f.max)
		}
		f.remaining = size
	}
	if len(p) > f.remaining {
		p = p[:f.remaining]
	}
	n, err := f.r.Read(p)
	f.remaining -= n
	if f.remaining > 0 && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		err = fmt.Errorf("frame body short by %d bytes: %w", f.remaining, ErrTruncatedFrame)
	}
	if n > 0 && err == io.EOF {
		err = nil
	}
	return n, err
}

// ReadByte satisfies io.ByteReader so gob.NewDecoder uses the frameReader
// directly instead of wrapping it in a bufio.Reader. This matters for raw
// frames: a buffered decoder would read ahead past the gob body and
// swallow the raw frame that follows it.
func (f *frameReader) ReadByte() (byte, error) {
	var b [1]byte
	for {
		n, err := f.Read(b[:])
		if n == 1 {
			return b[0], nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// rawHeader reads the 4-byte header of a raw frame. The stream must sit
// exactly on a frame boundary — a gob body only partially consumed would
// mean the protocol got out of step.
func (f *frameReader) rawHeader() (int, error) {
	if f.remaining != 0 {
		return 0, fmt.Errorf("ipc: raw frame read with %d bytes of the previous frame pending", f.remaining)
	}
	var hdr [4]byte
	n, err := io.ReadFull(f.r, hdr[:])
	if err != nil {
		if err == io.ErrUnexpectedEOF || (err == io.EOF && n > 0) {
			return 0, fmt.Errorf("raw frame header cut short: %w", ErrTruncatedFrame)
		}
		return 0, err
	}
	size := int(binary.BigEndian.Uint32(hdr[:]))
	if size > f.max {
		return 0, fmt.Errorf("%d-byte raw frame: %w (max %d)", size, ErrFrameTooLarge, f.max)
	}
	return size, nil
}

// rawBody fills buf with the raw frame's payload; len(buf) must be the
// size rawHeader returned.
func (f *frameReader) rawBody(buf []byte) error {
	if _, err := io.ReadFull(f.r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("raw frame body cut short: %w", ErrTruncatedFrame)
		}
		return err
	}
	return nil
}

// readRawInto reads one raw frame into buf when its capacity suffices,
// allocating a fresh buffer only when it does not. This is the client
// half of the zero-copy read path: a caller that drains the same buffer
// repeatedly (checkpoint staging) reaches a steady state with no
// per-read allocation.
func (f *frameReader) readRawInto(buf []byte) ([]byte, error) {
	size, err := f.rawHeader()
	if err != nil {
		return nil, err
	}
	if cap(buf) >= size {
		buf = buf[:size]
	} else {
		buf = make([]byte, size)
	}
	if err := f.rawBody(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Conn is the framed carrier's client side. One call is outstanding at a
// time; Conn is safe for concurrent use.
type Conn struct {
	mu      sync.Mutex
	count   *countingRWC
	fw      *frameWriter
	fr      *frameReader
	enc     *gob.Encoder
	dec     *gob.Decoder
	faulter CallFaulter
	downErr error // first fatal transport error; latched
}

// NewConn wraps a byte stream as an RPC client connection. If rwc also
// implements CallFaulter (a fault-injecting transport), the hook runs at
// the top of every call.
func NewConn(rwc io.ReadWriteCloser) *Conn {
	count := &countingRWC{rwc: rwc}
	fw := &frameWriter{w: count, max: DefaultMaxFrame}
	fr := &frameReader{r: count, max: DefaultMaxFrame}
	c := &Conn{
		count: count,
		fw:    fw,
		fr:    fr,
		enc:   gob.NewEncoder(fw),
		dec:   gob.NewDecoder(fr),
	}
	if f, ok := rwc.(CallFaulter); ok {
		c.faulter = f
	}
	return c
}

// Call invokes method remotely: req is sent, the reply is decoded into
// resp (which must be a pointer). It returns the number of bytes the call
// moved across the transport.
func (c *Conn) Call(method string, req, resp any) (int64, error) {
	_, n, err := c.CallRaw(method, 0, req, nil, resp, nil)
	return n, err
}

// CallRaw implements Transport. A non-nil rawReq travels as one verbatim
// frame after the gob body, and each raw part of the response as a frame
// of its own, received into into[k] when its capacity suffices.
func (c *Conn) CallRaw(method string, seq uint64, req any, rawReq []byte, resp any, into [][]byte) ([][]byte, int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.downErr != nil {
		return nil, 0, &DownError{Method: method, Err: c.downErr}
	}
	if c.faulter != nil {
		if err := c.faulter.CallStarting(); err != nil {
			return nil, 0, c.fail(method, err)
		}
	}
	start := c.count.n
	parts, err := c.roundTrip(method, seq, req, rawReq, resp, into)
	return parts, c.count.n - start, err
}

// CallRecvRawInto is CallRaw for a response of at most one part and no
// request payload. The benchmark's bulk probe is compiled against it.
func (c *Conn) CallRecvRawInto(method string, seq uint64, req, resp any, buf []byte) ([]byte, int64, error) {
	parts, n, err := c.CallRaw(method, seq, req, nil, resp, [][]byte{buf})
	if len(parts) == 0 {
		return nil, n, err
	}
	return parts[0], n, err
}

// roundTrip writes one request and reads its response. Callers hold c.mu.
func (c *Conn) roundTrip(method string, seq uint64, req any, rawReq []byte, resp any, into [][]byte) ([][]byte, error) {
	if err := c.encodeFrame(reqEnvelope{Method: method, Seq: seq, Raw: rawReq != nil}); err != nil {
		return nil, c.fail(method, fmt.Errorf("sending %s envelope: %w", method, err))
	}
	if err := c.encodeFrame(req); err != nil {
		return nil, c.fail(method, fmt.Errorf("sending %s request: %w", method, err))
	}
	if rawReq != nil {
		if err := c.fw.writeRaw(rawReq); err != nil {
			return nil, c.fail(method, fmt.Errorf("sending %s payload: %w", method, err))
		}
	}
	var env respEnvelope
	if err := c.dec.Decode(&env); err != nil {
		return nil, c.fail(method, fmt.Errorf("receiving %s response envelope: %w", method, err))
	}
	if env.ErrOp != "" {
		return nil, &RemoteError{Op: env.ErrOp, Detail: env.ErrDetail, Status: env.ErrStatus}
	}
	if err := c.dec.Decode(resp); err != nil {
		return nil, c.fail(method, fmt.Errorf("receiving %s response: %w", method, err))
	}
	// Grown by append, a frame at a time: the announced count is the
	// peer's word and is never used to size anything.
	var parts [][]byte
	for k := 0; k < env.Raw; k++ {
		var dst []byte
		if k < len(into) {
			dst = into[k]
		}
		part, err := c.fr.readRawInto(dst)
		if err != nil {
			return nil, c.fail(method, fmt.Errorf("receiving %s payload: %w", method, err))
		}
		parts = append(parts, part)
	}
	return parts, nil
}

// encodeFrame writes one gob message as one frame.
func (c *Conn) encodeFrame(v any) error {
	if err := c.enc.Encode(v); err != nil {
		return err
	}
	return c.fw.flush()
}

// fail latches the connection down, closes the transport so any peer
// blocked on it wakes up, and wraps err as a DownError.
func (c *Conn) fail(method string, err error) error {
	if c.downErr == nil {
		c.downErr = err
		_ = c.count.Close()
	}
	return &DownError{Method: method, Err: err}
}

// Close tears down the transport. Further calls fail with ErrConnDown.
func (c *Conn) Close() error {
	err := c.count.Close()
	c.mu.Lock()
	if c.downErr == nil {
		c.downErr = errors.New("connection closed")
	}
	c.mu.Unlock()
	return err
}

// cachedResp is one call's answer: what the serve body hands a carrier
// to deliver, and what the replay cache keeps of a sequenced call.
type cachedResp struct {
	env  respEnvelope
	resp any
	raw  [][]byte
}

// rawLen sums the raw parts a response carries.
func rawLen(parts [][]byte) int64 {
	var n int64
	for _, p := range parts {
		n += int64(len(p))
	}
	return n
}

// route is one registered method, as both carriers dispatch it.
type route struct {
	// call runs the handler on the typed request value.
	call func(req any, payload []byte, into [][]byte) (resp any, parts [][]byte, err error)
	// decode reads the request body off the framed stream.
	decode func(dec *gob.Decoder) (any, error)
	// lend says whether the framed carrier lends the handler the
	// connection's scratch as into and keeps what it returns.
	lend bool
}

// Server dispatches RPCs to registered handlers. One Server may serve
// several connections over its lifetime (the proxy keeps its Server when
// the application redials after a transport fault), so the request-dedupe
// cache lives here rather than per connection.
type Server struct {
	mu       sync.Mutex
	routes   map[string]*route
	maxFrame int // inbound frame limit on the framed carrier

	seen      map[uint64]cachedResp
	seenFIFO  []uint64
	seenBytes int64
	replayed  int64
	inflight  map[uint64]chan struct{}
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		routes:   map[string]*route{},
		maxFrame: DefaultMaxFrame,
		seen:     map[uint64]cachedResp{},
		inflight: map[uint64]chan struct{}{},
	}
}

// route looks up method's route; nil when none is registered.
func (s *Server) route(method string) *route {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.routes[method]
}

// ReplayedCalls reports how many sequenced requests were answered from
// the dedupe cache instead of re-executed (i.e. retries of calls whose
// response was lost in a transport fault).
func (s *Server) ReplayedCalls() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayed
}

// serve answers one call on either carrier: rt is the method's route (nil
// when unknown), req the typed request, payload its raw payload and into
// the destinations lent for the response parts.
//
// A sequenced call (seq != 0) runs at most once. Its answer — an unknown
// method's error included — is cached with copies of its parts, so a
// handler that goes on using the memory it returned, or a client that
// writes into its destinations, cannot change what a replay delivers. A
// replay copies the cached parts into into where it can.
func (s *Server) serve(method string, seq uint64, rt *route, req any, payload []byte, into [][]byte) cachedResp {
	var done func(cachedResp)
	if seq != 0 {
		cached, served, claim := s.claimSeq(seq)
		if served {
			out := cached
			out.raw = copyParts(cached.raw, into)
			return out
		}
		done = claim
	}
	var out cachedResp
	if rt == nil {
		out.env = respEnvelope{ErrOp: method, ErrDetail: "unknown method", ErrStatus: -9998}
	} else {
		resp, parts, err := rt.call(req, payload, into)
		out.env = envFor(method, err)
		if err == nil {
			out.resp, out.raw = resp, parts
			out.env.Raw = len(parts)
		}
	}
	if done != nil {
		cached := out
		cached.raw = copyParts(out.raw, nil)
		done(cached)
	}
	return out
}

// copyParts copies each part, part k into into[k] when there is one.
func copyParts(parts, into [][]byte) [][]byte {
	var out [][]byte
	for k, p := range parts {
		var dst []byte
		if k < len(into) {
			dst = into[k][:0]
		}
		out = append(out, append(dst, p...))
	}
	return out
}

// claimSeq resolves how a sequenced request should be served. A completed
// seq replays from the cache (served=true). A seq that is still executing —
// its connection generation died mid-call and the client re-sent it on a
// fresh one — blocks until the original handler finishes, then replays its
// response: a sequenced handler never runs twice, and in particular never
// overlapped with its own stale execution (the runtime behind the handlers
// is not safe for concurrent mutation). A fresh seq is claimed: the caller
// owns the execution and must invoke done with the final response, which
// caches it and wakes any replays waiting on the claim.
func (s *Server) claimSeq(seq uint64) (r cachedResp, served bool, done func(cachedResp)) {
	for {
		s.mu.Lock()
		if r, ok := s.seen[seq]; ok {
			s.replayed++
			s.mu.Unlock()
			return r, true, nil
		}
		ch, busy := s.inflight[seq]
		if !busy {
			ch = make(chan struct{})
			s.inflight[seq] = ch
			s.mu.Unlock()
			return cachedResp{}, false, func(out cachedResp) {
				s.mu.Lock()
				s.storeReplayLocked(seq, out)
				delete(s.inflight, seq)
				s.mu.Unlock()
				close(ch)
			}
		}
		s.mu.Unlock()
		<-ch
	}
}

// storeReplayLocked remembers the response to seq, evicting the oldest
// entries once the window is full by count or by pinned raw-payload bytes.
// Callers hold s.mu.
func (s *Server) storeReplayLocked(seq uint64, r cachedResp) {
	if _, ok := s.seen[seq]; ok {
		return
	}
	s.seen[seq] = r
	s.seenFIFO = append(s.seenFIFO, seq)
	s.seenBytes += rawLen(r.raw)
	for len(s.seenFIFO) > replayWindow || (s.seenBytes > replayMaxBytes && len(s.seenFIFO) > 1) {
		old := s.seenFIFO[0]
		s.seenBytes -= rawLen(s.seen[old].raw)
		delete(s.seen, old)
		s.seenFIFO = s.seenFIFO[1:]
	}
}

// envFor builds the response envelope carrying a handler's error, if any.
func envFor(method string, err error) respEnvelope {
	var env respEnvelope
	if err == nil {
		return env
	}
	var ec ErrorCoder
	if errors.As(err, &ec) {
		env.ErrOp, env.ErrStatus, env.ErrDetail = ec.ErrorCode()
	} else {
		env.ErrOp = method
		env.ErrDetail = err.Error()
		env.ErrStatus = -9999
	}
	return env
}

// Register installs a typed handler for method. If a request arrives with
// a raw payload frame the frame is consumed and discarded.
func Register[Req, Resp any](s *Server, method string, fn func(Req) (Resp, error)) {
	RegisterRaw(s, method, func(req Req, _ []byte) (Resp, []byte, error) {
		resp, err := fn(req)
		return resp, nil, err
	})
}

// RegisterRaw installs a typed handler that additionally receives the
// request's raw payload frame (nil when the request carried none) and may
// attach a raw payload to its response by returning a non-nil rawResp.
// The payload slice is pooled: it is valid only until fn returns, so fn
// must copy anything it keeps.
func RegisterRaw[Req, Resp any](s *Server, method string, fn func(req Req, payload []byte) (Resp, []byte, error)) {
	register(s, method, false, func(req Req, payload []byte, _ [][]byte) (Resp, [][]byte, error) {
		resp, raw, err := fn(req, payload)
		if raw == nil {
			return resp, nil, err
		}
		return resp, [][]byte{raw}, err
	})
}

// RegisterParts installs a typed handler that answers with a list of raw
// parts and is lent a destination list for them: part k should land in
// into[k] when its capacity suffices. On the ring, into is the client's own
// list, so a part lands in caller memory with no copy. On the framed
// transport it is the connection's scratch — the parts the previous
// unsequenced call on the connection returned — and nil for a sequenced
// call. Either way a returned part belongs to the transport from then on:
// fn must not return memory it goes on using.
func RegisterParts[Req, Resp any](s *Server, method string, fn func(req Req, payload []byte, into [][]byte) (Resp, [][]byte, error)) {
	register(s, method, true, fn)
}

// register installs method's route. lend says whether the framed carrier
// lends fn the connection scratch and keeps what it returns; RegisterRaw
// handlers stay out of that, because nothing stops one from returning
// memory it owns.
func register[Req, Resp any](s *Server, method string, lend bool, fn func(req Req, payload []byte, into [][]byte) (Resp, [][]byte, error)) {
	rt := &route{
		// On the ring the request arrives as the typed value itself, so
		// dispatch is a type assertion; the framed carrier decodes it first.
		call: func(req any, payload []byte, into [][]byte) (any, [][]byte, error) {
			typed, ok := req.(Req)
			if !ok {
				return nil, nil, fmt.Errorf("ipc: %s: request is %T, want %T", method, req, typed)
			}
			return fn(typed, payload, into)
		},
		decode: func(dec *gob.Decoder) (any, error) {
			var req Req
			err := dec.Decode(&req)
			return req, err
		},
		lend: lend,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.routes[method] = rt
}

// writeResp emits the response envelope and, on success, the body — each
// as its own frame — followed by one raw frame per attached part.
func writeResp(method string, r cachedResp, enc *gob.Encoder, fw *frameWriter) error {
	if err := enc.Encode(r.env); err != nil {
		return fmt.Errorf("ipc: encoding %s response envelope: %w", method, err)
	}
	if err := fw.flush(); err != nil {
		return fmt.Errorf("ipc: flushing %s response envelope: %w", method, err)
	}
	if r.env.ErrOp != "" {
		return nil
	}
	if err := enc.Encode(r.resp); err != nil {
		return fmt.Errorf("ipc: encoding %s response: %w", method, err)
	}
	if err := fw.flush(); err != nil {
		return fmt.Errorf("ipc: flushing %s response: %w", method, err)
	}
	for _, p := range r.raw {
		if err := fw.writeRaw(p); err != nil {
			return fmt.Errorf("ipc: writing %s payload: %w", method, err)
		}
	}
	return nil
}

// ServeConn processes calls on the stream until EOF or a transport error.
// A clean peer close returns nil. On a transport error (truncated frame,
// oversized frame, mid-call disconnect) the stream is closed before
// returning, so a peer blocked on the synchronous transport wakes up
// instead of hanging.
func (s *Server) ServeConn(rwc io.ReadWriteCloser) error {
	err := s.serveConn(rwc)
	if err != nil {
		_ = rwc.Close()
	}
	return err
}

// serveConn is the framed carrier's server side: it reads each call's
// envelope, body and raw frame, hands them to serve, and writes the
// answer.
func (s *Server) serveConn(rwc io.ReadWriteCloser) error {
	fw := &frameWriter{w: rwc, max: s.maxFrame}
	fr := &frameReader{r: rwc, max: s.maxFrame}
	dec := gob.NewDecoder(fr)
	enc := gob.NewEncoder(fw)
	// scratch is the connection's reusable response memory: the parts the
	// last unsequenced lending call returned, lent to the next one.
	var scratch [][]byte
	for {
		var env reqEnvelope
		if err := dec.Decode(&env); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("ipc: reading request envelope: %w", err)
		}
		rt := s.route(env.Method)
		var req any
		if rt != nil {
			var err error
			if req, err = rt.decode(dec); err != nil {
				return fmt.Errorf("ipc: decoding %s request: %w", env.Method, err)
			}
		} else {
			// Every request is a struct, and gob decodes any struct into
			// an empty one by ignoring its fields. A body that cannot be
			// skipped leaves the stream out of step: stop here rather
			// than read the middle of a frame as the next header.
			var skel struct{}
			if err := dec.Decode(&skel); err != nil {
				return fmt.Errorf("ipc: skipping %s request: %w", env.Method, err)
			}
		}
		// The raw frame is consumed before serve claims the sequence, so
		// a replayed request also leaves the stream at a frame boundary.
		var payload []byte
		var pooled *[]byte
		if env.Raw {
			size, err := fr.rawHeader()
			if err != nil {
				return fmt.Errorf("ipc: reading %s payload header: %w", env.Method, err)
			}
			pooled = getRawBuf(size)
			if err := fr.rawBody(*pooled); err != nil {
				putRawBuf(pooled)
				return fmt.Errorf("ipc: reading %s payload: %w", env.Method, err)
			}
			payload = *pooled
		}
		lending := rt != nil && rt.lend && env.Seq == 0
		var into [][]byte
		if lending {
			into = scratch
		}
		out := s.serve(env.Method, env.Seq, rt, req, payload, into)
		if pooled != nil {
			putRawBuf(pooled)
		}
		if lending {
			// Slot k keeps whichever of its old and new memory is larger,
			// so a small read after a big drain does not shrink the scratch.
			for k, p := range out.raw {
				switch {
				case k >= len(scratch):
					scratch = append(scratch, p)
				case cap(p) > cap(scratch[k]):
					scratch[k] = p
				}
			}
		}
		if err := writeResp(env.Method, out, enc, fw); err != nil {
			return err
		}
	}
}
