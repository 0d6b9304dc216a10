package store

// Systematic Reed-Solomon erasure coding over GF(256) for the store
// fleet. The codec is real — parity shards are genuine GF(256) linear
// combinations of the data bytes, so any k of the k+m shards reconstruct
// the chunk bit-for-bit — while its CPU time is charged through
// hw.CodingModel like every other modelled cost.
//
// The generator matrix is a (k+m)×k Vandermonde matrix put in systematic
// form: multiply by the inverse of its top k×k block so the top k rows
// become the identity (data shards are plain slices of the chunk, no
// decode on the healthy path) and the bottom m rows become the parity
// rows. Any k rows of the result are invertible — any k rows of a
// Vandermonde matrix over distinct points are, and right-multiplying by
// one fixed invertible matrix preserves that — which is exactly the
// "any m losses survivable" property the fleet sells.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// GF(256) with the AES polynomial x^8+x^4+x^3+x+1 (0x11d reduced),
// table-driven: exp is doubled so mul can skip the mod-255 fold, and
// gfMulTab[a] is the whole row of a's products, so multiplying a shard by
// one coefficient is a table lookup per byte.
var (
	gfExp    [512]byte
	gfLog    [256]int
	gfMulTab [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			gfMulTab[a][b] = gfExp[gfLog[a]+gfLog[b]]
		}
	}
}

// mulAdd adds coef·src to dst, byte by byte. dst is at most as long as src.
func mulAdd(dst, src []byte, coef byte) {
	if coef == 0 {
		return
	}
	row := &gfMulTab[coef]
	src = src[:len(dst)]
	for i, b := range src {
		dst[i] ^= row[b]
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

func gfInv(a byte) byte {
	return gfExp[255-gfLog[a]]
}

// Coder encodes chunks into k data + m parity shards and reconstructs
// them from any k survivors. Stateless beyond the precomputed generator
// matrix; safe for concurrent use.
type Coder struct {
	k, m int
	// gen is the systematic (k+m)×k generator: rows 0..k-1 identity,
	// rows k..k+m-1 parity coefficients.
	gen [][]byte
	// parity lists the parity shard indices, k..k+m-1.
	parity []int
}

// NewCoder builds a coder for k data and m parity shards. k+m is capped
// at 256 by the field size. The degenerate geometries are legal: with m = 0
// there is no parity and nothing survives a loss, and with k = 1 the one
// data shard is the chunk itself and every parity shard a copy of it (the
// systematic generator of a one-column Vandermonde matrix is all ones).
func NewCoder(k, m int) (*Coder, error) {
	if k < 1 || m < 0 {
		return nil, fmt.Errorf("coder: need k >= 1 and m >= 0, got k=%d m=%d", k, m)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("coder: k+m = %d exceeds GF(256) limit of 256 shards", k+m)
	}
	// Vandermonde rows over the distinct points 0..k+m-1: row i is
	// [i^0, i^1, ..., i^(k-1)].
	v := make([][]byte, k+m)
	for i := range v {
		v[i] = make([]byte, k)
		acc := byte(1)
		for j := 0; j < k; j++ {
			v[i][j] = acc
			acc = gfMul(acc, byte(i))
		}
	}
	top := make([][]byte, k)
	for i := range top {
		top[i] = append([]byte(nil), v[i]...)
	}
	inv, err := matInvert(top)
	if err != nil {
		return nil, fmt.Errorf("coder: vandermonde top block not invertible: %w", err)
	}
	parity := make([]int, m)
	for p := range parity {
		parity[p] = k + p
	}
	return &Coder{k: k, m: m, gen: matMul(v, inv), parity: parity}, nil
}

// ShardSize reports the per-shard byte count for a chunk of n bytes: the
// chunk is zero-padded up to a multiple of k before slicing.
func (c *Coder) ShardSize(n int) int {
	return (n + c.k - 1) / c.k
}

// Encode splits data into k data shards (zero-padded) and computes m
// parity shards. The returned slice has k+m entries of equal length;
// index order matches the generator rows, so shards[0..k-1] concatenated
// and trimmed to len(data) are the original bytes. A data shard that data
// fills is a view of data, not a copy; callers treat shards as read-only.
func (c *Coder) Encode(data []byte) [][]byte {
	shards, _ := c.encode(data, nil, nil)
	return shards
}

// encode is Encode into the caller's scratch: the shard list and the buffer
// for what is not a view of data are reused when they are large enough, and
// returned for the next chunk.
func (c *Coder) encode(data []byte, shards [][]byte, fresh []byte) ([][]byte, []byte) {
	size := c.ShardSize(len(data))
	if cap(shards) < c.k+c.m {
		shards = make([][]byte, c.k+c.m)
	}
	shards = shards[:c.k+c.m]
	full := 0
	if size > 0 {
		full = len(data) / size
	}
	// One buffer holds what is not a view: the padded tail, the data shards
	// past the end of data, the parity.
	need := (c.k - full + c.m) * size
	if cap(fresh) < need {
		fresh = make([]byte, need)
	} else {
		fresh = fresh[:need]
		clear(fresh)
	}
	rest := fresh
	for i := 0; i < c.k; i++ {
		if i < full {
			shards[i] = data[i*size : (i+1)*size : (i+1)*size]
			continue
		}
		shards[i], rest = rest[:size:size], rest[size:]
		copy(shards[i], data[min(i*size, len(data)):])
	}
	for p := 0; p < c.m; p++ {
		shards[c.k+p], rest = rest[:size:size], rest[size:]
		for j, coef := range c.gen[c.k+p] {
			mulAdd(shards[c.k+p], shards[j], coef)
		}
	}
	return shards, fresh
}

// Reconstruct rebuilds the full k+m shard set from any k survivors.
// have maps shard index -> shard bytes (all the same length); it must
// hold at least k entries. The survivors are used as-is — callers verify
// per-shard checksums first so a rotten shard is treated as missing, not
// trusted into the solve — and come back by reference: only a shard that
// was missing is new memory. Callers treat the result as read-only.
func (c *Coder) Reconstruct(have map[int][]byte) ([][]byte, error) {
	return c.reconstruct(have, c.parity)
}

// reconstruct is Reconstruct for a caller that needs the data shards and
// only some of the parity: a missing data shard is always solved for, a
// missing parity shard is regenerated only when parity lists its index
// (entries below k are ignored) and is nil in the result otherwise.
func (c *Coder) reconstruct(have map[int][]byte, parity []int) ([][]byte, error) {
	// Pick the k lowest surviving indices: deterministic, and it favours
	// data shards so the solve degenerates to identity when none are lost.
	rows := make([]int, 0, c.k)
	out := make([][]byte, c.k+c.m)
	for i := range out {
		if shard, ok := have[i]; ok {
			out[i] = shard
			if len(rows) < c.k {
				rows = append(rows, i)
			}
		}
	}
	if len(rows) < c.k {
		return nil, fmt.Errorf("coder: %d shards survive, need %d of %d", len(rows), c.k, c.k+c.m)
	}
	size := len(out[rows[0]])
	for _, r := range rows {
		if len(out[r]) != size {
			return nil, fmt.Errorf("coder: shard %d length %d, want %d", r, len(out[r]), size)
		}
	}
	if rows[c.k-1] >= c.k {
		// A data shard is lost: data = inv · survivors.
		sub := make([][]byte, c.k)
		for i, r := range rows {
			sub[i] = append([]byte(nil), c.gen[r]...)
		}
		inv, err := matInvert(sub)
		if err != nil {
			return nil, fmt.Errorf("coder: surviving rows not invertible: %w", err)
		}
		for i := 0; i < c.k; i++ {
			if out[i] != nil {
				continue
			}
			shard := make([]byte, size)
			for j, r := range rows {
				mulAdd(shard, have[r], inv[i][j])
			}
			out[i] = shard
		}
	}
	// Re-encode the parity rows asked for.
	for _, p := range parity {
		if p < c.k || out[p] != nil {
			continue
		}
		shard := make([]byte, size)
		for j, coef := range c.gen[p] {
			mulAdd(shard, out[j], coef)
		}
		out[p] = shard
	}
	return out, nil
}

// Join concatenates the k data shards and trims to n bytes — the inverse
// of Encode's split for a chunk of original length n.
func (c *Coder) Join(shards [][]byte, n int) []byte {
	out := make([]byte, 0, n)
	for i := 0; i < c.k && len(out) < n; i++ {
		out = append(out, shards[i]...)
	}
	return out[:n]
}

// matMul multiplies a (r×n) by b (n×c) over GF(256).
func matMul(a, b [][]byte) [][]byte {
	rows, n, cols := len(a), len(b), len(b[0])
	out := make([][]byte, rows)
	for i := range out {
		out[i] = make([]byte, cols)
		for j := 0; j < cols; j++ {
			var s byte
			for t := 0; t < n; t++ {
				s ^= gfMul(a[i][t], b[t][j])
			}
			out[i][j] = s
		}
	}
	return out
}

// matInvert inverts a square matrix over GF(256) by Gauss-Jordan
// elimination. The input rows are consumed.
func matInvert(m [][]byte) ([][]byte, error) {
	n := len(m)
	inv := make([][]byte, n)
	for i := range inv {
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if m[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("singular at column %d", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		if d := m[col][col]; d != 1 {
			di := gfInv(d)
			for j := 0; j < n; j++ {
				m[col][j] = gfMul(m[col][j], di)
				inv[col][j] = gfMul(inv[col][j], di)
			}
		}
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			coef := m[r][col]
			for j := 0; j < n; j++ {
				m[r][j] ^= gfMul(coef, m[col][j])
				inv[r][j] ^= gfMul(coef, inv[col][j])
			}
		}
	}
	return inv, nil
}

// Shard records: every shard is persisted wrapped in a small header so a
// read can tell a healthy shard from a rotten or torn one and — crucially
// — WHICH shard of WHICH chunk it holds. Reed-Solomon alone detects that
// something is wrong; the per-record digest localises it, turning silent
// corruption into a known erasure the solve can route around. Records are
// self-describing so a pack (pack.go) is nothing but records back to back.

const (
	shardMagic   = "CHECLSHD"
	shardVersion = 2
	// Record header: magic(8) + version(1) + idx(1) + k(1) + m(1) +
	// payload length(4) + original blob length(4) + chunk address(32) +
	// sha256(32).
	shardAddrOff    = 8 + 4 + 4 + 4
	shardDigestOff  = shardAddrOff + sha256.Size
	shardHeaderSize = shardDigestOff + sha256.Size
)

// shardHeader is what a record says about itself.
type shardHeader struct {
	sum        string // content address of the chunk the shard belongs to
	idx, k, m  int
	payloadLen int
	// origLen is the pre-split (compressed chunk blob) length: every shard
	// records it so a read can trim the k joined data shards back to the
	// original bytes without consulting anything but the shards themselves.
	origLen int
}

// appendShard appends one framed shard to dst: addr is the chunk's raw
// SHA-256 and digest the record's, recordDigest of the same fields. The
// digest covers the header fields too — a flipped bit anywhere in the
// record (geometry, lengths, address, payload) reads as an erasure, never
// as a plausible shard with a wrong trim length or owner.
func appendShard(dst []byte, addr []byte, idx, k, m, origLen int, payload []byte, digest [sha256.Size]byte) []byte {
	dst = append(dst, shardMagic...)
	dst = appendCovered(dst, addr, idx, k, m, len(payload), origLen)
	dst = append(dst, digest[:]...)
	return append(dst, payload...)
}

// appendCovered appends the header fields a record's digest covers, the
// ones between the magic and the digest: version, geometry, lengths,
// address.
func appendCovered(dst []byte, addr []byte, idx, k, m, payloadLen, origLen int) []byte {
	dst = append(dst, shardVersion, byte(idx), byte(k), byte(m))
	dst = binary.BigEndian.AppendUint32(dst, uint32(payloadLen))
	dst = binary.BigEndian.AppendUint32(dst, uint32(origLen))
	return append(dst, addr[:sha256.Size]...)
}

// recordDigest is the digest of the record that frames payload as shard
// idx of the chunk at addr: what shardDigest finds in the framed record,
// worked out before it is framed.
func recordDigest(addr []byte, idx, k, m, origLen int, payload []byte) [sha256.Size]byte {
	var covered [shardDigestOff - len(shardMagic)]byte
	h := sha256.New()
	h.Write(appendCovered(covered[:0], addr, idx, k, m, len(payload), origLen))
	h.Write(payload)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// shardDigest hashes the covered portion of a record: the header fields
// after the magic (version, geometry, lengths, address) plus the payload,
// with the digest field itself excluded.
func shardDigest(rec []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(rec[8:shardDigestOff])
	h.Write(rec[shardHeaderSize:])
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// parseShardFrame reads the header of the record b starts with, without
// touching the payload or the digest, and leaves sum — the chunk address in
// hex — unset: enough to know which shard it is and where the next record
// begins.
func parseShardFrame(b []byte) (shardHeader, error) {
	if len(b) < shardHeaderSize {
		return shardHeader{}, fmt.Errorf("shard: %d bytes, shorter than header", len(b))
	}
	if string(b[:8]) != shardMagic {
		return shardHeader{}, fmt.Errorf("shard: bad magic")
	}
	if b[8] != shardVersion {
		return shardHeader{}, fmt.Errorf("shard: unsupported version %d", b[8])
	}
	h := shardHeader{
		idx: int(b[9]), k: int(b[10]), m: int(b[11]),
		origLen: int(binary.BigEndian.Uint32(b[16:])),
	}
	n := binary.BigEndian.Uint32(b[12:])
	if uint64(n) > uint64(len(b)-shardHeaderSize) {
		return shardHeader{}, fmt.Errorf("shard: payload length %d, %d bytes follow the header", n, len(b)-shardHeaderSize)
	}
	h.payloadLen = int(n)
	return h, nil
}

// parseShardHeader is parseShardFrame plus whose shard it is.
func parseShardHeader(b []byte) (shardHeader, error) {
	h, err := parseShardFrame(b)
	if err == nil {
		h.sum = hex.EncodeToString(b[shardAddrOff:shardDigestOff])
	}
	return h, err
}

// decodeShard verifies one framed shard — rec is exactly the record — and
// returns its header and payload. Any mismatch — magic, version, length,
// digest — is an error: the shard is an erasure.
func decodeShard(rec []byte) (shardHeader, []byte, error) {
	h, err := parseShardHeader(rec)
	if err != nil {
		return shardHeader{}, nil, err
	}
	if h.payloadLen != len(rec)-shardHeaderSize {
		return shardHeader{}, nil, fmt.Errorf("shard: payload length %d, frame holds %d", h.payloadLen, len(rec)-shardHeaderSize)
	}
	sum := shardDigest(rec)
	if string(sum[:]) != string(rec[shardDigestOff:shardHeaderSize]) {
		return shardHeader{}, nil, fmt.Errorf("shard: digest mismatch")
	}
	return h, rec[shardHeaderSize:], nil
}

// shardAt verifies rec — exactly one record — as shard idx of the chunk
// whose raw address is addr: frame, owner, index, digest. It is decodeShard
// for a reader that knows whose shard it expects, and so never needs the
// address in hex. Returns the shard and the length of the blob it was cut
// from.
func shardAt(rec []byte, addr *[sha256.Size]byte, idx int) (payload []byte, origLen int, ok bool) {
	h, err := parseShardFrame(rec)
	if err != nil || h.payloadLen != len(rec)-shardHeaderSize || h.idx != idx ||
		string(rec[shardAddrOff:shardDigestOff]) != string(addr[:]) {
		return nil, 0, false
	}
	sum := shardDigest(rec)
	if string(sum[:]) != string(rec[shardDigestOff:shardHeaderSize]) {
		return nil, 0, false
	}
	return rec[shardHeaderSize:], h.origLen, true
}
