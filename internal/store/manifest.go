package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"strings"

	"checl/internal/vtime"
)

// manifestVersion is the on-disk manifest format version: the binary body
// encodeManifest writes (DESIGN.md §14 "The manifest frame"). There is no
// reader for version 1, the gob body.
const manifestVersion = 2

// manifestMagic frames every stored manifest so corruption is detected at
// decode time rather than surfacing as a parse error.
var manifestMagic = []byte("CHECLMAN")

// ChunkRef names one chunk of a checkpoint payload.
type ChunkRef struct {
	Sum    string // SHA-256 of the uncompressed chunk, hex
	Size   int64  // uncompressed length
	Stored int64  // stored (possibly compressed) length, including codec tag
	Check  uint64 // chunkCheck of the uncompressed chunk: what a clean claim is checked against
}

// castagnoli is crc32's Castagnoli table, which crc32.Update computes with
// the CPU's CRC-32C instruction where there is one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// chunkCheck is a ChunkRef's Check of the bytes parts concatenate to:
// their CRC-32C in the high half and their CRC-32 (IEEE) in the low one.
// It catches an accident, not an adversary (DESIGN.md §17 "One check of a
// clean claim"); the address is what names the content.
func chunkCheck(parts ...[]byte) uint64 {
	var c, i uint32
	for _, b := range parts {
		c = crc32.Update(c, castagnoli, b)
		i = crc32.Update(i, crc32.IEEETable, b)
	}
	return uint64(c)<<32 | uint64(i)
}

// SegmentRef records how a named region of the payload maps onto the
// manifest's chunk list. Segments partition Chunks in order: the first
// segment owns the first Chunks entries, and so on. Clean segments were
// not re-chunked; their refs were copied from the parent manifest. A
// manifest without segments is one anonymous dirty region.
type SegmentRef struct {
	Name   string
	Size   int64 // payload bytes covered by this segment
	Chunks int   // number of consecutive ChunkRefs belonging to it
	Clean  bool  // chunk refs inherited from the parent, payload unchanged
}

// Manifest describes one checkpoint in the store: which chunks
// reconstruct it, in order, plus integrity and lineage metadata.
type Manifest struct {
	Version   int
	Job       string // job identity; dedup keys chunks globally, retention groups by job
	Seq       uint64 // 1-based checkpoint number within the job
	Parent    string // ID of the previous checkpoint of this job, "" for the first
	Chunks    []ChunkRef
	Segments  []SegmentRef // optional named-region map over Chunks; nil for an unsegmented payload
	Size      int64        // total payload bytes
	CreatedAt vtime.Time

	// ready belongs to one read of the payload, not to the checkpoint: see
	// ReadyAt. It is not part of the stored frame.
	ready []vtime.Time
}

// ReadyAt reports, on a manifest that GetNewestRestorable handed out with
// the payload it read, the instant on that read's clock at which each of
// Segments, and every segment before it, was there whole and verified, in
// segment order: non-decreasing, the last one the end of the read. It is nil on a manifest that came from
// anywhere else and on one without a segment map — the payload then is
// there when the read returns and not before.
func (m Manifest) ReadyAt() []vtime.Time { return m.ready }

// DeltaSize reports how many payload bytes of the manifest are new
// relative to its parent: the total size of dirty segments. For a
// manifest without segment info it falls back to comparing chunk sets —
// the bytes of chunks not present in parent. A nil/zero parent makes the
// whole payload the delta.
func (m Manifest) DeltaSize(parent *Manifest) int64 {
	if parent == nil || parent.Job == "" {
		return m.Size
	}
	if len(m.Segments) > 0 {
		var dirty int64
		for _, s := range m.Segments {
			if !s.Clean {
				dirty += s.Size
			}
		}
		return dirty
	}
	inParent := make(map[string]bool, len(parent.Chunks))
	for _, c := range parent.Chunks {
		inParent[c.Sum] = true
	}
	var delta int64
	for _, c := range m.Chunks {
		if !inParent[c.Sum] {
			delta += c.Size
		}
	}
	return delta
}

// ID names the manifest within the store ("job@seq").
func (m Manifest) ID() string { return manifestID(m.Job, m.Seq) }

func manifestID(job string, seq uint64) string { return fmt.Sprintf("%s@%d", job, seq) }

// The smallest encodings of a chunk ref (address, two one-byte sizes,
// check) and of a segment ref (empty name, two one-byte numbers, clean
// flag): a count the rest of a body cannot hold that many of is refused
// before anything is allocated for it.
const (
	minRefBytes = sha256.Size + 1 + 1 + 8
	minSegBytes = 1 + 1 + 1 + 1
)

// encodeManifest frames m's binary body with magic + checksum. Its body
// is, in order: the version, Job, Seq, Parent, Size and CreatedAt; the
// chunk count and each chunk ref — the raw address, Size, Stored, then
// Check in 8 big-endian bytes; the segment count and each segment ref —
// Name, Size, Chunks, then Clean as one byte 0 or 1. A string is its
// length then its bytes, CreatedAt a zig-zag varint, and every other
// number a uvarint of its bits. It fails only for a chunk address that is
// not a SHA-256 in lower-case hex, which the format has no room for.
func encodeManifest(m Manifest) ([]byte, error) {
	hdr := len(manifestMagic) + sha256.Size
	out := make([]byte, hdr, hdr+64+len(m.Job)+len(m.Parent)+(minRefBytes+4)*len(m.Chunks)+(minSegBytes+16)*len(m.Segments))
	copy(out, manifestMagic)
	out = binary.AppendUvarint(out, uint64(m.Version))
	out = appendString(out, m.Job)
	out = binary.AppendUvarint(out, m.Seq)
	out = appendString(out, m.Parent)
	out = binary.AppendUvarint(out, uint64(m.Size))
	out = binary.AppendVarint(out, int64(m.CreatedAt))
	out = binary.AppendUvarint(out, uint64(len(m.Chunks)))
	for i, c := range m.Chunks {
		addr, ok := decodeDigest(c.Sum)
		if !ok {
			return nil, fmt.Errorf("store: encoding manifest %s: chunk %d: address %q is not a SHA-256", m.ID(), i, c.Sum)
		}
		out = append(out, addr[:]...)
		out = binary.AppendUvarint(out, uint64(c.Size))
		out = binary.AppendUvarint(out, uint64(c.Stored))
		out = binary.BigEndian.AppendUint64(out, c.Check)
	}
	out = binary.AppendUvarint(out, uint64(len(m.Segments)))
	for _, s := range m.Segments {
		out = appendString(out, s.Name)
		out = binary.AppendUvarint(out, uint64(s.Size))
		out = binary.AppendUvarint(out, uint64(s.Chunks))
		clean := byte(0)
		if s.Clean {
			clean = 1
		}
		out = append(out, clean)
	}
	sum := sha256.Sum256(out[hdr:])
	copy(out[len(manifestMagic):], sum[:])
	return out, nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// bodyReader parses a manifest body. Its first failure sticks: every read
// after it returns zero values, and err says where the body went wrong.
// It accepts exactly what encodeManifest writes — a varint in its
// shortest form, a flag of 0 or 1, no byte left over — so a body it
// accepts re-encodes to itself.
type bodyReader struct {
	b   []byte
	err error
}

func (r *bodyReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

// take returns the next n bytes.
func (r *bodyReader) take(n int, what string) []byte {
	if r.err != nil || n > len(r.b) {
		r.fail("%s: truncated", what)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *bodyReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail("%s: truncated", what)
		return 0
	case n < 0:
		r.fail("%s: varint overflows 64 bits", what)
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.fail("%s: varint not in its shortest form", what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// size reads a non-negative int64.
func (r *bodyReader) size(what string) int64 {
	v := r.uvarint(what)
	if v > math.MaxInt64 {
		r.fail("%s: %d out of range", what, v)
		return 0
	}
	return int64(v)
}

// count reads a number of items each at least least bytes long, bounded
// by what is left of the body.
func (r *bodyReader) count(least int, what string) int {
	v := r.uvarint(what)
	if v > uint64(len(r.b)/least) {
		r.fail("%s: %d, more than the %d bytes left can hold", what, v, len(r.b))
		return 0
	}
	return int(v)
}

func (r *bodyReader) str(what string) string {
	return string(r.take(r.count(1, what), what))
}

// segment locates a named segment and the run of chunk refs it owns.
// Segment chunk counts partition Chunks exactly — Put builds them so and
// decodeManifest rejects frames where they do not.
func (m Manifest) segment(name string) (SegmentRef, []ChunkRef, bool) {
	first := 0
	for _, seg := range m.Segments {
		if seg.Name == name {
			return seg, m.Chunks[first : first+seg.Chunks], true
		}
		first += seg.Chunks
	}
	return SegmentRef{}, nil, false
}

// corruptf builds a decode error that wraps errCorruptManifest.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errCorruptManifest}, args...)...)
}

// decodeManifest validates the frame and parses the manifest. Every
// failure wraps errCorruptManifest: a frame that does not decode to a
// self-consistent manifest is an integrity finding for that generation,
// which restores skip (DegradedRestore) and repair quarantines.
func decodeManifest(data []byte) (Manifest, error) {
	if len(data) < len(manifestMagic)+sha256.Size {
		return Manifest{}, corruptf("store: manifest truncated (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:len(manifestMagic)], manifestMagic) {
		return Manifest{}, corruptf("store: not a manifest (bad magic)")
	}
	want := data[len(manifestMagic) : len(manifestMagic)+sha256.Size]
	body := data[len(manifestMagic)+sha256.Size:]
	got := sha256.Sum256(body)
	if !bytes.Equal(want, got[:]) {
		return Manifest{}, corruptf("store: manifest checksum mismatch (want %s, got %s)",
			hex.EncodeToString(want), hex.EncodeToString(got[:]))
	}
	r := &bodyReader{b: body}
	var m Manifest
	if v := r.uvarint("version"); r.err == nil && v != manifestVersion {
		return Manifest{}, corruptf("store: unsupported manifest version %d (have %d)", v, manifestVersion)
	}
	m.Version = manifestVersion
	m.Job = r.str("job")
	m.Seq = r.uvarint("seq")
	m.Parent = r.str("parent")
	m.Size = r.size("size")
	if u := r.uvarint("created"); r.err == nil {
		m.CreatedAt = vtime.Time(int64(u>>1) ^ -int64(u&1))
	}
	if n := r.count(minRefBytes, "chunk count"); n > 0 {
		// The addresses' hex, in one string the refs' Sums are cut from.
		var sums strings.Builder
		sums.Grow(n * hexSumLen)
		m.Chunks = make([]ChunkRef, n)
		for i := range m.Chunks {
			var h [hexSumLen]byte
			hex.Encode(h[:], r.take(sha256.Size, "chunk address"))
			sums.Write(h[:])
			c := &m.Chunks[i]
			c.Size = r.size("chunk size")
			c.Stored = r.size("chunk stored size")
			if b := r.take(8, "chunk check"); b != nil {
				c.Check = binary.BigEndian.Uint64(b)
			}
		}
		all := sums.String()
		for i := range m.Chunks {
			m.Chunks[i].Sum = all[i*hexSumLen : (i+1)*hexSumLen]
		}
	}
	if n := r.count(minSegBytes, "segment count"); n > 0 {
		m.Segments = make([]SegmentRef, n)
		for i := range m.Segments {
			s := &m.Segments[i]
			s.Name = r.str("segment name")
			s.Size = r.size("segment size")
			if c := r.uvarint("segment chunks"); c > math.MaxInt32 {
				r.fail("segment chunks: %d out of range", c)
			} else {
				s.Chunks = int(c)
			}
			switch b := r.take(1, "segment flag"); {
			case b == nil:
			case b[0] > 1:
				r.fail("segment flag: %d is not 0 or 1", b[0])
			default:
				s.Clean = b[0] == 1
			}
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d bytes after the last segment", len(r.b))
	}
	if r.err != nil {
		return Manifest{}, corruptf("store: decoding manifest: %v", r.err)
	}
	if err := m.validate(); err != nil {
		return Manifest{}, corruptf("store: manifest %s: %v", m.ID(), err)
	}
	return m, nil
}

// hexSumLen is the length of a SHA-256 in hex, as ChunkRef.Sum holds it.
const hexSumLen = 2 * sha256.Size

// decodeDigest parses a SHA-256 in the lower-case hex every writer here
// produces.
func decodeDigest(s string) (sum [sha256.Size]byte, ok bool) {
	if len(s) != hexSumLen {
		return sum, false
	}
	nibble := func(c byte) (byte, bool) {
		switch {
		case c >= '0' && c <= '9':
			return c - '0', true
		case c >= 'a' && c <= 'f':
			return c - 'a' + 10, true
		}
		return 0, false
	}
	for i := range sum {
		hi, ok1 := nibble(s[2*i])
		lo, ok2 := nibble(s[2*i+1])
		if !ok1 || !ok2 {
			return sum, false
		}
		sum[i] = hi<<4 | lo
	}
	return sum, true
}

// sizesAddUp reports whether the chunks' sizes, each within [0, max], add
// up to exactly size.
func sizesAddUp(refs []ChunkRef, size, max int64) bool {
	for _, c := range refs {
		if c.Size < 0 || c.Size > max || c.Size > size {
			return false
		}
		size -= c.Size
	}
	return size == 0
}

// validate rejects well-checksummed nonsense: a manifest whose numbers
// the read path would otherwise trust into a panic. The body's parse has
// made every size non-negative; here the chunks' sizes add up to the
// payload's, and a segment map partitions the chunk list and the payload
// size exactly, each segment's chunks adding up to the segment, and names
// each segment once, as a Put does: a read looks a segment up by name.
func (m Manifest) validate() error {
	if len(m.Segments) == 0 {
		if !sizesAddUp(m.Chunks, m.Size, m.Size) {
			return fmt.Errorf("chunk sizes do not add up to the payload's %d bytes", m.Size)
		}
		return nil
	}
	first, size := 0, m.Size
	named := make(map[string]bool, len(m.Segments))
	for _, seg := range m.Segments {
		if named[seg.Name] {
			return fmt.Errorf("segment %q named twice", seg.Name)
		}
		named[seg.Name] = true
		if seg.Chunks < 0 || seg.Chunks > len(m.Chunks)-first || seg.Size < 0 || seg.Size > size {
			return fmt.Errorf("segment %q (%d chunks, %d bytes) does not fit the manifest", seg.Name, seg.Chunks, seg.Size)
		}
		if !sizesAddUp(m.Chunks[first:first+seg.Chunks], seg.Size, seg.Size) {
			return fmt.Errorf("segment %q: chunk sizes do not add up to its %d bytes", seg.Name, seg.Size)
		}
		first += seg.Chunks
		size -= seg.Size
	}
	if first != len(m.Chunks) || size != 0 {
		return fmt.Errorf("segments leave %d chunks and %d bytes uncovered", len(m.Chunks)-first, size)
	}
	return nil
}
