package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"

	"checl/internal/vtime"
)

// manifestVersion is the on-disk manifest format version.
const manifestVersion = 1

// manifestMagic frames every stored manifest so corruption is detected at
// decode time rather than surfacing as a gob error.
var manifestMagic = []byte("CHECLMAN")

// ChunkRef names one chunk of a checkpoint payload.
type ChunkRef struct {
	Sum    string // SHA-256 of the uncompressed chunk, hex
	Size   int64  // uncompressed length
	Stored int64  // stored (possibly compressed) length, including codec tag
}

// SegmentRef records how a named region of the payload maps onto the
// manifest's chunk list. Segments partition Chunks in order: the first
// segment owns the first Chunks entries, and so on. Clean segments were
// not re-chunked; their refs were copied from the parent manifest.
// Legacy manifests have no segments (nil Segments gob-encodes exactly as
// before), in which case the whole payload is one anonymous dirty region.
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
	Segments  []SegmentRef // optional named-region map over Chunks; nil for legacy images
	Size      int64        // total payload bytes
	CreatedAt vtime.Time

	// ready belongs to one read of the payload, not to the checkpoint: see
	// ReadyAt. It is not part of the stored frame (gob skips it).
	ready []vtime.Time
}

// ReadyAt reports, on a manifest that GetNewestRestorable handed out with
// the payload it read, the instant on that read's clock at which each of
// Segments was there whole and verified, in segment order: non-decreasing,
// the last one the end of the read. It is nil on a manifest that came from
// anywhere else and on one without a segment map — the payload then is
// there when the read returns and not before.
func (m Manifest) ReadyAt() []vtime.Time { return m.ready }

// DeltaSize reports how many payload bytes of the manifest are new
// relative to its parent: the total size of dirty segments. For legacy
// manifests without segment info it falls back to comparing chunk sets —
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

// encodeManifest frames a gob-encoded manifest with magic + checksum.
func encodeManifest(m Manifest) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(m); err != nil {
		return nil, fmt.Errorf("store: encoding manifest %s: %w", m.ID(), err)
	}
	return frameManifest(body.Bytes()), nil
}

// frameManifest prefixes a manifest body with the magic and its SHA-256.
func frameManifest(body []byte) []byte {
	sum := sha256.Sum256(body)
	out := make([]byte, 0, len(manifestMagic)+len(sum)+len(body))
	out = append(out, manifestMagic...)
	out = append(out, sum[:]...)
	return append(out, body...)
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
	var m Manifest
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&m); err != nil {
		return Manifest{}, corruptf("store: decoding manifest: %v", err)
	}
	if m.Version != manifestVersion {
		return Manifest{}, corruptf("store: unsupported manifest version %d (have %d)", m.Version, manifestVersion)
	}
	if err := m.validate(); err != nil {
		return Manifest{}, corruptf("store: manifest %s: %v", m.ID(), err)
	}
	return m, nil
}

// decodeDigest parses a SHA-256 in the lower-case hex every writer here
// produces.
func decodeDigest(s string) (sum [sha256.Size]byte, ok bool) {
	if len(s) != hex.EncodedLen(sha256.Size) {
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

// isDigest reports whether s is such a SHA-256.
func isDigest(s string) bool {
	_, ok := decodeDigest(s)
	return ok
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
// the read path would otherwise trust into a panic. Sizes are
// non-negative, content addresses are SHA-256 hex, the chunks' sizes add
// up to the payload's, and a segment map partitions the chunk list and the
// payload size exactly, each segment's chunks adding up to the segment.
func (m Manifest) validate() error {
	if m.Size < 0 {
		return fmt.Errorf("bad size %d", m.Size)
	}
	for i, c := range m.Chunks {
		if c.Size < 0 || c.Stored < 0 || !isDigest(c.Sum) {
			return fmt.Errorf("chunk %d: bad size %d/%d or address %q", i, c.Size, c.Stored, c.Sum)
		}
	}
	if len(m.Segments) == 0 {
		if !sizesAddUp(m.Chunks, m.Size, m.Size) {
			return fmt.Errorf("chunk sizes do not add up to the payload's %d bytes", m.Size)
		}
		return nil
	}
	first, size := 0, m.Size
	for _, seg := range m.Segments {
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
