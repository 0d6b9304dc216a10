package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"checl/internal/proc"
	"checl/internal/vtime"
)

// nonsense are manifests with a valid magic and checksum that still
// describe no checkpoint: each used to panic a read path that trusted its
// numbers, or is a body the version-2 parse must refuse. A row is an edit
// of a good manifest, encoded as usual, or an edit of its encoded body,
// framed under a fresh checksum. An edit the encoder refuses, because the
// format has no room for it, is marked unwritable: no frame can hold it.
var nonsense = []struct {
	name       string
	edit       func(m *Manifest)
	body       func(m Manifest, body []byte) []byte
	unwritable bool
}{
	{name: "negative segment chunk count", edit: func(m *Manifest) { m.Segments[0].Chunks = -1 }},
	{name: "segment chunks beyond list", edit: func(m *Manifest) { m.Segments[0].Chunks += 2 }},
	{name: "segment chunks short of list", edit: func(m *Manifest) { m.Segments[1].Chunks-- }},
	{name: "segment sizes short of size", edit: func(m *Manifest) { m.Segments[1].Size-- }},
	{name: "negative segment size", edit: func(m *Manifest) { m.Segments[0].Size = -m.Segments[0].Size }},
	{name: "segment named twice", edit: func(m *Manifest) { m.Segments[1].Name = m.Segments[0].Name }},
	{name: "negative size", edit: func(m *Manifest) { m.Size, m.Segments = -1, nil }},
	// The address is 32 raw bytes: one cut short is a truncated ref, and
	// one that is not hex cannot be written at all.
	{name: "short chunk address", body: func(m Manifest, body []byte) []byte { return body[:refsAt(m)+16] }},
	{name: "non-hex chunk address", edit: func(m *Manifest) { m.Chunks[0].Sum = strings.Repeat("z", 64) }, unwritable: true},
	{name: "negative chunk size", edit: func(m *Manifest) { m.Chunks[0].Size = -4096 }},
	{name: "chunk sizes short of segment size", edit: func(m *Manifest) { m.Chunks[0].Size-- }},
	{name: "chunk sizes moved between segments", edit: func(m *Manifest) {
		m.Chunks[0].Size++
		m.Chunks[len(m.Chunks)-1].Size--
	}},
	{name: "chunk sizes beyond size", edit: func(m *Manifest) { m.Segments = nil; m.Chunks[0].Size += 1 << 40 }},
	{name: "size beyond chunk sizes", edit: func(m *Manifest) { m.Segments = nil; m.Size += 1 << 40 }},
	{name: "version-1 gob body", body: func(m Manifest, _ []byte) []byte {
		m.Version = 1
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(m); err != nil {
			panic(err)
		}
		return b.Bytes()
	}},
	{name: "ref count beyond body", body: func(m Manifest, body []byte) []byte {
		at := refsAt(m) - uvarintLen(len(m.Chunks))
		return append(binary.AppendUvarint(slices.Clip(body[:at]), 1<<40), body[refsAt(m):]...)
	}},
	{name: "ref count one beyond", body: func(m Manifest, body []byte) []byte {
		at := refsAt(m) - uvarintLen(len(m.Chunks))
		return append(binary.AppendUvarint(slices.Clip(body[:at]), uint64(len(m.Chunks)+1)), body[refsAt(m):]...)
	}},
	{name: "truncated ref", body: func(m Manifest, body []byte) []byte { return body[:segsAt(m)-3] }},
	{name: "truncated segment", body: func(m Manifest, body []byte) []byte { return body[:len(body)-1] }},
	{name: "segment flag beyond 1", body: func(m Manifest, body []byte) []byte {
		return append(slices.Clip(body[:len(body)-1]), 2)
	}},
	{name: "bytes after the last segment", body: func(m Manifest, body []byte) []byte { return append(slices.Clip(body), 0) }},
	{name: "version in a long varint", body: func(m Manifest, body []byte) []byte {
		return append([]byte{manifestVersion | 0x80, 0}, body[1:]...)
	}},
}

// frameManifest prefixes a manifest body with the magic and its SHA-256,
// as encodeManifest frames the body it writes.
func frameManifest(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(append(slices.Clip(manifestMagic), sum[:]...), body...)
}

// bodyOf is m's encoded body, without magic and checksum.
func bodyOf(m Manifest) []byte {
	frame, err := encodeManifest(m)
	if err != nil {
		panic(err)
	}
	return frame[len(manifestMagic)+sha256.Size:]
}

func uvarintLen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

// refsAt is where m's body holds its first chunk ref, and segsAt where it
// holds its segment count: each is what precedes it in the body of m cut
// short there.
func refsAt(m Manifest) int {
	n := len(m.Chunks)
	m.Chunks, m.Segments = nil, nil
	return len(bodyOf(m)) - 2 + uvarintLen(n)
}

func segsAt(m Manifest) int {
	m.Segments = nil
	return len(bodyOf(m)) - 1
}

// TestManifestDecoderRejectsNonsense feeds well-checksummed nonsense to the
// decoder, then plants it as the newest generation of every geometry: a
// restore must skip it like any torn frame, never panic on it.
func TestManifestDecoderRejectsNonsense(t *testing.T) {
	parts := map[string][]byte{"a": payload(70, 40<<10), "b": payload(71, 40<<10)}
	data, segs := tile(nil, []string{"a", "b"}, parts)

	for _, b := range confBackends {
		for _, bad := range nonsense {
			t.Run(b.name+"/"+bad.name, func(t *testing.T) {
				cs := b.open(t, Config{})
				clock := vtime.NewClock()
				mustPut(t, cs, clock, "job", data, segs)
				man, _ := mustPut(t, cs, clock, "job", data, segs)
				man.Chunks = append([]ChunkRef(nil), man.Chunks...)
				man.Segments = append([]SegmentRef(nil), man.Segments...)
				var frame []byte
				if bad.body != nil {
					frame = frameManifest(bad.body(man, bodyOf(man)))
				} else {
					bad.edit(&man)
					var err error
					if frame, err = encodeManifest(man); bad.unwritable {
						if err == nil {
							t.Fatal("encoded a manifest the format has no room for")
						}
						return
					} else if err != nil {
						t.Fatal(err)
					}
				}
				if _, err := decodeManifest(frame); !errors.Is(err, errCorruptManifest) {
					t.Fatalf("decode err = %v, want errCorruptManifest", err)
				}
				cs.damage(t, "/manifests/job/00000002", func(fs *proc.FS, p string) {
					if err := fs.WriteFile(clock, p, frame); err != nil {
						t.Fatal(err)
					}
				})
				if _, err := cs.Resolve("job@2"); !errors.Is(err, errCorruptManifest) {
					t.Errorf("resolve err = %v", err)
				}
				if _, _, err := cs.GetSegment(clock, "job@2", "a"); err == nil {
					t.Error("segment read of a nonsense manifest succeeded")
				}
				got, restored, deg, err := cs.GetNewestRestorable(clock, "job", nil)
				if err != nil || restored.Seq != 1 || !bytes.Equal(got, data) {
					t.Fatalf("restore walk: %s %v", restored.ID(), err)
				}
				if deg == nil || len(deg.Skipped) != 1 || !strings.Contains(deg.Skipped[0].Reason, errCorruptManifest.Error()) {
					t.Errorf("degradation report %+v", deg)
				}
			})
		}
	}
}

// manifestSeeds are good frames, their truncations and single-byte flips,
// and a version-1 frame: the gob body, which no reader decodes.
func manifestSeeds(t testing.TB) [][]byte {
	digest := strings.Repeat("ab", 32)
	flat := Manifest{Version: manifestVersion, Job: "j", Seq: 1, Size: 10, CreatedAt: -3,
		Chunks: []ChunkRef{{Sum: digest, Size: 10, Stored: 7, Check: chunkCheck([]byte("0123456789"))}}}
	seg := flat
	seg.Seq, seg.Parent, seg.CreatedAt = 2, "j@1", 1<<40
	seg.Chunks = append(seg.Chunks, ChunkRef{Sum: strings.Repeat("cd", 32), Size: 0, Stored: 1, Check: chunkCheck(nil)})
	seg.Segments = []SegmentRef{{Name: "a", Size: 10, Chunks: 1}, {Name: "b", Chunks: 1, Clean: true}}
	var seeds [][]byte
	// Adds up, but no Put cuts a chunk this long.
	long := flat
	long.Size, long.Chunks = 1<<20, []ChunkRef{{Sum: digest, Size: 1 << 20, Stored: 7}}
	for _, m := range []Manifest{flat, seg, long, {Version: manifestVersion}} {
		frame, err := encodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, frame, frame[:len(frame)/2], frame[:len(manifestMagic)+3])
		for _, at := range []int{0, len(manifestMagic) + 1, len(frame) - 1} {
			flipped := append([]byte(nil), frame...)
			flipped[at] ^= 0x40
			seeds = append(seeds, flipped)
		}
	}
	var v1 bytes.Buffer
	flat.Version = 1
	if err := gob.NewEncoder(&v1).Encode(flat); err != nil {
		t.Fatal(err)
	}
	return append(seeds, frameManifest(v1.Bytes()))
}

// FuzzDecodeManifest: the decoder never panics, fails only with
// errCorruptManifest, and whatever it accepts re-encodes to the frame it
// came from, byte for byte — loadManifest's heal publishes the re-encoded
// frame — and can be handed to the read path — which then fails for
// want of chunks, never by trusting a number in the frame. Mutated bytes
// almost never keep their checksum, so each input is also tried re-framed
// with a fresh one: that is what reaches the validation.
func FuzzDecodeManifest(f *testing.F) {
	for _, s := range manifestSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := [][]byte{data}
		if hdr := len(manifestMagic) + 32; len(data) >= hdr {
			frames = append(frames, frameManifest(data[hdr:]))
		}
		for _, frame := range frames {
			m, err := decodeManifest(frame)
			if err != nil {
				if !errors.Is(err, errCorruptManifest) {
					t.Fatalf("untyped decode error: %v", err)
				}
				continue
			}
			again, err := encodeManifest(m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, frame) {
				t.Fatalf("re-encoding does not give the frame back:\n %x\n %x", frame, again)
			}
			if m2, err := decodeManifest(again); err != nil || !reflect.DeepEqual(m, m2) {
				t.Fatalf("re-encoding does not round-trip: %v\n %+v\n %+v", err, m, m2)
			}
			// What the decoder accepts adds up, segment by segment; what a Put
			// cannot have written — a chunk over the maximum — the read path
			// refuses before it asks for a chunk or makes room for one.
			if !sizesAddUp(m.Chunks, m.Size, m.Size) {
				t.Fatalf("accepted a manifest whose chunks do not add up to its %d bytes", m.Size)
			}
			// A 1+0 store holding the frame where a Put would have put it, and no
			// pack: every chunk read fails. One that was never asked for shows in
			// the error wrapping errCorruptManifest, which a failed fetch never
			// does. A job name no Put accepts has no place for its frame; its
			// segments are read without resolving the manifest.
			st := New(testFS(), Config{})
			clock := vtime.NewClock()
			named := m.Job != "" && !strings.ContainsAny(m.Job, "/@")
			if named {
				n := st.nodes[st.names[0]]
				if err := n.fs.WriteFile(clock, n.manifestPath(m.Job, m.Seq), frame); err != nil {
					t.Fatal(err)
				}
			}
			readable := sizesAddUp(m.Chunks, m.Size, int64(st.cfg.Store.MaxChunk))
			if _, _, err := st.readChunks(clock, m.ID(), m.Chunks, m.Segments, m.Size, true); err == nil && len(m.Chunks) > 0 {
				t.Fatal("assembled a payload out of no chunks")
			} else if !readable && !errors.Is(err, errCorruptManifest) {
				t.Fatalf("over-long chunks: err = %v", err)
			}
			for _, seg := range m.Segments {
				_, refs, _ := m.segment(seg.Name)
				if !sizesAddUp(refs, seg.Size, seg.Size) {
					t.Fatalf("accepted a manifest whose segment %q does not add up to its %d bytes", seg.Name, seg.Size)
				}
				var err error
				if named {
					_, _, err = st.GetSegment(clock, m.ID(), seg.Name)
				} else {
					_, _, err = st.readChunks(clock, m.ID(), refs, nil, seg.Size, true)
				}
				if err == nil && seg.Chunks > 0 {
					t.Fatalf("read segment %q out of no chunks", seg.Name)
				}
			}
		}
	})
}

// frameShard frames payload as shard idx of the chunk at addr, under the
// digest recordDigest gives it.
func frameShard(addr []byte, idx, k, m, origLen int, payload []byte) []byte {
	return appendShard(nil, addr, idx, k, m, origLen, payload, recordDigest(addr, idx, k, m, origLen, payload))
}

// FuzzDecodeShard: the shard record decoder never panics, and a record it
// accepts is exactly what appendShard writes for the decoded fields under
// the digest recordDigest works out for them.
func FuzzDecodeShard(f *testing.F) {
	addr := bytes.Repeat([]byte{0xC3}, 32)
	for _, payload := range [][]byte{nil, []byte("shard payload bytes"), bytes.Repeat([]byte{0xA5}, 300)} {
		frame := frameShard(addr, 3, 4, 2, 4*len(payload), payload)
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:shardHeaderSize-1])
		for _, at := range []int{0, 9, 13, 25, shardDigestOff + 1, len(frame) - 1} {
			flipped := append([]byte(nil), frame...)
			flipped[at] ^= 0x01
			f.Add(flipped)
		}
	}
	// The degenerate geometries: a whole blob as the one data shard of a
	// 1+0 store, and as the parity shard of a mirror.
	f.Add(frameShard(addr, 0, 1, 0, 19, []byte("shard payload bytes")))
	f.Add(frameShard(addr, 1, 1, 1, 19, []byte("shard payload bytes")))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := [][]byte{data}
		if len(data) >= shardHeaderSize {
			// Same bytes under a fresh digest, so header mutations get past it.
			fixed := append([]byte(nil), data...)
			sum := shardDigest(fixed)
			copy(fixed[shardDigestOff:], sum[:])
			frames = append(frames, fixed)
		}
		for _, frame := range frames {
			h, payload, err := decodeShard(frame)
			if err != nil {
				continue
			}
			addr, err := hex.DecodeString(h.sum)
			if err != nil {
				t.Fatalf("accepted record has address %q", h.sum)
			}
			if again := frameShard(addr, h.idx, h.k, h.m, h.origLen, payload); !bytes.Equal(again, frame) {
				t.Fatalf("accepted record is not what appendShard writes:\n %x\n %x", frame, again)
			}
		}
	})
}

// FuzzDecodePack: the pack scanner never panics; what it returns is a run
// of records tiling a prefix of the input — all of it when there is no
// error — and any error is errTornPack. A record the scanner located
// either fails its digest or is exactly the record the header describes.
func FuzzDecodePack(f *testing.F) {
	for _, s := range packSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := scanPack(data)
		if err != nil && !errors.Is(err, errTornPack) {
			t.Fatalf("untyped scan error: %v", err)
		}
		end := 0
		for _, r := range recs {
			if r.off != end || r.n < shardHeaderSize || r.off+r.n > len(data) {
				t.Fatalf("record [%d,+%d) does not continue a tiling at %d of %d bytes", r.off, r.n, end, len(data))
			}
			end = r.off + r.n
			if h, payload, derr := decodeShard(data[r.off:end]); derr == nil {
				if h != r.shardHeader || len(payload) != r.payloadLen {
					t.Fatalf("record at %d decodes to %+v, scanned as %+v", r.off, h, r.shardHeader)
				}
			}
		}
		if (err == nil) != (end == len(data)) {
			t.Fatalf("scan covered %d of %d bytes with error %v", end, len(data), err)
		}
	})
}
