package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"checl/internal/proc"
	"checl/internal/vtime"
)

// nonsense are edits that leave a manifest with a valid magic, checksum
// and version and still describing no checkpoint: each used to panic a
// read path that trusted its numbers.
var nonsense = []struct {
	name string
	edit func(m *Manifest)
}{
	{"negative segment chunk count", func(m *Manifest) { m.Segments[0].Chunks = -1 }},
	{"segment chunks beyond list", func(m *Manifest) { m.Segments[0].Chunks += 2 }},
	{"segment chunks short of list", func(m *Manifest) { m.Segments[1].Chunks-- }},
	{"segment sizes short of size", func(m *Manifest) { m.Segments[1].Size-- }},
	{"negative segment size", func(m *Manifest) { m.Segments[0].Size = -m.Segments[0].Size }},
	{"negative size", func(m *Manifest) { m.Size, m.Segments = -1, nil }},
	{"short digest", func(m *Manifest) { m.Digest = m.Digest[:8] }},
	{"short chunk address", func(m *Manifest) { m.Chunks[0].Sum = "abc" }},
	{"non-hex chunk address", func(m *Manifest) { m.Chunks[0].Sum = strings.Repeat("z", 64) }},
	{"negative chunk size", func(m *Manifest) { m.Chunks[0].Size = -4096 }},
	{"chunk sizes short of segment size", func(m *Manifest) { m.Chunks[0].Size-- }},
	{"chunk sizes moved between segments", func(m *Manifest) {
		m.Chunks[0].Size++
		m.Chunks[len(m.Chunks)-1].Size--
	}},
	{"chunk sizes beyond size", func(m *Manifest) { m.Segments = nil; m.Chunks[0].Size += 1 << 40 }},
	{"size beyond chunk sizes", func(m *Manifest) { m.Segments = nil; m.Size += 1 << 40 }},
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
				bad.edit(&man)
				frame, err := encodeManifest(man)
				if err != nil {
					t.Fatal(err)
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

// manifestSeeds are good frames, their truncations and single-byte flips.
func manifestSeeds(t testing.TB) [][]byte {
	digest := strings.Repeat("ab", 32)
	flat := Manifest{Version: manifestVersion, Job: "j", Seq: 1, Size: 10, Digest: digest,
		Chunks: []ChunkRef{{Sum: digest, Size: 10, Stored: 7}}}
	seg := flat
	seg.Seq, seg.Parent = 2, "j@1"
	seg.Chunks = append(seg.Chunks, ChunkRef{Sum: strings.Repeat("cd", 32), Size: 0, Stored: 1})
	seg.Segments = []SegmentRef{{Name: "a", Size: 10, Chunks: 1}, {Name: "b", Chunks: 1, Clean: true}}
	var seeds [][]byte
	// Adds up, but no Put cuts a chunk this long.
	long := flat
	long.Size, long.Chunks = 1<<20, []ChunkRef{{Sum: digest, Size: 1 << 20, Stored: 7}}
	for _, m := range []Manifest{flat, seg, long, {Version: manifestVersion, Digest: digest}} {
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
	return seeds
}

// FuzzDecodeManifest: the decoder never panics, fails only with
// errCorruptManifest, and whatever it accepts re-encodes to the same
// manifest and can be handed to the read path — which then fails for
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
			if _, _, err := st.assemble(clock, m, true); err == nil && len(m.Chunks) > 0 {
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
					_, _, err = st.readChunks(clock, m.ID(), refs, nil, seg.Size, true, nil)
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
