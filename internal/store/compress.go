package store

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"checl/internal/hw"
	"checl/internal/vtime"
)

// The store's compression stage. The codec is real (stdlib flate, so
// stored bytes genuinely shrink and round-trip), while its CPU cost is
// *modelled*: compressing or decompressing n bytes charges n/throughput to
// the virtual clock, exactly like every other I/O stage in the simulation.
// The throughputs roughly match a single core running a fast dictionary
// coder (lz4/flate-1 class).
const (
	flateLevel    = flate.BestSpeed
	compressBps   = 400 * hw.MBps
	decompressBps = 1200 * hw.MBps
)

// Chunk files carry a one-byte codec tag so raw storage remains available
// when compression is unprofitable.
const (
	codecRaw   = 0x00
	codecFlate = 0x01
)

// flate coders are expensive to build (a writer is ~1 MB of tables, a
// reader a few tens of KB) and cheap to Reset, and the store codes one
// ~16 KiB chunk at a time, so they are reused. A Reset coder produces the
// same bytes as a fresh one. The readers are pooled; the writers are kept
// in a Fleet's deflaters (a Put deflates on every worker at once, and a
// sync.Pool, which every garbage collection empties, would build each
// worker's writer anew after each one).
var flateReaders sync.Pool // *inflater

// deflaters is a free list of flate writers; the nil list keeps none.
type deflaters chan *flate.Writer

// compress encodes one chunk for storage with one of d's writers, or a new
// one when none is free, and gives the writer back to d. The blob is built
// in scratch, overwriting whatever that held, so a Put can pass a blob it
// is done with; a scratch too small for the chunk is replaced.
// Incompressible chunks are stored raw (the tag byte is the only overhead).
// The modelled compression time, compressBps, is the caller's to charge: a
// Put deflates its chunks on whichever worker is free and charges them in
// their own order.
func (d deflaters) compress(scratch, data []byte) ([]byte, error) {
	// Room for a chunk that does not shrink: raw, or a few bytes of block
	// headers over its size.
	if need := len(data) + len(data)/64 + 64; cap(scratch) < need {
		scratch = make([]byte, 0, need)
	}
	buf := bytes.NewBuffer(scratch[:0])
	buf.WriteByte(codecFlate)
	var w *flate.Writer
	select {
	case w = <-d:
		w.Reset(buf)
	default:
		var err error
		if w, err = flate.NewWriter(buf, flateLevel); err != nil {
			return nil, fmt.Errorf("store: compress: %w", err)
		}
	}
	if _, err := w.Write(data); err != nil {
		return nil, fmt.Errorf("store: compress: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("store: compress: %w", err)
	}
	select {
	case d <- w:
	default:
	}
	if buf.Len() >= len(data)+1 {
		return append(append(buf.Bytes()[:0], codecRaw), data...), nil
	}
	return buf.Bytes(), nil
}

// partsReader reads a list of slices as their concatenation. It is an
// io.ByteReader as well, so that flate reads it directly instead of through
// a bufio of its own.
type partsReader struct {
	parts [][]byte
	cur   []byte
}

// next makes cur the first slice with a byte left in it.
func (r *partsReader) next() bool {
	for len(r.cur) == 0 {
		if len(r.parts) == 0 {
			return false
		}
		r.cur, r.parts = r.parts[0], r.parts[1:]
	}
	return true
}

func (r *partsReader) Read(p []byte) (int, error) {
	if !r.next() {
		return 0, io.EOF
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}

func (r *partsReader) ReadByte() (byte, error) {
	if !r.next() {
		return 0, io.EOF
	}
	b := r.cur[0]
	r.cur = r.cur[1:]
	return b, nil
}

// inflater is a pooled flate reader with the source it reads.
type inflater struct {
	src partsReader
	fr  io.ReadCloser // also a flate.Resetter
}

// inflate decodes one stored chunk into dst, which is as long as the
// manifest says the chunk is, and reports how many bytes that gave: fewer
// than len(dst) is a chunk shorter than the manifest says. The blob comes
// as the slices it lies in, in order — a chunk file, or the data shards of
// a fleet — and is read where it lies. Nothing is written past dst: a blob
// that holds more is rejected rather than inflated. The modelled
// decompression time is returned, not charged: a chunk inflates on whichever
// worker is free, and the read charges its chunks in their own order.
func inflate(parts [][]byte, dst []byte) (n int, took vtime.Duration, err error) {
	src := partsReader{parts: parts}
	codec, err := src.ReadByte()
	if err != nil {
		return 0, 0, fmt.Errorf("store: empty chunk blob")
	}
	switch codec {
	case codecRaw:
		held := len(src.cur)
		for _, p := range src.parts {
			held += len(p)
		}
		if held > len(dst) {
			return 0, 0, fmt.Errorf("store: chunk holds %d bytes, manifest says %d", held, len(dst))
		}
		for src.next() {
			n += copy(dst[n:], src.cur)
			src.cur = nil
		}
		return n, 0, nil
	case codecFlate:
		in, _ := flateReaders.Get().(*inflater)
		if in == nil {
			in = &inflater{}
		}
		in.src = src
		if in.fr == nil {
			in.fr = flate.NewReader(&in.src)
		} else if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
			return 0, 0, fmt.Errorf("store: decompress: %w", err)
		}
		// Once dst is full, one byte of scratch tells a chunk of exactly that
		// size from one that goes on.
		var scratch [1]byte
		over := 0
		for over == 0 {
			into := dst[n:]
			if len(into) == 0 {
				into = scratch[:]
			}
			got, err := in.fr.Read(into)
			if n < len(dst) {
				n += got
			} else {
				over += got
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, 0, fmt.Errorf("store: decompress: %w", err)
			}
		}
		if over > 0 {
			return 0, 0, fmt.Errorf("store: chunk inflates past the %d bytes the manifest says", len(dst))
		}
		if err := in.fr.Close(); err != nil {
			return 0, 0, fmt.Errorf("store: decompress: %w", err)
		}
		flateReaders.Put(in)
		return n, decompressBps.Transfer(int64(n)), nil
	default:
		return 0, 0, fmt.Errorf("store: unknown chunk codec 0x%02x", codec)
	}
}
