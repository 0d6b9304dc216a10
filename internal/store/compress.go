package store

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math"
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
// ~16 KiB chunk at a time, so they are pooled. A Reset coder produces the
// same bytes as a fresh one.
var (
	flateWriters sync.Pool // *flate.Writer
	flateReaders sync.Pool // io.ReadCloser that is also a flate.Resetter
)

// compress encodes one chunk for storage, charging the modelled
// compression time to clock. The blob is built in scratch, overwriting
// whatever that held, so a Put can pass the last chunk's blob once it is
// done with it; nil scratch allocates. Incompressible chunks are stored
// raw (the tag byte is the only overhead).
func compress(clock *vtime.Clock, scratch, data []byte) ([]byte, error) {
	clock.Advance(compressBps.Transfer(int64(len(data))))
	if scratch == nil {
		scratch = make([]byte, 0, len(data)/2+64)
	}
	buf := bytes.NewBuffer(scratch[:0])
	buf.WriteByte(codecFlate)
	w, _ := flateWriters.Get().(*flate.Writer)
	if w != nil {
		w.Reset(buf)
	} else {
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
	flateWriters.Put(w)
	if buf.Len() >= len(data)+1 {
		return append(append(buf.Bytes()[:0], codecRaw), data...), nil
	}
	return buf.Bytes(), nil
}

// decompress decodes one stored chunk, charging the modelled
// decompression time to clock. size is how long the manifest says the
// chunk is: the buffer is allocated to it once, and a blob that holds more
// is rejected rather than inflated.
func decompress(clock *vtime.Clock, blob []byte, size int64) ([]byte, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("store: empty chunk blob")
	}
	if size < 0 || size > math.MaxInt32 {
		return nil, fmt.Errorf("store: chunk size %d out of range", size)
	}
	switch blob[0] {
	case codecRaw:
		if int64(len(blob)-1) > size {
			return nil, fmt.Errorf("store: chunk holds %d bytes, manifest says %d", len(blob)-1, size)
		}
		return blob[1:], nil
	case codecFlate:
		src := bytes.NewReader(blob[1:])
		r, _ := flateReaders.Get().(io.ReadCloser)
		if r == nil {
			r = flate.NewReader(src)
		} else if err := r.(flate.Resetter).Reset(src, nil); err != nil {
			return nil, fmt.Errorf("store: decompress: %w", err)
		}
		// One byte of headroom tells a chunk of exactly size bytes from one
		// that goes on.
		data := make([]byte, size+1)
		n := 0
		for n < len(data) {
			got, err := r.Read(data[n:])
			n += got
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("store: decompress: %w", err)
			}
		}
		if n == len(data) {
			return nil, fmt.Errorf("store: chunk inflates past the %d bytes the manifest says", size)
		}
		if err := r.Close(); err != nil {
			return nil, fmt.Errorf("store: decompress: %w", err)
		}
		flateReaders.Put(r)
		clock.Advance(decompressBps.Transfer(int64(n)))
		return data[:n], nil
	default:
		return nil, fmt.Errorf("store: unknown chunk codec 0x%02x", blob[0])
	}
}
