// Package cpr provides the conventional checkpoint/restart substrate that
// CheCL builds on: backends that dump a (simulated) process's host memory
// image to a checkpoint file on a simulated filesystem and restore it.
//
// Two backends mirror the systems discussed in the paper:
//
//   - BLCR: checkpoints a single process. It refuses a process whose
//     address space has GPU device mappings — the exact failure that makes
//     plain OpenCL processes uncheckpointable (§II) and that the API proxy
//     exists to avoid.
//   - DMTCP: checkpoints a process *and its children* by default, so it
//     fails when the API proxy (a child with device mappings) is alive; it
//     succeeds if the proxy is killed before the checkpoint and re-forked
//     afterwards (§V).
package cpr

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"checl/internal/proc"
	"checl/internal/store"
	"checl/internal/vtime"
)

// Image is the content of a checkpoint file: the process's registered
// memory regions plus an opaque application-state blob.
type Image struct {
	ProcessName string
	Regions     map[string][]byte
	AppState    []byte
}

// Stats reports what a checkpoint or restart cost.
type Stats struct {
	Bytes int64          // checkpoint file size
	Time  vtime.Duration // virtual time spent writing or reading the file
}

// Backend is a conventional CPR system. It dumps a process's memory image
// to a flat file or into a content-addressed checkpoint store, and restarts
// from either.
type Backend interface {
	// Name identifies the backend ("blcr", "dmtcp").
	Name() string
	// Checkpoint dumps p's memory image to path on fs.
	Checkpoint(p *proc.Process, fs *proc.FS, path string) (Stats, error)
	// Restart re-creates a process on node n from the file at path.
	Restart(n *proc.Node, fs *proc.FS, path string) (*proc.Process, Stats, error)
	// CheckpointToStoreIncremental dumps p's memory image into st under
	// job, one store segment per region, deduplicating against the job's
	// earlier checkpoints (and any other job's chunks). Regions whose names
	// map to true in clean are asserted byte-identical to the job's previous
	// checkpoint, and the store reuses that generation's chunk refs for them
	// instead of re-chunking (store.PutSegmented); a nil map marks none
	// clean. The same eligibility rules as Checkpoint apply.
	CheckpointToStoreIncremental(p *proc.Process, st store.Backend, job string, clean map[string]bool) (Stats, *store.PutStats, error)
	// RestartFromStore re-creates a process on node n from a store
	// checkpoint. ref is a manifest ID ("job@seq") or a bare job name (its
	// latest checkpoint). When the newest generation cannot be restored —
	// corrupt past healing, or not a decodable image — the restart walks
	// the generation chain to the newest one that can, and the returned
	// *store.DegradedRestore reports what was skipped; it is nil for a clean
	// restore of the newest generation. When no generation restores at all
	// the DegradedRestore is also the error.
	RestartFromStore(n *proc.Node, st store.Backend, ref string) (*proc.Process, Stats, *store.DegradedRestore, error)
}

// On-disk image framing. Every image starts with a fixed header — magic,
// format version, then a field of the version's own — so truncated or
// foreign bytes fail with a clear error instead of a raw decode failure.
// The body is a deterministic binary encoding (regions sorted by name):
// byte-identical inputs produce byte-identical bodies, which is what lets
// the content-addressed store deduplicate successive checkpoints.
//
// The two versions are the two places an image lives. A checkpoint file
// (flatImageVersion) carries the SHA-256 of its body, the one hash on the
// flat path. A store image (storeImageVersion) carries none: the store
// hashes every byte of it against a chunk address on the way in and on the
// way back, and checks every clean claim against the bytes (store.Segment).
// It carries a virtual instant instead, which keeps the head of every
// generation of a job that changed its own (StoreImage): a head that
// repeated an earlier one would deduplicate into that generation's pack,
// and every restore would read the whole old pack to get it. Each reader
// takes its own version only.
const (
	flatImageVersion  = 1
	storeImageVersion = 2
)

var imageMagic = []byte("CHECLIMG")

// imageHeaderLen is the header's length in each version: magic, version,
// then the body checksum of a file or the dump instant of a store image.
func imageHeaderLen(version uint16) int {
	if version == flatImageVersion {
		return 8 + 2 + sha256.Size
	}
	return 8 + 2 + 8
}

// appendField appends b as a length-prefixed field.
func appendField(buf, b []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

// readBytes returns the next length-prefixed field of body, which r is
// reading, as a sub-slice of body.
func readBytes(r *bytes.Reader, body []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("field of %d bytes exceeds remaining %d", n, r.Len())
	}
	at := len(body) - r.Len()
	end := at + int(n)
	r.Seek(int64(n), io.SeekCurrent) // cannot fail: in range, from the current position
	return body[at:end:end], nil
}

// imageLayout is an image's encoding as the byte slices it is the
// concatenation of: a head (frame header, process name, app state, region
// count) and per region, in sorted name order, a prefix (name frame and
// the data's length) followed by the region's own bytes, by reference.
// Laying an image out copies nothing of a region and hashes nothing; the
// header's last field, a checksum or a stamp, is the caller's to fill in.
type imageLayout struct {
	head    []byte
	regions []regionLayout
	size    int64
}

type regionLayout struct {
	name         string
	prefix, data []byte
}

func layoutImage(img Image, version uint16) imageLayout {
	names := make([]string, 0, len(img.Regions))
	for name := range img.Regions {
		names = append(names, name)
	}
	sort.Strings(names)

	hdr := imageHeaderLen(version)
	head := make([]byte, hdr, hdr+len(img.ProcessName)+len(img.AppState)+3*binary.MaxVarintLen64)
	copy(head, imageMagic)
	binary.BigEndian.PutUint16(head[len(imageMagic):], version)
	head = appendField(head, []byte(img.ProcessName))
	head = appendField(head, img.AppState)
	head = binary.AppendUvarint(head, uint64(len(names)))

	lay := imageLayout{head: head, regions: make([]regionLayout, len(names)), size: int64(len(head))}
	for i, name := range names {
		data := img.Regions[name]
		prefix := appendField(make([]byte, 0, len(name)+2*binary.MaxVarintLen64), []byte(name))
		prefix = binary.AppendUvarint(prefix, uint64(len(data)))
		lay.regions[i] = regionLayout{name: name, prefix: prefix, data: data}
		lay.size += int64(len(prefix) + len(data))
	}
	return lay
}

// encodeImage serialises an image to a checkpoint file as one contiguous
// buffer, its body checksum in the header.
func encodeImage(img Image) []byte {
	lay := layoutImage(img, flatImageVersion)
	out := append(make([]byte, 0, lay.size), lay.head...)
	for _, r := range lay.regions {
		out = append(append(out, r.prefix...), r.data...)
	}
	sum := sha256.Sum256(out[imageHeaderLen(flatImageVersion):])
	copy(out[len(imageMagic)+2:], sum[:])
	return out
}

// ImageError is the failure of decoding a checkpoint image: a truncated or
// foreign header, a version this reader does not take, a file body that
// does not match its checksum, a body that does not parse. Detect it with
// errors.As.
type ImageError string

func (e ImageError) Error() string { return string(e) }

func imageErrorf(format string, args ...any) error {
	return ImageError(fmt.Sprintf(format, args...))
}

// decodeImage parses an image of the given version — flatImageVersion for a
// checkpoint file, storeImageVersion for a store image — validating the
// header before touching the body. The image's fields are sub-slices of
// data. Every failure is an ImageError.
func decodeImage(data []byte, version uint16) (Image, error) {
	headerLen := imageHeaderLen(version)
	if len(data) < headerLen {
		return Image{}, imageErrorf("cpr: image truncated (%d bytes, header is %d)", len(data), headerLen)
	}
	if !bytes.Equal(data[:len(imageMagic)], imageMagic) {
		return Image{}, imageErrorf("cpr: not a checkpoint image (bad magic)")
	}
	if v := binary.BigEndian.Uint16(data[len(imageMagic):]); v != version {
		return Image{}, imageErrorf("cpr: image version %d where version %d is read", v, version)
	}
	body := data[headerLen:]
	if version == flatImageVersion {
		want := data[len(imageMagic)+2 : headerLen]
		if got := sha256.Sum256(body); !bytes.Equal(want, got[:]) {
			return Image{}, imageErrorf("cpr: image corrupt (body checksum mismatch)")
		}
	}

	r := bytes.NewReader(body)
	img := Image{Regions: map[string][]byte{}}
	name, err := readBytes(r, body)
	if err != nil {
		return Image{}, imageErrorf("cpr: decoding image: %v", err)
	}
	img.ProcessName = string(name)
	if img.AppState, err = readBytes(r, body); err != nil {
		return Image{}, imageErrorf("cpr: decoding image: %v", err)
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return Image{}, imageErrorf("cpr: decoding image: %v", err)
	}
	for i := uint64(0); i < count; i++ {
		rname, err := readBytes(r, body)
		if err != nil {
			return Image{}, imageErrorf("cpr: decoding image region %d: %v", i, err)
		}
		rdata, err := readBytes(r, body)
		if err != nil {
			return Image{}, imageErrorf("cpr: decoding image region %q: %v", rname, err)
		}
		img.Regions[string(rname)] = rdata
	}
	return img, nil
}

// ReadImage loads and decodes a checkpoint file without restarting it
// (used by tooling and by MPI global-snapshot aggregation). The image's
// fields are ranges of one buffer copied for this call from what the
// filesystem lends, which the caller owns through them.
func ReadImage(clock *vtime.Clock, fs *proc.FS, path string) (Image, error) {
	data, err := fs.ReadFile(clock, path)
	if err != nil {
		return Image{}, err
	}
	return decodeImage(append([]byte(nil), data...), flatImageVersion)
}

// BLCR is the Berkeley Lab Checkpoint/Restart-like backend.
type BLCR struct{}

// Name implements Backend.
func (BLCR) Name() string { return "blcr" }

// Checkpoint implements Backend. It fails with ErrDeviceMapped when the
// target process has device mappings in its address space.
func (b BLCR) Checkpoint(p *proc.Process, fs *proc.FS, path string) (Stats, error) {
	return checkpointToFile(b, p, fs, path)
}

// checkpointToFile is the shared flat-file dump: the image is encoded as
// one buffer and written to path on p's clock.
func checkpointToFile(b Backend, p *proc.Process, fs *proc.FS, path string) (Stats, error) {
	if err := checkpointable(b, p); err != nil {
		return Stats{}, err
	}
	data := encodeImage(Image{ProcessName: p.Name, Regions: p.RegionViews()})
	clock := p.Clock()
	sw := vtime.NewStopwatch(clock)
	if err := fs.WriteFile(clock, path, data); err != nil {
		return Stats{}, err
	}
	return Stats{Bytes: int64(len(data)), Time: sw.Elapsed()}, nil
}

// Restart implements Backend. The file's bytes are copied out of what the
// filesystem lends into a buffer of their own, which the restored process
// adopts (see RestartImage).
func (BLCR) Restart(n *proc.Node, fs *proc.FS, path string) (*proc.Process, Stats, error) {
	sw := vtime.NewStopwatch(n.Clock)
	data, err := fs.ReadFile(n.Clock, path)
	if err != nil {
		return nil, Stats{}, err
	}
	p, st, err := RestartImage(n, append([]byte(nil), data...))
	if err != nil {
		return nil, Stats{}, err
	}
	st.Time = sw.Elapsed()
	return p, st, nil
}

// RestartImage re-creates a process on node n from an in-memory checkpoint
// image. It is the file-less half of Restart, for callers that already
// hold the bytes — e.g. one rank's segment of an MPI global snapshot
// fetched from a content-addressed store — and have charged the read cost
// wherever the bytes came from. The returned Stats carry only the image
// size; no virtual time is spent here.
//
// data is adopted: the restored process's regions are the ranges of data
// that hold them, not copies, so the process owns data from here on and
// the caller must neither write to it nor hand it to anyone else.
func RestartImage(n *proc.Node, data []byte) (*proc.Process, Stats, error) {
	img, err := decodeImage(data, flatImageVersion)
	if err != nil {
		return nil, Stats{}, err
	}
	p := n.Spawn(img.ProcessName)
	p.RestoreRegions(img.Regions, nil)
	return p, Stats{Bytes: int64(len(data))}, nil
}

// DMTCP is the Distributed MultiThreaded CheckPointing-like backend: a
// user-level CPR system that checkpoints the whole process tree.
type DMTCP struct{}

// Name implements Backend.
func (DMTCP) Name() string { return "dmtcp" }

// Checkpoint implements Backend. DMTCP walks the process tree: a live
// child with device mappings (the API proxy) makes the checkpoint fail,
// reproducing the §V observation. Killing the proxy first makes it work.
func (d DMTCP) Checkpoint(p *proc.Process, fs *proc.FS, path string) (Stats, error) {
	return checkpointToFile(d, p, fs, path)
}

// Restart implements Backend.
func (DMTCP) Restart(n *proc.Node, fs *proc.FS, path string) (*proc.Process, Stats, error) {
	return BLCR{}.Restart(n, fs, path)
}

// DeviceMappedError reports the canonical CPR failure on GPU processes.
type DeviceMappedError struct {
	Backend string
	PID     int
	Name    string
}

func (e *DeviceMappedError) Error() string {
	return fmt.Sprintf("%s: cannot checkpoint process %d (%s): address space has device memory mappings",
		e.Backend, e.PID, e.Name)
}
