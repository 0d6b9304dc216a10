package store

// One node's filesystem: where its manifests, packs and quarantine live,
// and the verified, retried I/O every operation on them goes through.

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"checl/internal/proc"
	"checl/internal/vtime"
)

// Config parameterises a store. The zero value selects sane defaults.
type Config struct {
	// Prefix is the directory-like path prefix inside the backing FS;
	// default "ckptstore".
	Prefix string
	// MinChunk/AvgChunk/MaxChunk are the content-defined chunking bounds
	// in bytes; AvgChunk must be a power of two. Defaults 4 KiB / 16 KiB /
	// 64 KiB.
	MinChunk, AvgChunk, MaxChunk int
}

func (c Config) withDefaults() Config {
	if c.Prefix == "" {
		c.Prefix = "ckptstore"
	}
	if c.MinChunk == 0 {
		c.MinChunk = 4 << 10
	}
	if c.AvgChunk == 0 {
		c.AvgChunk = 16 << 10
	}
	if c.MaxChunk == 0 {
		c.MaxChunk = 64 << 10
	}
	return c
}

// fleetNode is one member: its filesystem, laid out as
// <prefix>/manifests/<job>/<seq>, <prefix>/packs/... (pack.go) and
// <prefix>/quarantine/, and the index of the shard records in its packs.
type fleetNode struct {
	name   string
	fs     *proc.FS
	prefix string
	// remote says the node is reached over fleetLink; the filesystem a
	// store was opened on directly (New) is not — a local disk has no link,
	// and NFS's storage model already is the network.
	remote bool
	// recs and indexed are guarded by Fleet.idxMu. indexed is false until
	// the node's packs have been scanned: a node that is down when the
	// fleet opens is scanned when it first serves.
	recs    map[recKey]recLoc
	indexed bool
}

func newNode(name string, fs *proc.FS, prefix string, remote bool) *fleetNode {
	return &fleetNode{name: name, fs: fs, prefix: prefix, remote: remote, recs: map[recKey]recLoc{}}
}

// alive reports whether the node is serving (no node state = healthy).
func (n *fleetNode) alive() bool { return !n.fs.Node().Down() }

// linkBytes is what moving size bytes to or from the node puts on the link.
func (n *fleetNode) linkBytes(size int) int64 {
	if !n.remote {
		return 0
	}
	return int64(size)
}

func (n *fleetNode) manifestPath(job string, seq uint64) string {
	return fmt.Sprintf("%s/manifests/%s/%08d", n.prefix, job, seq)
}

// isTransientIO reports whether err is an injected transient I/O error
// worth retrying. *proc.ErrNoSpace deliberately is not: retrying cannot
// create capacity.
func isTransientIO(err error) bool {
	var eio *proc.ErrIO
	return errors.As(err, &eio)
}

// writeRetries is how many times verified writes, renames, removes and
// plain reads are retried past transient *proc.ErrIO (and, for writes,
// torn/lost outcomes caught by read-back). *proc.ErrNoSpace is never
// retried.
const writeRetries = 2

// readRetry reads path from fs, retrying transient EIO up to writeRetries
// times. Bit rot is not an error at this layer — it surfaces as corrupt
// data to the caller's checksum.
func readRetry(clock *vtime.Clock, fs *proc.FS, path string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= writeRetries; attempt++ {
		data, err := fs.ReadFile(clock, path)
		if err == nil {
			return data, nil
		}
		if !isTransientIO(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// writeVerified writes path and reads it back, retrying until the stored
// bytes equal data or the retry budget runs out. This is what turns torn
// writes, lost writes and transient EIO into at-worst a latency cost:
// a Put that returns success has proven its bytes are on disk.
// *proc.ErrNoSpace aborts immediately.
func (n *fleetNode) writeVerified(clock *vtime.Clock, path string, data []byte) error {
	return n.writeReadBack(clock, clock, path, data)
}

// writeVerifiedMeta is writeVerified for manifest-sized metadata: the
// write itself charges normally, but the read-back verification runs
// against a throwaway clock, matching readManifest's convention that
// manifest frames are a few KB of metadata whose transfer time vanishes
// next to the chunk I/O.
func (n *fleetNode) writeVerifiedMeta(clock *vtime.Clock, path string, data []byte) error {
	return n.writeReadBack(clock, vtime.NewClock(), path, data)
}

func (n *fleetNode) writeReadBack(clock, verify *vtime.Clock, path string, data []byte) error {
	var lastErr error
	for attempt := 0; attempt <= writeRetries; attempt++ {
		if err := n.fs.WriteFile(clock, path, data); err != nil {
			var nospace *proc.ErrNoSpace
			if errors.As(err, &nospace) {
				return err
			}
			lastErr = err
			continue
		}
		back, err := n.fs.ReadFile(verify, path)
		if err == nil && bytes.Equal(back, data) {
			return nil
		}
		if err != nil {
			lastErr = fmt.Errorf("store: verifying %s: %w", path, err)
		} else {
			lastErr = fmt.Errorf("store: %s corrupt immediately after write", path)
		}
	}
	return lastErr
}

// retryMeta runs one metadata operation, retrying transient EIO.
func retryMeta(op func() error) error {
	var lastErr error
	for attempt := 0; attempt <= writeRetries; attempt++ {
		if lastErr = op(); lastErr == nil || !isTransientIO(lastErr) {
			return lastErr
		}
	}
	return lastErr
}

func (n *fleetNode) removeRetry(path string) error {
	return retryMeta(func() error { return n.fs.Remove(path) })
}

// quarantine moves the node's frame of job@seq out of the manifest
// namespace, preserved for a post-mortem. Renames are atomic in FS, so a
// failed attempt leaves both paths untouched.
func (n *fleetNode) quarantine(job string, seq uint64) error {
	to := fmt.Sprintf("%s/quarantine/%s-%08d", n.prefix, job, seq)
	return retryMeta(func() error { return n.fs.Rename(n.manifestPath(job, seq), to) })
}

// manifestFiles scans the manifest namespace and returns every (job, seq)
// with a file present, in listing order.
func (n *fleetNode) manifestFiles() []manifestKey {
	prefix := n.prefix + "/manifests/"
	var out []manifestKey
	for _, p := range n.fs.List() {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		job, seqStr, ok := strings.Cut(strings.TrimPrefix(p, prefix), "/")
		if !ok {
			continue
		}
		if seq, err := strconv.ParseUint(seqStr, 10, 64); err == nil {
			out = append(out, manifestKey{job, seq})
		}
	}
	return out
}

// readManifest loads and validates the node's copy of one manifest frame.
// Manifest reads are metadata operations and charge no virtual time (they
// are a few KB against multi-MB images; the latency is inside the pack
// reads). A frame that fails to decode wraps errCorruptManifest so callers
// can tell integrity failures from infrastructure ones.
func (n *fleetNode) readManifest(job string, seq uint64) (Manifest, error) {
	data, err := readRetry(vtime.NewClock(), n.fs, n.manifestPath(job, seq))
	if err != nil {
		return Manifest{}, fmt.Errorf("store: manifest %s: %w", manifestID(job, seq), err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		return Manifest{}, fmt.Errorf("store: manifest %s: %w", manifestID(job, seq), err)
	}
	return m, nil
}

// storedBytes reports the bytes the store occupies on the node's
// filesystem: packs, manifests and anything quarantined.
func (n *fleetNode) storedBytes() int64 {
	var total int64
	for _, p := range n.fs.List() {
		if strings.HasPrefix(p, n.prefix+"/") {
			if sz, err := n.fs.Size(p); err == nil {
				total += sz
			}
		}
	}
	return total
}
