package store

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"checl/internal/hw"
	"checl/internal/proc"
	"checl/internal/vtime"
)

// Config parameterises a Store. The zero value selects sane defaults.
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

// Store is a content-addressed checkpoint store on one backing
// filesystem: the engine's single-disk placement. Chunks live under
// <prefix>/chunks/<sha256>, shared by every job; manifests live under
// <prefix>/manifests/<job>/<seq>. Mutating operations stage their files
// under <prefix>/staging/ and publish them with atomic renames, manifest
// last, so a crash mid-operation never corrupts Latest; Recover sweeps the
// staging area and quarantines torn manifests into <prefix>/quarantine/.
type Store struct {
	engine
	fs *proc.FS

	mu  sync.Mutex // serialises Put/GC/Replicate/Recover/Scrub sequencing
	txn uint64     // staging-directory counter, monotone under mu

	healMu   sync.Mutex
	replicas []replicaRef
	heals    HealStats
}

// replicaRef is one attached replica and the modelled link to it.
type replicaRef struct {
	st  *Store
	nic hw.Bandwidth
}

// New opens (or creates — the store is its own directory layout) a store
// on fs. Callers opening a store that may have crashed mid-operation
// should run Recover before trusting capacity or Latest.
func New(fs *proc.FS, cfg Config) *Store {
	s := &Store{fs: fs}
	s.engine = engine{cfg: cfg.withDefaults(), p: s}
	return s
}

// FS exposes the backing filesystem (tooling, tests).
func (s *Store) FS() *proc.FS { return s.fs }

// Name identifies the store by its backing filesystem (Backend).
func (s *Store) Name() string { return s.fs.Name() }

func (s *Store) chunkPath(sum string) string {
	return s.cfg.Prefix + "/chunks/" + sum
}

func (s *Store) manifestPath(job string, seq uint64) string {
	return fmt.Sprintf("%s/manifests/%s/%08d", s.cfg.Prefix, job, seq)
}

func (s *Store) stagingPrefix() string    { return s.cfg.Prefix + "/staging/" }
func (s *Store) quarantinePrefix() string { return s.cfg.Prefix + "/quarantine/" }

func (s *Store) lockSeq()           { s.mu.Lock() }
func (s *Store) unlockSeq()         { s.mu.Unlock() }
func (s *Store) repairHint() string { return "Recover or Scrub" }

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
func (s *Store) writeVerified(clock *vtime.Clock, path string, data []byte) error {
	return s.writeReadBack(clock, clock, path, data)
}

// writeVerifiedMeta is writeVerified for manifest-sized metadata: the
// write itself charges normally, but the read-back verification runs
// against a throwaway clock, matching readManifest's convention that
// manifest frames are a few KB of metadata whose transfer time vanishes
// next to the chunk I/O.
func (s *Store) writeVerifiedMeta(clock *vtime.Clock, path string, data []byte) error {
	return s.writeReadBack(clock, vtime.NewClock(), path, data)
}

func (s *Store) writeReadBack(clock, verify *vtime.Clock, path string, data []byte) error {
	var lastErr error
	for attempt := 0; attempt <= writeRetries; attempt++ {
		if err := s.fs.WriteFile(clock, path, data); err != nil {
			var nospace *proc.ErrNoSpace
			if errors.As(err, &nospace) {
				return err
			}
			lastErr = err
			continue
		}
		back, err := s.fs.ReadFile(verify, path)
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
func (s *Store) retryMeta(op func() error) error {
	var lastErr error
	for attempt := 0; attempt <= writeRetries; attempt++ {
		if lastErr = op(); lastErr == nil || !isTransientIO(lastErr) {
			return lastErr
		}
	}
	return lastErr
}

// renameRetry publishes old at new. Renames are atomic in FS, so a failed
// attempt leaves both paths untouched.
func (s *Store) renameRetry(old, new string) error {
	return s.retryMeta(func() error { return s.fs.Rename(old, new) })
}

func (s *Store) removeRetry(path string) error {
	return s.retryMeta(func() error { return s.fs.Remove(path) })
}

// diskTxn is one staged transaction on a Store: blobs and finally the
// manifest are written verified under <prefix>/staging/<kind>-<job>-<seq>-<n>/,
// then published by renaming the chunks and last the manifest — the
// atomic commit point. Cut short at any earlier operation it leaves only
// staged files no manifest references; Recover reclaims them. Put and
// Replicate (and through it replica write-through) all commit this way.
type diskTxn struct {
	s    *Store
	dir  string
	sums []string // staged chunks, in staging order
	// chunkData keeps every chunk the Put saw, uncompressed, for
	// write-through repair (see copyManifestTo).
	chunkData map[string][]byte
}

// nextTxn hands out a fresh staging-directory suffix.
func (s *Store) nextTxn() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.txn++
	return s.txn
}

// openTxn names a staging directory; n is a fresh txn counter value.
func (s *Store) openTxn(kind, job string, seq, n uint64) *diskTxn {
	return &diskTxn{s: s, dir: fmt.Sprintf("%s%s-%s-%08d-%d", s.stagingPrefix(), kind, job, seq, n)}
}

func (s *Store) beginPut(job string, seq uint64) putTxn {
	s.txn++
	tx := s.openTxn("put", job, seq, s.txn)
	tx.chunkData = map[string][]byte{}
	return tx
}

// probe is the dedup check: a published chunk file of that name.
func (t *diskTxn) probe(sum string, chunk []byte) (int64, bool) {
	t.chunkData[sum] = chunk
	stored, err := t.s.fs.Size(t.s.chunkPath(sum))
	return stored, err == nil
}

func (t *diskTxn) stage(clock *vtime.Clock, sum string, blob []byte) (int64, error) {
	if err := t.s.writeVerified(clock, t.dir+"/"+sum, blob); err != nil {
		return 0, fmt.Errorf("store: writing chunk %s: %w", sum[:12], err)
	}
	t.sums = append(t.sums, sum)
	return int64(len(blob)), nil
}

// flush has nothing to do: stage wrote every blob as it came.
func (*diskTxn) flush(*vtime.Clock) (int64, error) { return 0, nil }

func (t *diskTxn) commit(clock *vtime.Clock, man Manifest, frame []byte) (int64, error) {
	s := t.s
	if err := s.writeVerifiedMeta(clock, t.dir+"/manifest", frame); err != nil {
		return 0, fmt.Errorf("store: writing manifest %s: %w", man.ID(), err)
	}
	for _, sum := range t.sums {
		if err := s.renameRetry(t.dir+"/"+sum, s.chunkPath(sum)); err != nil {
			return 0, fmt.Errorf("store: committing chunk for %s: %w", man.ID(), err)
		}
	}
	if err := s.renameRetry(t.dir+"/manifest", s.manifestPath(man.Job, man.Seq)); err != nil {
		return 0, fmt.Errorf("store: committing manifest %s: %w", man.ID(), err)
	}
	return 0, nil
}

// settle is replica write-through: the checkpoint is durable on the
// primary; now make it durable on every attached replica (AttachReplica)
// before Put reports success, so the moment a Put succeeds every replica
// can serve it. A failure is returned even though the primary commit
// stands.
func (t *diskTxn) settle(clock *vtime.Clock, man Manifest) error {
	for _, r := range t.s.replicaList() {
		if _, err := t.s.copyManifestTo(clock, man, r.st, r.nic, t.chunkData); err != nil {
			return fmt.Errorf("store: %s committed but replication to %s failed: %w",
				man.ID(), r.st.fs.Name(), err)
		}
	}
	return nil
}

// readBlob loads this store's own copy of one chunk's blob, with EIO
// retries and nothing verified.
func (s *Store) readBlob(clock *vtime.Clock, ref ChunkRef) ([]byte, error) {
	blob, err := readRetry(clock, s.fs, s.chunkPath(ref.Sum))
	if err != nil {
		return nil, fmt.Errorf("store: chunk %s missing: %w", ref.Sum[:12], err)
	}
	return blob, nil
}

// manifestFiles scans the manifest namespace and returns every (job, seq)
// with a file present, in listing order.
func (s *Store) manifestFiles() []manifestKey {
	prefix := s.cfg.Prefix + "/manifests/"
	var out []manifestKey
	for _, p := range s.fs.List() {
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

// readManifest loads and validates one manifest frame. Manifest reads are
// metadata operations and charge no virtual time (they are a few KB
// against multi-MB images; the latency is inside the chunk reads). A
// frame that fails to decode wraps errCorruptManifest so callers can tell
// integrity failures from infrastructure ones.
func (s *Store) readManifest(job string, seq uint64) (Manifest, error) {
	data, err := readRetry(vtime.NewClock(), s.fs, s.manifestPath(job, seq))
	if err != nil {
		return Manifest{}, fmt.Errorf("store: manifest %s: %w", manifestID(job, seq), err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		return Manifest{}, fmt.Errorf("store: manifest %s: %w", manifestID(job, seq), err)
	}
	return m, nil
}

func (s *Store) dropManifest(job string, seq uint64) error {
	return s.removeRetry(s.manifestPath(job, seq))
}

func (s *Store) sweepChunks(referenced map[string]bool) (kept, dropped int, reclaimed int64, err error) {
	prefix := s.cfg.Prefix + "/chunks/"
	for _, p := range s.fs.List() {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		if referenced[strings.TrimPrefix(p, prefix)] {
			kept++
			continue
		}
		size, _ := s.fs.Size(p)
		if err := s.removeRetry(p); err != nil {
			return kept, dropped, reclaimed, err
		}
		dropped++
		reclaimed += size
	}
	return kept, dropped, reclaimed, nil
}

// TotalStoredBytes reports the bytes the store occupies on its backing
// filesystem (chunks + manifests + any staged or quarantined leftovers).
func (s *Store) TotalStoredBytes() int64 {
	var n int64
	for _, p := range s.fs.List() {
		if strings.HasPrefix(p, s.cfg.Prefix+"/") {
			if sz, err := s.fs.Size(p); err == nil {
				n += sz
			}
		}
	}
	return n
}
