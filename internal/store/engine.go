package store

// The checkpoint pipeline and catalog, written once for every geometry:
// Put chunks, hashes, dedups and compresses payloads into manifests, Get
// and the restore walk read them back verified, and GC and Fsck keep the
// catalog honest. Where the bytes go — k+m shard records in packs over a
// set of nodes — is fleet.go's.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"checl/internal/vtime"
)

// manifestKey names one manifest file.
type manifestKey struct {
	Job string
	Seq uint64
}

// errCorruptManifest marks a manifest frame that is present but does not
// decode (torn write, bit rot, nonsense contents) — an integrity failure,
// as opposed to an infrastructure failure like a persistent EIO.
var errCorruptManifest = errors.New("corrupt manifest frame")

// PutStats reports what one Put cost and how well it deduplicated.
type PutStats struct {
	Manifest    string // manifest ID ("job@seq")
	TotalBytes  int64  // payload size
	TotalChunks int
	NewChunks   int            // chunks not already present in the store
	NewBytes    int64          // uncompressed bytes of those new chunks
	StoredBytes int64          // bytes actually written for them (post-compression)
	Time        vtime.Duration // what the Put charged to the clock, from start to commit

	// Clean-segment reuse (PutSegmented): chunk refs copied verbatim from
	// the parent manifest once the covered bytes, cut at the parent's
	// boundaries, matched their checks — neither chunked, probed,
	// compressed nor sealed.
	ReusedChunks int
	ReusedBytes  int64
	// RefutedClean counts the segments claimed Clean whose bytes did not
	// match the parent segment's refs' checks, UncheckedClean those the
	// job's previous manifest has no segment of that name and size for (or
	// the job none): each was stored as a dirty one. The claims that held are
	// the manifest's Clean segments.
	RefutedClean   int
	UncheckedClean int
	// Stage times on the write's lanes (fleet.go's writeLanes): the CPU
	// lane's compression time, and how long the Put ran after its CPU lane
	// was done — what was left of the link and the disks, then the manifest
	// publish. Their sum is at most Time: the rest of the CPU lane is
	// encoding, and the link and the disks ran beside the CPU.
	CompressTime vtime.Duration
	WriteTime    vtime.Duration
}

// DedupRatio is the fraction of the payload satisfied by chunks already
// in the store (1 = everything deduplicated, 0 = everything new).
func (p PutStats) DedupRatio() float64 {
	if p.TotalBytes == 0 {
		return 0
	}
	return 1 - float64(p.NewBytes)/float64(p.TotalBytes)
}

// Segment names one contiguous region of a PutSegmented payload. Segments
// must tile the payload exactly (ascending contiguous offsets covering
// every byte) and carry unique non-empty names. A segment marked Clean
// asserts its bytes are identical to the same-named segment of the job's
// previous checkpoint. Clean is a claim the store checks, not one it
// trusts: when the parent manifest has a segment of that name and size, the
// Put computes the check of the segment's current bytes at the parent's
// chunk boundaries, on its workers, and only if every check is the parent
// ref's (ChunkRef.Check) does it copy the parent's chunk refs verbatim —
// no chunking, probing, compression or sealing for those bytes. A claim the bytes refute is stored as a dirty
// segment and counted (PutStats.RefutedClean), so a checkpoint always holds
// the bytes it was handed. A Clean segment with no matching parent segment
// is treated as dirty and counted too (PutStats.UncheckedClean).
//
// A segment's bytes reach the store in one of two forms. With a contiguous
// payload they are payload[Off:Off+Len]. With a nil payload each segment
// carries them itself in Data, a short list of slices whose concatenation
// is the segment — for a process image, a length prefix and then the
// region's own memory — so that nobody has to build the payload to store
// it. The store reads Data during the Put and keeps no reference to it
// afterwards; it copies only the chunks that span two slices.
//
// A lone segment with an empty name is the unsegmented payload: it is
// chunked as one dirty region and the manifest records no segment map.
type Segment struct {
	Name     string
	Off, Len int64
	Clean    bool
	Data     [][]byte
}

// segmentBytes is PutSegmented's entry normalisation: it validates segs
// against the form the bytes came in and returns them, each carrying its
// bytes in Data, with the payload's size. From here on there is one form.
func segmentBytes(payload []byte, segs []Segment) ([]Segment, int64, error) {
	if segs == nil {
		segs = []Segment{{Len: int64(len(payload))}} // the legacy Put
	}
	out := make([]Segment, len(segs))
	var off int64
	seen := make(map[string]bool, len(segs))
	for i, sg := range segs {
		if sg.Name == "" && len(segs) > 1 {
			return nil, 0, fmt.Errorf("store: segment %d has no name", i)
		}
		if seen[sg.Name] {
			return nil, 0, fmt.Errorf("store: duplicate segment name %q", sg.Name)
		}
		seen[sg.Name] = true
		if sg.Len < 0 || sg.Off != off {
			return nil, 0, fmt.Errorf("store: segment %q does not tile the payload (off %d len %d, want off %d)",
				sg.Name, sg.Off, sg.Len, off)
		}
		if payload == nil {
			var n int64
			for _, b := range sg.Data {
				n += int64(len(b))
			}
			if n != sg.Len {
				return nil, 0, fmt.Errorf("store: segment %q carries %d bytes, its length says %d", sg.Name, n, sg.Len)
			}
		}
		off += sg.Len
		out[i] = sg
	}
	if payload != nil {
		if off != int64(len(payload)) {
			return nil, 0, fmt.Errorf("store: segments cover %d bytes, payload has %d", off, len(payload))
		}
		for i, sg := range out {
			out[i].Data = [][]byte{payload[sg.Off : sg.Off+sg.Len]}
		}
	}
	return out, off, nil
}

// Put stores one checkpoint payload for job: the payload is chunked,
// chunks already present (from any job) are skipped, new chunks are
// compressed and written, and a manifest linking to the job's previous
// checkpoint is recorded. clock is the writer's CPU; the records cross the
// link and the packs are written and verified beside it, and the Put ends
// at the last verified pack plus the manifest publish (writeLanes). A full
// filesystem surfaces as *proc.ErrNoSpace. How the commit is made
// crash-consistent is fleet.go's commit protocol.
func (f *Fleet) Put(clock *vtime.Clock, job string, payload []byte) (Manifest, PutStats, error) {
	return f.PutSegmented(clock, job, payload, nil)
}

// PutSegmented is Put with a caller-supplied segment map over the payload:
// each segment becomes an independently chunked region recorded in the
// manifest, and segments marked Clean reuse the parent manifest's chunk
// refs instead of being re-chunked (see Segment). nil segs is exactly the
// legacy Put — one anonymous dirty region, no segment map in the manifest.
// With a nil payload the segments carry their own bytes (Segment.Data) and
// the payload is their concatenation, which is never built: the bytes are
// lent for the length of the call and read where they lie.
//
// An error return is equivalent to a crash at that point: whatever was
// staged stays where it is for the janitors, GC and Scrub, and clock has
// moved to the latest instant the Put's lanes reached.
func (f *Fleet) PutSegmented(clock *vtime.Clock, job string, payload []byte, segs []Segment) (Manifest, PutStats, error) {
	if job == "" || strings.ContainsAny(job, "/@") {
		return Manifest{}, PutStats{}, fmt.Errorf("store: invalid job name %q", job)
	}
	segs, size, err := segmentBytes(payload, segs)
	if err != nil {
		return Manifest{}, PutStats{}, err
	}
	sw := vtime.NewStopwatch(clock)
	f.mu.Lock()
	man, stats, err := f.putLocked(clock, job, segs, size)
	f.mu.Unlock()
	if err != nil {
		return Manifest{}, stats, err
	}
	stats.Time = sw.Elapsed()
	return man, stats, nil
}

// putLocked is the Put proper, run under f.mu: everything up to and
// including the manifest commit.
func (f *Fleet) putLocked(clock *vtime.Clock, job string, segs []Segment, size int64) (Manifest, PutStats, error) {
	// Sequence numbers come from the listing, not from the newest decodable
	// manifest, so a torn newest manifest is never silently overwritten —
	// it stays in place for Scrub and the new checkpoint gets the next
	// number. The parent link does come from the newest decodable one.
	seq := uint64(1)
	seqs := f.jobSeqs(job)
	if len(seqs) > 0 {
		seq = seqs[len(seqs)-1] + 1
	}
	parent, haveParent, err := f.newestOf(job, seqs)
	if err != nil {
		return Manifest{}, PutStats{}, err
	}
	man := Manifest{
		Version: manifestVersion, Job: job, Seq: seq,
		Size: size, CreatedAt: clock.Now(),
	}
	if haveParent {
		man.Parent = parent.ID()
	}
	stats := PutStats{Manifest: man.ID(), TotalBytes: size}
	lanes := &writeLanes{}
	f.beginWrite(job, seq, lanes)
	// A Put that fails has still spent what its lanes reached.
	fail := func(err error) (Manifest, PutStats, error) {
		clock.AdvanceTo(lanes.end())
		return Manifest{}, stats, err
	}
	// Every clean claim is checked before the first chunk is cut, so that
	// what follows decides segment by segment in payload order.
	var held []bool
	held, stats.RefutedClean, stats.UncheckedClean = f.checkClaims(parent, segs)
	ck := chunker{min: f.cfg.Store.MinChunk, avg: f.cfg.Store.AvgChunk, max: f.cfg.Store.MaxChunk}
	written := map[string]int64{} // blob length of chunks this Put wrote
	win := f.openWindow()
	defer win.close()
	// A clean segment's refs join the manifest, and its chunks the stats, in
	// payload order: once the chunks cut before it are staged.
	type cleanRun struct {
		at   int // chunks cut before it
		refs []ChunkRef
		size int64
	}
	var cleans []cleanRun
	reuse := func(upTo int) {
		for ; len(cleans) > 0 && cleans[0].at <= upTo; cleans = cleans[1:] {
			man.Chunks = append(man.Chunks, cleans[0].refs...)
			stats.TotalChunks += len(cleans[0].refs)
			stats.ReusedChunks += len(cleans[0].refs)
			stats.ReusedBytes += cleans[0].size
		}
	}
	// stageNext is the ordered half of the oldest chunk in the window.
	stageNext := func() error {
		reuse(win.staged)
		s := win.next()
		ref := ChunkRef{Sum: s.sum, Size: int64(len(s.data)), Check: s.check}
		if stored, ok := written[s.sum]; ok {
			ref.Stored = stored
		} else if stored, ok := f.chunkPresent(s.sum, s.nodes); ok {
			ref.Stored = stored
		} else {
			took := compressBps.Transfer(int64(len(s.data)))
			clock.Advance(took)
			c, err := win.work(s)
			if err != nil {
				return err
			}
			stats.CompressTime += took
			phys, err := f.stage(clock, c)
			stats.StoredBytes += phys
			if err != nil {
				return err
			}
			written[s.sum] = int64(len(c.blob))
			ref.Stored = int64(len(c.blob))
			stats.NewChunks++
			stats.NewBytes += int64(len(s.data))
		}
		man.Chunks = append(man.Chunks, ref)
		stats.TotalChunks++
		return nil
	}

	for i, sg := range segs {
		if held[i] {
			_, refs, _ := parent.segment(sg.Name)
			man.Segments = append(man.Segments, SegmentRef{
				Name: sg.Name, Size: sg.Len, Chunks: len(refs), Clean: true,
			})
			cleans = append(cleans, cleanRun{at: win.cut, refs: refs, size: sg.Len})
			continue
		}
		// Each chunk goes to the workers as soon as it is cut.
		chunks := 0
		if err := ck.cuts(sg.Data, func(chunk []byte) error {
			if win.full() {
				if err := stageNext(); err != nil {
					return err
				}
			}
			win.push(chunk)
			chunks++
			return nil
		}); err != nil {
			return fail(err)
		}
		if sg.Name != "" {
			man.Segments = append(man.Segments, SegmentRef{Name: sg.Name, Size: sg.Len, Chunks: chunks})
		}
	}
	for win.pending() {
		if err := stageNext(); err != nil {
			return fail(err)
		}
	}
	reuse(win.cut)
	// The CPU lane ends here. What the Put takes from now on, its WriteTime,
	// is the link's and the disks' tails and the commit.
	wsw := vtime.NewStopwatch(clock)
	phys, err := f.flush(clock)
	stats.StoredBytes += phys
	if err != nil {
		return fail(err)
	}
	clock.AdvanceTo(lanes.end())

	frame, err := encodeManifest(man)
	if err != nil {
		return Manifest{}, stats, err
	}
	published, err := f.publishManifest(clock, job, seq, frame)
	if err != nil {
		return Manifest{}, stats, err
	}
	stats.StoredBytes += int64(published) * int64(len(frame))
	stats.WriteTime = wsw.Elapsed()
	return man, stats, nil
}

// Get reconstructs a checkpoint payload. ref is either a manifest ID
// ("job@seq") or a bare job name, which selects the job's latest
// checkpoint. Every chunk is verified against its content address, so the
// payload is exactly the bytes the manifest's refs name — the bytes the
// Put was handed, clean segments included, whose claims the Put checked
// (see Segment). A chunk that is missing or corrupt is transparently
// healed from the surviving shards (HealStats). The payload is a buffer made for this
// call; the store keeps no reference to it, so it is the caller's to keep,
// cut up and write to (Get, GetSegment and GetNewestRestorable alike).
func (f *Fleet) Get(clock *vtime.Clock, ref string) ([]byte, Manifest, error) {
	man, err := f.Resolve(ref)
	if err != nil {
		return nil, Manifest{}, err
	}
	payload, _, err := f.readChunks(clock, man.ID(), man.Chunks, nil, man.Size, true)
	return payload, man, err
}

// GetSegment reconstructs one named segment of a checkpoint payload
// without assembling the rest: only the chunks the segment owns are read
// (healed as needed) and each is verified against its content address,
// as every read's are. This is what makes MPI partial restart read O(one
// rank) instead of O(world): segments partition the manifest's chunk list
// in order, so a rank's bytes are a consecutive chunk run.
func (f *Fleet) GetSegment(clock *vtime.Clock, ref, name string) ([]byte, Manifest, error) {
	man, err := f.Resolve(ref)
	if err != nil {
		return nil, Manifest{}, err
	}
	if len(man.Segments) == 0 {
		return nil, man, fmt.Errorf("store: %s: no segment map (whole-payload checkpoint)", man.ID())
	}
	seg, refs, ok := man.segment(name)
	if !ok {
		return nil, man, fmt.Errorf("store: %s: no segment named %q", man.ID(), name)
	}
	payload, _, err := f.readChunks(clock, man.ID(), refs, nil, seg.Size, true)
	return payload, man, err
}

// parseRef splits a ref into its job and, for "job@seq", the sequence
// number; a bare job name reports latest.
func parseRef(ref string) (job string, seq uint64, latest bool, err error) {
	job, seqStr, ok := strings.Cut(ref, "@")
	if !ok {
		return ref, 0, true, nil
	}
	if seq, err = strconv.ParseUint(seqStr, 10, 64); err != nil {
		return "", 0, false, fmt.Errorf("store: bad manifest ref %q: %w", ref, err)
	}
	return job, seq, false, nil
}

// Resolve looks a ref up without reading chunk data. ref is "job@seq" or
// a bare job name (latest checkpoint of that job).
func (f *Fleet) Resolve(ref string) (Manifest, error) {
	job, seq, latest, err := parseRef(ref)
	if err != nil {
		return Manifest{}, err
	}
	if !latest {
		return f.loadManifest(job, seq, true)
	}
	man, ok, err := f.Latest(job)
	if err != nil {
		return Manifest{}, err
	}
	if !ok {
		return Manifest{}, fmt.Errorf("store: job %q has no checkpoints", job)
	}
	return man, nil
}

// Latest reports the newest decodable manifest of a job, if any. Torn or
// rotten manifest frames are skipped — an interrupted Put can never make
// a job unrestorable, only push Latest back one generation until Scrub
// deals with the bad frame. Any other read failure is the
// infrastructure's and is returned: an older generation must not silently
// stand in for one that may be perfectly good.
func (f *Fleet) Latest(job string) (Manifest, bool, error) {
	return f.newestOf(job, f.jobSeqs(job))
}

// newestOf is Latest over an already listed, ascending set of seqs.
func (f *Fleet) newestOf(job string, seqs []uint64) (Manifest, bool, error) {
	for i := len(seqs) - 1; i >= 0; i-- {
		m, err := f.loadManifest(job, seqs[i], true)
		if err == nil {
			return m, true, nil
		}
		if !errors.Is(err, errCorruptManifest) {
			return Manifest{}, false, err
		}
	}
	return Manifest{}, false, nil
}

// jobSeqs lists the sequence numbers present (decodable or not) for job,
// ascending as manifestFiles lists them.
func (f *Fleet) jobSeqs(job string) []uint64 {
	var seqs []uint64
	for _, k := range f.manifestFiles() {
		if k.Job == job {
			seqs = append(seqs, k.Seq)
		}
	}
	return seqs
}

// ManifestIssue reports one manifest file that could not be loaded.
type ManifestIssue struct {
	Job string
	Seq uint64
	Err error
}

// ID formats the issue's manifest reference ("job@seq").
func (i ManifestIssue) ID() string { return manifestID(i.Job, i.Seq) }

// Manifests lists every decodable manifest in the store, ordered by job
// then seq, plus one issue per manifest file that failed to load — a
// single torn frame is a finding for that manifest only, it cannot mask
// the rest of the store. Bad copies heal transparently from the other
// nodes' copies; an issue is reported only when no good copy exists
// anywhere.
func (f *Fleet) Manifests() ([]Manifest, []ManifestIssue) { return f.manifests(true) }

// manifests is Manifests; without heal it writes nothing.
func (f *Fleet) manifests(heal bool) ([]Manifest, []ManifestIssue) {
	var out []Manifest
	var issues []ManifestIssue
	for _, k := range f.manifestFiles() {
		m, err := f.loadManifest(k.Job, k.Seq, heal)
		if err != nil {
			issues = append(issues, ManifestIssue{Job: k.Job, Seq: k.Seq, Err: err})
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Job != out[j].Job {
			return out[i].Job < out[j].Job
		}
		return out[i].Seq < out[j].Seq
	})
	return out, issues
}

// Jobs lists the jobs with at least one checkpoint, sorted as
// manifestFiles lists them.
func (f *Fleet) Jobs() []string {
	var out []string
	for _, k := range f.manifestFiles() {
		if len(out) == 0 || out[len(out)-1] != k.Job {
			out = append(out, k.Job)
		}
	}
	return out
}

// SkippedCheckpoint records one generation a restore walk had to pass
// over and why.
type SkippedCheckpoint struct {
	ID     string
	Seq    uint64
	Reason string
}

// DegradedRestore is the typed report of a restore that could not use the
// requested (or newest) generation. It is an error when no generation
// restored at all (Restored == ""); when attached to a successful restore
// it documents which newer generations were skipped.
type DegradedRestore struct {
	Requested string              // the ref the caller asked for
	Restored  string              // the manifest that actually restored; "" if none
	Skipped   []SkippedCheckpoint // newer generations that could not restore
}

func (d *DegradedRestore) Error() string {
	if d.Restored == "" {
		return fmt.Sprintf("store: %s: no restorable generation (%d candidates failed)", d.Requested, len(d.Skipped))
	}
	return fmt.Sprintf("store: %s degraded to %s (%d newer generations unrestorable)",
		d.Requested, d.Restored, len(d.Skipped))
}

// GetNewestRestorable walks ref's generation chain newest-first and
// returns the payload of the first generation whose chunks all read back
// verified (healing where the shards can) and that passes the caller's
// validate hook — e.g. "does this payload decode as a process image". The
// walk is lazy: a generation's manifest is loaded when its turn comes, and
// none older than the one that restores is looked at. The manifest validate
// is handed, and the one returned, know when each segment of the payload
// was there (Manifest.ReadyAt). The returned *DegradedRestore is nil when
// the newest generation restored cleanly; otherwise it lists every newer
// generation that was skipped and why. When nothing restores, the
// DegradedRestore itself is returned as the error, so callers always get a
// typed outcome instead of a silent wrong payload.
func (f *Fleet) GetNewestRestorable(clock *vtime.Clock, ref string, validate func(payload []byte, man Manifest) error) ([]byte, Manifest, *DegradedRestore, error) {
	job, ceiling, latest, err := parseRef(ref)
	if err != nil {
		return nil, Manifest{}, nil, err
	}
	// The chain: the job's sequence numbers at or below the one asked for,
	// decodable or not.
	seqs := f.jobSeqs(job)
	if !latest {
		seqs = seqs[:sort.Search(len(seqs), func(i int) bool { return seqs[i] > ceiling })]
	}
	if len(seqs) == 0 {
		return nil, Manifest{}, nil, fmt.Errorf("store: job %q has no checkpoints", job)
	}
	var tried []SkippedCheckpoint // newest first, as the walk goes
	for i := len(seqs) - 1; i >= 0; i-- {
		skip := func(reason string) {
			tried = append(tried, SkippedCheckpoint{ID: manifestID(job, seqs[i]), Seq: seqs[i], Reason: reason})
		}
		m, err := f.loadManifest(job, seqs[i], true)
		if err != nil {
			skip(err.Error())
			continue
		}
		payload, ready, err := f.readChunks(clock, m.ID(), m.Chunks, m.Segments, m.Size, true)
		if err != nil {
			skip(err.Error())
			continue
		}
		m.ready = ready
		if validate != nil {
			if err := validate(payload, m); err != nil {
				skip("validate: " + err.Error())
				continue
			}
		}
		if len(tried) == 0 {
			return payload, m, nil, nil
		}
		return payload, m, &DegradedRestore{Requested: ref, Restored: m.ID(), Skipped: tried}, nil
	}
	deg := &DegradedRestore{Requested: ref, Skipped: tried}
	return nil, Manifest{}, deg, deg
}

// GCStats reports what one garbage-collection pass removed.
type GCStats struct {
	ManifestsKept    int
	ManifestsDropped int
	ChunksKept       int
	ChunksDropped    int
	BytesReclaimed   int64 // stored bytes freed on the backing FS
}

// GC applies the retention policy — keep the last retain checkpoints of
// every job — then removes every chunk no kept manifest references,
// including orphans an interrupted Put left behind. Chunks are
// reference-counted by the sweep itself, so a chunk shared by a dropped
// and a kept checkpoint survives.
//
// GC refuses to run while any manifest is unreadable: a torn frame hides
// which chunks its checkpoint references, and sweeping "unused" chunks in
// that state would destroy data a repair could still heal. The removal
// order is crash-consistent on its own — manifests drop before the chunk
// sweep, so an interrupted GC leaves at worst unreferenced chunks, which
// the next GC reclaims, never a manifest missing chunks.
func (f *Fleet) GC(retain int) (GCStats, error) {
	if retain < 1 {
		return GCStats{}, fmt.Errorf("store: GC retention must be >= 1 (got %d)", retain)
	}
	f.mu.Lock()
	defer f.mu.Unlock()

	mans, issues := f.Manifests()
	if len(issues) > 0 {
		return GCStats{}, fmt.Errorf("store: gc: %d unreadable manifest(s), run Scrub first; first: %s: %v",
			len(issues), issues[0].ID(), issues[0].Err)
	}
	// Manifests() orders by job then seq, so the last `retain` entries of
	// each job group are the newest.
	perJob := map[string][]Manifest{}
	for _, m := range mans {
		perJob[m.Job] = append(perJob[m.Job], m)
	}

	var st GCStats
	referenced := map[string]bool{}
	for _, group := range perJob {
		cut := max(len(group)-retain, 0)
		for _, m := range group[cut:] {
			st.ManifestsKept++
			for _, c := range m.Chunks {
				referenced[c.Sum] = true
			}
		}
		for _, m := range group[:cut] {
			if err := f.manifestCopies(m.Job, m.Seq, func(n *fleetNode) error {
				return n.removeRetry(n.manifestPath(m.Job, m.Seq))
			}); err != nil {
				return st, fmt.Errorf("store: gc: %w", err)
			}
			st.ManifestsDropped++
		}
	}
	var err error
	st.ChunksKept, st.ChunksDropped, st.BytesReclaimed, err = f.sweepChunks(referenced)
	if err != nil {
		return st, fmt.Errorf("store: gc: %w", err)
	}
	return st, nil
}

// FsckReport is the result of a store verification pass.
type FsckReport struct {
	Manifests     int
	ChunksChecked int // chunk references verified (shared chunks count once)
	Errors        []string
}

// OK reports whether the store verified clean.
func (r FsckReport) OK() bool { return len(r.Errors) == 0 }

// Fsck verifies the whole store without writing to it: every manifest
// frame decodes somewhere (an undecodable frame is a finding for that
// manifest only, never an abort that masks the rest), every referenced
// chunk reads back from the records the nodes hold right now — any k of
// them — decompresses and hashes to its content address, and every
// manifest's chunk sizes add up to its payload. Unlike Get, Fsck repairs
// nothing on the way; Scrub is the repairing counterpart. Read and
// decompression time is charged to clock. Fsck returns an error only for
// infrastructure failures; integrity findings land in the report.
func (f *Fleet) Fsck(clock *vtime.Clock) (FsckReport, error) {
	var rep FsckReport
	mans, issues := f.manifests(false)
	for _, iss := range issues {
		rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", iss.ID(), iss.Err))
	}
	verified := map[string]bool{}
	for _, m := range mans {
		rep.Manifests++
		if _, _, err := f.readChunks(clock, m.ID(), m.Chunks, nil, m.Size, false); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", m.ID(), err))
			continue
		}
		for _, c := range m.Chunks {
			if !verified[c.Sum] {
				verified[c.Sum] = true
				rep.ChunksChecked++
			}
		}
	}
	return rep, nil
}
