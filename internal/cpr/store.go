package cpr

import (
	"fmt"
	"strings"

	"checl/internal/proc"
	"checl/internal/store"
	"checl/internal/vtime"
)

// StoreBackend is a Backend that can also checkpoint into and restart
// from a content-addressed checkpoint store. Both simulated backends
// implement it; the flat-file Backend methods remain for the baseline
// (non-deduplicated) path the ablations compare against.
type StoreBackend interface {
	Backend
	// CheckpointToStore dumps p's memory image into st under job,
	// deduplicating against the job's earlier checkpoints (and any other
	// job's chunks). The same eligibility rules as Checkpoint apply.
	CheckpointToStore(p *proc.Process, st store.Backend, job string) (Stats, *store.PutStats, error)
	// CheckpointToStoreIncremental is CheckpointToStore with clean-region
	// hints: regions whose names map to true in clean are asserted
	// byte-identical to the job's previous checkpoint, and the store
	// reuses that generation's chunk refs for them instead of re-chunking
	// (store.PutSegmented). A nil map selects the legacy unsegmented
	// encoding, byte-identical to CheckpointToStore.
	CheckpointToStoreIncremental(p *proc.Process, st store.Backend, job string, clean map[string]bool) (Stats, *store.PutStats, error)
	// RestartFromStore re-creates a process on node n from a store
	// checkpoint. ref is a manifest ID ("job@seq") or a bare job name
	// (its latest checkpoint). When the newest generation cannot be
	// restored — corrupt past healing, or not a decodable image — the
	// restart walks the generation chain to the newest one that can, and
	// the returned *store.DegradedRestore reports what was skipped; it is
	// nil for a clean restore of the newest generation. When no
	// generation restores at all the DegradedRestore is also the error.
	RestartFromStore(n *proc.Node, st store.Backend, ref string) (*proc.Process, Stats, *store.DegradedRestore, error)
}

// checkpointable reports the same eligibility the flat-file Checkpoint
// paths enforce: backend "blcr" refuses a device-mapped process,
// "dmtcp" refuses a device mapping anywhere in the process tree.
func checkpointable(backend string, p *proc.Process, tree bool) error {
	if !p.Alive() {
		return fmt.Errorf("%s: process %d (%s) is not running", backend, p.PID, p.Name)
	}
	var check func(q *proc.Process) error
	check = func(q *proc.Process) error {
		if q.DeviceMapped() {
			return &DeviceMappedError{Backend: backend, PID: q.PID, Name: q.Name}
		}
		if tree {
			for _, c := range q.Children() {
				if err := check(c); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return check(p)
}

// checkpointToStore is the shared store write path: lay the image out
// deterministically over views of the stopped process's regions and lend
// those to the store, which chunks, deduplicates, compresses and journals
// them. The image is never built: the views are valid until p next runs,
// and the Put is over before that.
func checkpointToStore(backend string, p *proc.Process, st store.Backend, job string, tree bool, clean map[string]bool) (Stats, *store.PutStats, error) {
	if err := checkpointable(backend, p, tree); err != nil {
		return Stats{}, nil, err
	}
	segs, size := storeSegments(Image{ProcessName: p.Name, Regions: p.RegionViews()}, clean)
	_, put, err := st.PutSegmented(p.Clock(), job, nil, segs)
	if err != nil {
		return Stats{}, nil, fmt.Errorf("%s: checkpoint to store: %w", backend, err)
	}
	return Stats{Bytes: size, Time: put.Time}, &put, nil
}

// The segments of a segmented image: the head, then regionSegment+<name>
// per region.
const (
	headSegment   = "_head"
	regionSegment = "region/"
)

// storeSegments derives the store segments of an image's deterministic
// encoding, each carrying its bytes by reference (store.Segment.Data), and
// the encoding's length. A non-nil clean map selects the segmented form: a
// "_head" segment covering the frame header, process name, app state and
// region count (always dirty — the header checksum changes whenever
// anything does), then one "region/<name>" segment per region in the
// encoder's sorted order, so unchanged regions reuse the parent
// generation's chunk refs. Regions whose names map to true in clean are
// marked Clean. A nil map selects the legacy unsegmented form: the same
// bytes as one anonymous segment.
func storeSegments(img Image, clean map[string]bool) ([]store.Segment, int64) {
	lay := layoutImage(img)
	if clean == nil {
		whole := store.Segment{Len: lay.size, Data: [][]byte{lay.head}}
		for _, r := range lay.regions {
			whole.Data = append(whole.Data, r.prefix, r.data)
		}
		return []store.Segment{whole}, lay.size
	}
	off := int64(len(lay.head))
	segs := []store.Segment{{Name: headSegment, Len: off, Data: [][]byte{lay.head}}}
	for _, r := range lay.regions {
		n := int64(len(r.prefix) + len(r.data))
		segs = append(segs, store.Segment{
			Name: regionSegment + r.name, Off: off, Len: n, Clean: clean[r.name],
			Data: [][]byte{r.prefix, r.data},
		})
		off += n
	}
	return segs, lay.size
}

// SnapshotStoreImage copies p's memory image and derives its store
// segments over the copy without writing anything to a store: the
// overlapped checkpoint path snapshots the process synchronously, releases
// the application, and hands the segments to a background PutSegmented
// (with a nil payload). This copy is the only one the path makes. Also
// returns the image's encoded length.
func SnapshotStoreImage(b Backend, p *proc.Process, clean map[string]bool) ([]store.Segment, int64, error) {
	tree := b.Name() == "dmtcp"
	if err := checkpointable(b.Name(), p, tree); err != nil {
		return nil, 0, err
	}
	segs, size := storeSegments(Image{ProcessName: p.Name, Regions: p.SnapshotRegions()}, clean)
	return segs, size, nil
}

// CheckpointToStore implements StoreBackend.
func (BLCR) CheckpointToStore(p *proc.Process, st store.Backend, job string) (Stats, *store.PutStats, error) {
	return checkpointToStore("blcr", p, st, job, false, nil)
}

// CheckpointToStore implements StoreBackend.
func (DMTCP) CheckpointToStore(p *proc.Process, st store.Backend, job string) (Stats, *store.PutStats, error) {
	return checkpointToStore("dmtcp", p, st, job, true, nil)
}

// CheckpointToStoreIncremental implements StoreBackend.
func (BLCR) CheckpointToStoreIncremental(p *proc.Process, st store.Backend, job string, clean map[string]bool) (Stats, *store.PutStats, error) {
	return checkpointToStore("blcr", p, st, job, false, clean)
}

// CheckpointToStoreIncremental implements StoreBackend.
func (DMTCP) CheckpointToStoreIncremental(p *proc.Process, st store.Backend, job string, clean map[string]bool) (Stats, *store.PutStats, error) {
	return checkpointToStore("dmtcp", p, st, job, true, clean)
}

// restartFromStore is the shared store restart path: walk the generation
// chain newest-first, taking the first checkpoint that both assembles
// bit-identical (healed from surviving shards where possible) and decodes as a
// process image. The store hands the payload over for good, the image is
// decoded as ranges of it, and the restored process adopts those: from the
// store's buffer to the process's memory the image is never copied.
//
// The read runs on a timeline of its own, a fork of the node's clock, and
// Stats.Time is its whole span. The node does not wait it out: the process
// comes up at the instant its image's head was there, each region knowing
// when it arrives (proc.Process.AwaitRegion), and whoever goes on to use
// the process waits for what it reads and no more. An image stored as one
// piece arrives as one piece, at the read's end.
func restartFromStore(n *proc.Node, st store.Backend, ref string) (*proc.Process, Stats, *store.DegradedRestore, error) {
	read := n.Clock.Fork()
	sw := vtime.NewStopwatch(read)
	var img Image
	validate := func(data []byte, _ store.Manifest) error {
		i, err := decodeImage(data)
		if err != nil {
			return err
		}
		img = i
		return nil
	}
	data, man, deg, err := st.GetNewestRestorable(read, ref, validate)
	if err != nil {
		n.Clock.AdvanceTo(read.Now()) // a failed restart has nothing to overlap with
		return nil, Stats{}, deg, err
	}
	head := read.Now()
	arrived := map[string]vtime.Time{}
	for i, at := range man.ReadyAt() {
		seg := man.Segments[i].Name
		if region, ok := strings.CutPrefix(seg, regionSegment); ok {
			arrived[region] = at
		} else if seg == headSegment {
			head = at
		}
	}
	n.Clock.AdvanceTo(head)
	p := n.Spawn(img.ProcessName)
	p.RestoreRegions(img.Regions, arrived)
	return p, Stats{Bytes: int64(len(data)), Time: sw.Elapsed()}, deg, nil
}

// RestartFromStore implements StoreBackend.
func (BLCR) RestartFromStore(n *proc.Node, st store.Backend, ref string) (*proc.Process, Stats, *store.DegradedRestore, error) {
	return restartFromStore(n, st, ref)
}

// RestartFromStore implements StoreBackend.
func (DMTCP) RestartFromStore(n *proc.Node, st store.Backend, ref string) (*proc.Process, Stats, *store.DegradedRestore, error) {
	return restartFromStore(n, st, ref)
}

// ReadImageFromStore loads and decodes a store checkpoint without
// restarting it (tooling, MPI global-snapshot aggregation). The image's
// fields are ranges of the payload the store assembled for this call; the
// store keeps no reference to it, so the caller owns it through them.
func ReadImageFromStore(clock *vtime.Clock, st store.Backend, ref string) (Image, error) {
	data, _, err := st.Get(clock, ref)
	if err != nil {
		return Image{}, err
	}
	return decodeImage(data)
}
