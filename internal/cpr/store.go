package cpr

import (
	"fmt"
	"sort"

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

// checkpointToStore is the shared store write path: encode the image
// deterministically and hand it to the store, which chunks,
// deduplicates, compresses and journals it. A non-nil clean map selects
// the segmented encoding: each region becomes its own store segment so
// unchanged regions reuse the parent generation's chunk refs.
func checkpointToStore(backend string, p *proc.Process, st store.Backend, job string, tree bool, clean map[string]bool) (Stats, *store.PutStats, error) {
	if err := checkpointable(backend, p, tree); err != nil {
		return Stats{}, nil, err
	}
	img := Image{ProcessName: p.Name, Regions: p.SnapshotRegions()}
	data, err := encodeImage(img)
	if err != nil {
		return Stats{}, nil, err
	}
	var put store.PutStats
	if clean == nil {
		_, put, err = st.Put(p.Clock(), job, data)
	} else {
		var segs []store.Segment
		if segs, err = imageSegments(img, int64(len(data)), clean); err != nil {
			return Stats{}, nil, err
		}
		_, put, err = st.PutSegmented(p.Clock(), job, data, segs)
	}
	if err != nil {
		return Stats{}, nil, fmt.Errorf("%s: checkpoint to store: %w", backend, err)
	}
	return Stats{Bytes: int64(len(data)), Time: put.Time}, &put, nil
}

// imageSegments derives the store segment map of an image's deterministic
// encoding: a "_head" segment covering the frame header, process name,
// app state and region count (always dirty — the header checksum changes
// whenever anything does), then one "region/<name>" segment per region in
// the encoder's sorted order. Regions whose names map to true in clean
// are marked Clean. total is the full encoded length, used to verify the
// derived offsets stay in lockstep with encodeImage.
func imageSegments(img Image, total int64, clean map[string]bool) ([]store.Segment, error) {
	names := make([]string, 0, len(img.Regions))
	for name := range img.Regions {
		names = append(names, name)
	}
	sort.Strings(names)

	off := imageHeaderLen +
		frameLen(len(img.ProcessName)) + frameLen(len(img.AppState)) +
		uvarintLen(uint64(len(names)))
	segs := []store.Segment{{Name: "_head", Off: 0, Len: off}}
	for _, name := range names {
		n := frameLen(len(name)) + frameLen(len(img.Regions[name]))
		segs = append(segs, store.Segment{Name: "region/" + name, Off: off, Len: n, Clean: clean[name]})
		off += n
	}
	if off != total {
		return nil, fmt.Errorf("cpr: segment map out of sync with encoding (%d vs %d bytes)", off, total)
	}
	return segs, nil
}

// SnapshotStoreImage encodes p's memory image and derives its store
// segment map without writing anything to a store: the overlapped
// checkpoint path snapshots the process synchronously, releases the
// application, and hands the encoded bytes to a background PutSegmented.
// A nil clean map yields a nil segment map (legacy unsegmented write).
func SnapshotStoreImage(b Backend, p *proc.Process, clean map[string]bool) ([]byte, []store.Segment, error) {
	tree := b.Name() == "dmtcp"
	if err := checkpointable(b.Name(), p, tree); err != nil {
		return nil, nil, err
	}
	img := Image{ProcessName: p.Name, Regions: p.SnapshotRegions()}
	data, err := encodeImage(img)
	if err != nil {
		return nil, nil, err
	}
	if clean == nil {
		return data, nil, nil
	}
	segs, err := imageSegments(img, int64(len(data)), clean)
	if err != nil {
		return nil, nil, err
	}
	return data, segs, nil
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
// bit-identical (healed from replicas where possible) and decodes as a
// process image.
func restartFromStore(n *proc.Node, st store.Backend, ref string) (*proc.Process, Stats, *store.DegradedRestore, error) {
	sw := vtime.NewStopwatch(n.Clock)
	var img Image
	validate := func(data []byte, _ store.Manifest) error {
		i, err := decodeImage(data)
		if err != nil {
			return err
		}
		img = i
		return nil
	}
	data, _, deg, err := st.GetNewestRestorable(n.Clock, ref, validate)
	if err != nil {
		return nil, Stats{}, deg, err
	}
	p := n.Spawn(img.ProcessName)
	p.RestoreRegions(img.Regions)
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
// restarting it (tooling, MPI global-snapshot aggregation).
func ReadImageFromStore(clock *vtime.Clock, st store.Backend, ref string) (Image, error) {
	data, _, err := st.Get(clock, ref)
	if err != nil {
		return Image{}, err
	}
	return decodeImage(data)
}
