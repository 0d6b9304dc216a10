package cpr

import (
	"encoding/binary"
	"fmt"
	"strings"

	"checl/internal/proc"
	"checl/internal/store"
	"checl/internal/vtime"
)

// StoreBackend is Backend: every backend checkpoints into and restarts from
// a store. The name stays for callers that spell out that they use the
// store methods.
type StoreBackend = Backend

// checkpointable reports the eligibility every dump of b enforces, to a
// file or a store: BLCR refuses a device-mapped process, DMTCP a device
// mapping anywhere in the process tree.
func checkpointable(b Backend, p *proc.Process) error {
	backend, tree := b.Name(), b.Name() == "dmtcp"
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
func checkpointToStore(b Backend, p *proc.Process, st store.Backend, job string, clean map[string]bool) (Stats, *store.PutStats, error) {
	segs, size, err := StoreImage(b, p, clean)
	if err != nil {
		return Stats{}, nil, err
	}
	_, put, err := st.PutSegmented(p.Clock(), job, nil, segs)
	if err != nil {
		return Stats{}, nil, fmt.Errorf("%s: checkpoint to store: %w", b.Name(), err)
	}
	return Stats{Bytes: size, Time: put.Time}, &put, nil
}

// The segments of a store image: the head, then regionSegment+<name> per
// region.
const (
	headSegment   = "_head"
	regionSegment = "region/"
)

// storeSegments derives the store segments of an image's store encoding
// (storeImageVersion, its header stamped with the instant at), each
// carrying its bytes by reference (store.Segment.Data), and the encoding's
// length: a "_head" segment covering the frame header, process name, app
// state and region count (never claimed clean), then one "region/<name>"
// segment per region in the encoder's sorted order. Regions whose names map
// to true in clean are claimed Clean, and the store checks each claim
// against the region's bytes before it reuses the parent generation's chunk
// refs for it; a nil map claims none.
func storeSegments(img Image, clean map[string]bool, at vtime.Time) ([]store.Segment, int64) {
	lay := layoutImage(img, storeImageVersion)
	binary.BigEndian.PutUint64(lay.head[len(imageMagic)+2:], uint64(at))
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

// StoreImage checks that backend b may checkpoint p and derives the store
// segments of p's image over views of its regions, without writing
// anything to a store: what CheckpointToStoreIncremental hands the store,
// for a caller that runs the PutSegmented (with a nil payload) on a clock
// of its own. The views are valid until p next runs. Also returns the
// image's encoded length.
//
// The image is stamped with the instant of the dump, so that a head is
// never one an older generation wrote — unless every region is claimed
// clean: then the image claims to be the one p last dumped or was restored
// from, and it keeps that image's stamp, so that an unchanged image
// deduplicates whole, head included. The stamp is recorded on p
// (proc.Process.ImageStamp).
func StoreImage(b Backend, p *proc.Process, clean map[string]bool) ([]store.Segment, int64, error) {
	if err := checkpointable(b, p); err != nil {
		return nil, 0, err
	}
	regions := p.RegionViews()
	at := p.Clock().Now()
	if last := p.ImageStamp(); last != 0 && claimsAll(regions, clean) {
		at = last
	}
	p.SetImageStamp(at)
	segs, size := storeSegments(Image{ProcessName: p.Name, Regions: regions}, clean, at)
	return segs, size, nil
}

// claimsAll reports whether clean claims every one of regions.
func claimsAll(regions map[string][]byte, clean map[string]bool) bool {
	for name := range regions {
		if !clean[name] {
			return false
		}
	}
	return clean != nil
}

// CheckpointToStoreIncremental implements Backend.
func (b BLCR) CheckpointToStoreIncremental(p *proc.Process, st store.Backend, job string, clean map[string]bool) (Stats, *store.PutStats, error) {
	return checkpointToStore(b, p, st, job, clean)
}

// CheckpointToStoreIncremental implements Backend.
func (d DMTCP) CheckpointToStoreIncremental(p *proc.Process, st store.Backend, job string, clean map[string]bool) (Stats, *store.PutStats, error) {
	return checkpointToStore(d, p, st, job, clean)
}

// restartFromStore is the shared store restart path: walk the generation
// chain newest-first, taking the first checkpoint that both assembles
// bit-identical (healed from surviving shards where possible) and decodes as
// a store image. The store hands the payload over for good, the image is
// decoded as ranges of it, and the restored process adopts those: from the
// store's buffer to the process's memory the image is never copied.
//
// The read runs on a timeline of its own, a fork of the node's clock, and
// Stats.Time is its whole span. The node does not wait it out: the process
// comes up at the instant its image's head was there, each region knowing
// when it arrives (proc.Process.AwaitRegion), and whoever goes on to use
// the process waits for what it reads and no more.
func restartFromStore(n *proc.Node, st store.Backend, ref string) (*proc.Process, Stats, *store.DegradedRestore, error) {
	read := n.Clock.Fork()
	sw := vtime.NewStopwatch(read)
	var img Image
	var stamp vtime.Time
	validate := func(data []byte, _ store.Manifest) error {
		i, err := decodeImage(data, storeImageVersion)
		if err != nil {
			return err
		}
		img, stamp = i, vtime.Time(binary.BigEndian.Uint64(data[len(imageMagic)+2:]))
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
	p.SetImageStamp(stamp)
	return p, Stats{Bytes: int64(len(data)), Time: sw.Elapsed()}, deg, nil
}

// RestartFromStore implements Backend.
func (BLCR) RestartFromStore(n *proc.Node, st store.Backend, ref string) (*proc.Process, Stats, *store.DegradedRestore, error) {
	return restartFromStore(n, st, ref)
}

// RestartFromStore implements Backend.
func (DMTCP) RestartFromStore(n *proc.Node, st store.Backend, ref string) (*proc.Process, Stats, *store.DegradedRestore, error) {
	return restartFromStore(n, st, ref)
}
