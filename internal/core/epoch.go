package core

import (
	"fmt"
	"sort"

	"checl/internal/vtime"
)

// EpochState is the phase of the speculative checkpoint epoch state
// machine: Idle → Speculating → Idle. BeginCheckpointEpoch opens an epoch
// (Idle → Speculating); the checkpoint commit inside runCheckpoint, which
// validates and re-copies before it returns, and abortEpoch close it
// (Speculating → Idle).
type EpochState int

// Epoch states.
const (
	EpochIdle EpochState = iota
	EpochSpeculating
)

// String names the state for diagnostics.
func (s EpochState) String() string {
	switch s {
	case EpochIdle:
		return "Idle"
	case EpochSpeculating:
		return "Speculating"
	default:
		return fmt.Sprintf("EpochState(%d)", int(s))
	}
}

// specEntry is one buffer's in-flight speculative copy.
type specEntry struct {
	m        *memRec
	data     []byte // bytes captured by the overlapped drain
	violated bool   // a write-set touched the buffer after the copy began
}

// specEpoch is one speculative checkpoint epoch (§III-C overlapped with
// continued execution): the set of buffers being copied while the
// application keeps enqueuing, plus the modelled completion horizon of
// those copies.
type specEpoch struct {
	id      uint64
	began   vtime.Time     // application clock at epoch begin
	copyEnd vtime.Time     // modelled completion of the overlapped drain
	submit  vtime.Duration // app-visible cost of launching the epoch
	entries map[Handle]*specEntry
}

// EpochState reports the state of the speculative checkpoint epoch.
func (c *CheCL) EpochState() EpochState {
	if c.epoch == nil {
		return EpochIdle
	}
	return EpochSpeculating
}

// Stall exposes the cumulative checkpoint-induced stall accounting:
// labelled virtual time the application spent parked on checkpoint work
// (sync, drain, write, postprocess) rather than its own progress. Under an
// epoch most of the drain stall moves into the hidden overlap and only the
// residue appears here.
func (c *CheCL) Stall() *vtime.StallTracker { return &c.stall }

// BeginCheckpointEpoch opens a speculative checkpoint epoch: the current
// dirty set starts draining to the host *without* quiescing the command
// queues, and the application keeps running. Kernel launches during the
// epoch intersect their clc write-set with the in-flight speculation set;
// touched buffers are re-copied at commit. The epoch commits inside the
// next Checkpoint/CheckpointToStore call; a checkpoint with no epoch open
// is the empty-window case and stop-drains. No-op when an epoch is already
// open.
func (c *CheCL) BeginCheckpointEpoch() error {
	if c.epoch != nil {
		return nil
	}
	clock := c.app.Clock()
	sw := vtime.NewStopwatch(clock)

	// The speculative copy is a consistent cut of the device state at
	// epoch begin: queued commands must land first, so everything
	// enqueued *before* this point is captured and everything after is
	// caught by validation.
	if err := c.Drain(); err != nil {
		return fmt.Errorf("checl: epoch begin: %w", err)
	}

	ep := &specEpoch{
		id:      c.epochSeq + 1,
		began:   clock.Now(),
		entries: map[Handle]*specEntry{},
	}

	// Candidate set: exactly the buffers the commit would have to drain.
	// CL_MEM_USE_HOST_PTR buffers are excluded — the application writes
	// through the aliased host region without any API call CheCL could
	// validate against. Clean incremental buffers keep their previous
	// staged copy; queue-less contexts are zero-filled at commit.
	var candidates []*memRec
	for _, m := range c.db.orderedMems() {
		if m.Released || m.UseHostPtr {
			continue
		}
		if c.opts.Incremental && !m.Dirty && m.Data != nil {
			continue
		}
		if c.anyQueueFor(m.Ctx) == nil {
			continue
		}
		candidates = append(candidates, m)
	}

	ep.copyEnd = ep.began
	if err := c.drain(candidates, ep); err != nil {
		return fmt.Errorf("checl: epoch begin: %w", err)
	}
	c.epochSeq++
	ep.submit = sw.Elapsed()
	c.epoch = ep
	c.stall.Add("spec-begin", ep.submit)
	return nil
}

// epochTouch marks a buffer's in-flight speculative copy violated: a
// command that (per its clc write-set, or conservatively) may write the
// buffer ran after the copy began. Called from every site that sets
// m.Dirty. Cheap no-op outside an epoch.
func (c *CheCL) epochTouch(m *memRec) {
	ep := c.epoch
	if ep == nil {
		return
	}
	if ent, ok := ep.entries[m.H]; ok {
		ent.violated = true
	}
}

// epochDrop removes a buffer from the speculation set (release during the
// epoch): its copy will never be committed.
func (c *CheCL) epochDrop(h Handle) {
	if c.epoch != nil {
		delete(c.epoch.entries, h)
	}
}

// abortEpoch deterministically tears down an in-flight epoch: the
// speculative copies are dropped and the next checkpoint falls back to
// the ordinary stop-drain. Buffers keep their Dirty flags, so no state is
// lost — only the overlap. The reason surfaces as EpochAborted on the
// next checkpoint's stats.
func (c *CheCL) abortEpoch(why string) {
	if c.epoch == nil {
		return
	}
	c.epoch = nil
	c.epochAborted = why
}

// commitEpoch closes the epoch inside a checkpoint: it charges the
// non-hidden remainder of the overlapped drain, validates the speculation
// set, re-copies violated buffers once, and returns the adopted entries
// keyed by handle. The caller (runCheckpoint) runs after the phase-1
// quiesce, so re-copies read settled device state. Returns nil outside an
// epoch.
func (c *CheCL) commitEpoch(stats *CheckpointStats) (map[Handle]*specEntry, error) {
	ep := c.epoch
	if ep == nil {
		return nil, nil
	}
	c.epoch = nil
	clock := c.app.Clock()
	sw := vtime.NewStopwatch(clock)
	stats.Speculative = true
	stats.StallTime = ep.submit

	// Barrier on the overlapped drain: if the application ran past the
	// copies' completion horizon the whole drain was hidden and nothing is
	// charged.
	stats.Overlap += c.barrier("spec-wait", ep.began, ep.copyEnd.Sub(ep.began))

	// Validation: deterministic (Seq) order, stale entries flagged by the
	// launch-path write-set hooks.
	entries := make([]*specEntry, 0, len(ep.entries))
	for _, ent := range ep.entries {
		entries = append(entries, ent)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].m.Seq < entries[j].m.Seq })
	var violated []*specEntry
	for _, ent := range entries {
		stats.SpeculatedBuffers++
		stats.SpeculatedBytes += ent.m.Size
		if ent.violated {
			violated = append(violated, ent)
		}
	}
	stats.ViolatedBuffers = len(violated)

	// Commit: re-copy the violated residue in one pass. commitEpoch runs
	// inside runCheckpoint after phase 1 has quiesced every queue, on the
	// application's own call, so no API call can touch a buffer between
	// the validation above and this pass: it is final.
	if len(violated) > 0 {
		if err := c.specRecopy(violated); err != nil {
			return nil, err
		}
		for _, ent := range violated {
			stats.RecopiedBytes += ent.m.Size
			ent.data = ent.m.Data
		}
	}
	c.stall.Add("spec-commit", sw.Elapsed())
	return ep.entries, nil
}

// specRecopy re-drains violated buffers through the stop-drain (the queues
// are already quiesced — this is a short stop-drain).
func (c *CheCL) specRecopy(ents []*specEntry) error {
	mems := make([]*memRec, 0, len(ents))
	for _, ent := range ents {
		if c.anyQueueFor(ent.m.Ctx) == nil {
			// The last queue of the context went away mid-epoch: stage
			// zeros, exactly as the stop-drain partition would.
			ent.m.Data = make([]byte, ent.m.Size)
			continue
		}
		mems = append(mems, ent.m)
	}
	return c.drain(mems, nil)
}
