package mpi

import (
	"fmt"
	"strings"

	"checl/internal/core"
	"checl/internal/store"
	"checl/internal/vtime"
)

// Partial restart: revive ONE failed rank from its own segment of the
// last committed coordinated checkpoint while the survivors keep running.
//
// Invariants (see DESIGN.md §12 for the full matrix):
//   - Survivors never roll back: their processes, clocks, and inboxes are
//     untouched by a RestoreRank.
//   - The restored rank resumes from the commit cut: its sequence
//     counters and barrier arrival counter are reset to the commit
//     snapshot, every retained log entry addressed to it is re-queued in
//     original send order, and its re-executed sends at or below the
//     death high-water mark are suppressed as duplicates.
//   - Anything outside the single-failure envelope — two ranks down in
//     the same epoch, no committed store-backed generation, a ref naming
//     any other generation (its logs are gone), logging disabled — is a
//     typed *PartialRestoreUnsupported that latches the world failed, so
//     the caller falls back to RestoreGlobalFromStore.

// PartialRestore reports what one successful rank-level restore did.
type PartialRestore struct {
	Rank             int
	Manifest         string // committed generation restored from
	Generation       int    // committed generation count at restore
	SegmentBytes     int64  // bytes fetched for this rank (not the whole snapshot)
	ReplayedMessages int
	ReplayedBytes    int64
	Restart          core.RestartStats
	// RecoveryVtime is the virtual time the restore took on the failed
	// rank's node: segment fetch + image restart + object rebind + replay
	// injection. Survivor stall is accounted separately (RecoveryStats).
	RecoveryVtime vtime.Duration
}

// RecoveryStats aggregates the world's failure/recovery accounting.
type RecoveryStats struct {
	Kills              int
	PartialRestores    int
	SuppressedSends    int // duplicate re-sends dropped after restores
	ReplayedMessages   int
	ReplayedBytes      int64
	SurvivorStallVtime vtime.Duration // barrier time survivors spent parked on recoveries
	SurvivorStalls     int
}

// RecoveryStats reports the accumulated failure/recovery accounting.
func (w *World) RecoveryStats() RecoveryStats {
	w.mu.Lock()
	rec := w.rec
	w.mu.Unlock()
	return RecoveryStats{
		Kills:              rec.kills,
		PartialRestores:    rec.partials,
		SuppressedSends:    rec.suppressed,
		ReplayedMessages:   rec.replayedMsgs,
		ReplayedBytes:      rec.replayedBytes,
		SurvivorStallVtime: w.stall.Total(),
		SurvivorStalls:     w.stall.Events(),
	}
}

// unsupportedLocked latches the typed degraded path: partial restore is
// off the table, the whole world fails, and the caller must fall back to
// a full RestoreGlobalFromStore.
func (w *World) unsupportedLocked(rank int, reason string) error {
	err := &PartialRestoreUnsupported{Rank: rank, Reason: reason}
	w.failLocked(err)
	w.broadcastLocked()
	return err
}

// RestoreRank restores the single failed rank from its per-rank segment
// of the world's last committed coordinated checkpoint in st, replays its
// logged inbound messages, and rejoins it to the world. ref must name the
// committed generation (manifest ID or its bare job name); survivors keep
// running throughout and complete any barrier or collective they were
// parked in once the restored rank catches back up.
//
// On success the restored CheCL instance and a *PartialRestore report are
// returned; the caller typically re-enters its rank body (see
// RunWithRecovery). When partial restore cannot proceed the returned
// error is (or wraps) *PartialRestoreUnsupported and the world is failed:
// kill the remaining rank processes and use RestoreGlobalFromStore.
func (w *World) RestoreRank(st store.Backend, ref string, rank int, opts core.Options) (*core.CheCL, *PartialRestore, error) {
	if rank < 0 || rank >= len(w.ranks) {
		return nil, nil, fmt.Errorf("mpi: restore of invalid rank %d", rank)
	}
	w.mu.Lock()
	if err := w.failed; err != nil {
		w.mu.Unlock()
		return nil, nil, err
	}
	if !w.opts.LogMessages {
		err := w.unsupportedLocked(rank, "message logging disabled")
		w.mu.Unlock()
		return nil, nil, err
	}
	if w.states[rank] != rankDown {
		w.mu.Unlock()
		return nil, nil, fmt.Errorf("mpi: rank %d is not down", rank)
	}
	if w.down > 1 {
		var downs []string
		for i, s := range w.states {
			if s != rankAlive {
				downs = append(downs, fmt.Sprint(i))
			}
		}
		err := w.unsupportedLocked(rank, fmt.Sprintf("ranks %s down in the same epoch", strings.Join(downs, ",")))
		w.mu.Unlock()
		return nil, nil, err
	}
	committed := w.commit.manifest
	if committed == "" {
		err := w.unsupportedLocked(rank, "no committed store-backed generation")
		w.mu.Unlock()
		return nil, nil, err
	}
	// ref must resolve to the committed generation, and is checked against
	// the world's record rather than the store's Latest: sender logs are
	// truncated at every commit (any other generation's in-flight traffic
	// is gone), and an interrupted checkpoint may have Put a newer,
	// never-committed manifest that no log covers.
	job, _, _ := strings.Cut(committed, "@")
	if ref != committed && ref != job {
		err := w.unsupportedLocked(rank, fmt.Sprintf("ref %q does not name the committed generation %s (its message logs were truncated)", ref, committed))
		w.mu.Unlock()
		return nil, nil, err
	}
	w.states[rank] = rankRestoring
	r := w.ranks[rank]
	w.mu.Unlock()

	sw := vtime.NewStopwatch(r.node.Clock)
	// The segment is a buffer of this call's own; the restored rank adopts it.
	seg, _, err := st.GetSegment(r.node.Clock, committed, rankSegment(rank))
	var c *core.CheCL
	var rst core.RestartStats
	if err == nil {
		c, rst, err = core.RestoreImage(r.node, seg, opts)
	}
	if err != nil {
		err = fmt.Errorf("mpi: restoring rank %d from %s: %w", rank, committed, err)
		w.mu.Lock()
		w.states[rank] = rankDown
		w.failLocked(err)
		w.broadcastLocked()
		w.mu.Unlock()
		return nil, nil, err
	}

	w.mu.Lock()
	if ferr := w.failed; ferr != nil {
		// Another rank died (or the world failed) while this restore ran.
		w.states[rank] = rankDown
		w.broadcastLocked()
		w.mu.Unlock()
		c.Detach()
		c.App().Kill()
		return nil, nil, ferr
	}
	r.proc = c.App()
	r.incarnation++
	w.watchRank(r)
	// Resume from the commit cut: sequence counters and barrier arrivals
	// back to the committed snapshot; the death high-water mark (set in
	// rankExited) suppresses the re-execution's duplicate sends.
	copy(w.sendSeq[rank], w.commit.seq[rank])
	w.arrivals[rank] = w.commit.barGen
	msgs, replayBytes := w.replaySetLocked(rank)
	r.queue = msgs
	w.states[rank] = rankAlive
	w.down--
	// The next barrier generation to complete absorbs this recovery's
	// clock inflation; survivors' advance there is accounted as stall.
	w.stallGen = w.barDone
	w.stallRank = rank
	w.rec.partials++
	w.rec.replayedMsgs += len(msgs)
	w.rec.replayedBytes += replayBytes
	gen := w.gen
	w.broadcastLocked()
	w.mu.Unlock()

	pr := &PartialRestore{
		Rank:             rank,
		Manifest:         committed,
		Generation:       gen,
		SegmentBytes:     int64(len(seg)),
		ReplayedMessages: len(msgs),
		ReplayedBytes:    replayBytes,
		Restart:          rst,
		RecoveryVtime:    sw.Elapsed(),
	}
	return c, pr, nil
}
