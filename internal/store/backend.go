package store

// Backend is the checkpoint-store surface core, cpr and mpi program
// against: everything a checkpoint writer and a restore walk need. All of
// it is the engine's (engine.go), so the single-filesystem *Store and the
// erasure-coded *Fleet satisfy it with the same code. Repair stays on the
// concrete types — Recover, Scrub, Rebuild and replication are what a
// placement is.

import "checl/internal/vtime"

// Backend is implemented by *Store and *Fleet.
type Backend interface {
	// Name identifies the backend in checkpoint records and tooling
	// (a Store reports its backing filesystem's name).
	Name() string
	Put(clock *vtime.Clock, job string, payload []byte) (Manifest, PutStats, error)
	PutSegmented(clock *vtime.Clock, job string, payload []byte, segs []Segment) (Manifest, PutStats, error)
	Get(clock *vtime.Clock, ref string) ([]byte, Manifest, error)
	GetSegment(clock *vtime.Clock, ref, name string) ([]byte, Manifest, error)
	GetNewestRestorable(clock *vtime.Clock, ref string, validate func(payload []byte, man Manifest) error) ([]byte, Manifest, *DegradedRestore, error)
	Resolve(ref string) (Manifest, error)
	Latest(job string) (Manifest, bool, error)
	Generations(ref string) ([]Manifest, []SkippedCheckpoint, error)
	Jobs() []string
	TotalStoredBytes() int64
}

var (
	_ Backend = (*Store)(nil)
	_ Backend = (*Fleet)(nil)
)
