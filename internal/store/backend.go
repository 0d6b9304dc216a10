package store

// Backend is the checkpoint-store surface core, cpr and mpi program
// against: everything a checkpoint writer and a restore walk need. *Fleet
// is the one store; the interface is what lets a caller put a decorator in
// front of it.

import "checl/internal/vtime"

// Backend is implemented by *Fleet.
type Backend interface {
	// Name identifies the backend in checkpoint records and tooling
	// (a store opened on one filesystem reports that filesystem's name).
	Name() string
	Put(clock *vtime.Clock, job string, payload []byte) (Manifest, PutStats, error)
	PutSegmented(clock *vtime.Clock, job string, payload []byte, segs []Segment) (Manifest, PutStats, error)
	Get(clock *vtime.Clock, ref string) ([]byte, Manifest, error)
	GetSegment(clock *vtime.Clock, ref, name string) ([]byte, Manifest, error)
	GetNewestRestorable(clock *vtime.Clock, ref string, validate func(payload []byte, man Manifest) error) ([]byte, Manifest, *DegradedRestore, error)
	Resolve(ref string) (Manifest, error)
	Latest(job string) (Manifest, bool, error)
	Jobs() []string
	TotalStoredBytes() int64
}

var _ Backend = (*Fleet)(nil)
