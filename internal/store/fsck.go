package store

import (
	"fmt"

	"checl/internal/vtime"
)

// FsckReport is the result of a store verification pass.
type FsckReport struct {
	Manifests     int
	ChunksChecked int // chunk references verified (shared chunks count once)
	Errors        []string
}

// OK reports whether the store verified clean.
func (r FsckReport) OK() bool { return len(r.Errors) == 0 }

// Fsck verifies the whole store without modifying it: every manifest
// frame parses (an undecodable frame is a finding for that manifest only,
// never an abort that masks the rest), every referenced chunk exists,
// decompresses, and hashes to its content address, and every manifest's
// assembled payload matches its digest. Unlike Get, Fsck never heals from
// replicas — it reports what the primary actually holds; Scrub is the
// repairing counterpart. Read and decompression time is charged to clock.
// Fsck returns an error only for infrastructure failures; integrity
// findings land in the report.
func (s *Store) Fsck(clock *vtime.Clock) (FsckReport, error) {
	var rep FsckReport
	mans, issues := s.Manifests()
	for _, iss := range issues {
		rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", iss.ID(), iss.Err))
	}
	verified := map[string]bool{}
	for _, m := range mans {
		rep.Manifests++
		if _, err := s.assemble(clock, m, false); err != nil {
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
