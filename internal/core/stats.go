package core

import "stardust/internal/resilience"

// LevelStats describes the state of one resolution level of the summary.
type LevelStats struct {
	// Window is the sliding window size W·2^j.
	Window int
	// UpdateRate is T_j.
	UpdateRate int
	// ThreadBoxes is the total number of boxes across all stream threads.
	ThreadBoxes int
	// IndexEntries is the number of MBRs in the level's R*-tree.
	IndexEntries int
	// IndexHeight is the R*-tree height.
	IndexHeight int
	// Indexed reports whether this level inserts into the index (never on
	// an aggregate summary).
	Indexed bool
}

// Stats is a point-in-time snapshot of the summary's space usage, the
// quantity Theorem 4.3 bounds.
type Stats struct {
	Streams int
	Levels  []LevelStats
	// RawHistory is the total number of raw values retained across
	// streams.
	RawHistory int
	// FeatureDim is the dimensionality of indexed features.
	FeatureDim int
	// Ingest reports the resilience guard's accept/repair/reject counters
	// and quarantine state. A bare Summary has no guard; the public
	// Monitor wrappers fill this in.
	Ingest resilience.IngestStats
}

// TotalBoxes returns the summary-wide box count.
func (s Stats) TotalBoxes() int {
	total := 0
	for _, l := range s.Levels {
		total += l.ThreadBoxes
	}
	return total
}

// Stats collects a snapshot.
func (s *Summary) Stats() Stats {
	out := Stats{
		Streams:    len(s.streams),
		Levels:     make([]LevelStats, s.cfg.Levels),
		FeatureDim: s.dim,
	}
	for _, st := range s.streams {
		out.RawHistory += st.hist.Len()
		for j, sl := range st.levels {
			out.Levels[j].ThreadBoxes += len(sl.boxes)
		}
	}
	for j := range out.Levels {
		out.Levels[j].Window = s.cfg.LevelWindow(j)
		out.Levels[j].UpdateRate = s.cfg.Rate(j)
		out.Levels[j].IndexEntries = s.trees[j].Len()
		out.Levels[j].IndexHeight = s.trees[j].Height()
		out.Levels[j].Indexed = s.cfg.indexLevel(j)
	}
	return out
}

// ApproxBytes estimates the summary's resident footprint: raw history
// values, per-box extents and bookkeeping, and index entries. It counts
// payload storage, not Go allocator overhead, so treat it as a lower-bound
// capacity-planning figure.
func (s Stats) ApproxBytes() int {
	const (
		floatSize = 8
		boxMeta   = 40 // times, counters, flags per levelBox
		indexMeta = 24 // BoxRef payload per index entry
	)
	bytes := s.RawHistory * floatSize
	for _, l := range s.Levels {
		perBox := 2*s.FeatureDim*floatSize + boxMeta
		bytes += l.ThreadBoxes * perBox
		bytes += l.IndexEntries * (2*s.FeatureDim*floatSize + indexMeta)
	}
	return bytes
}
