package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"stardust/internal/mbr"
	"stardust/internal/wavelet"
	"stardust/internal/window"
)

// This file implements durable snapshots of a Summary: the full per-stream
// state (raw history, level threads) plus the configuration, encoded with
// encoding/gob. The per-level R*-trees are not serialized; they are rebuilt
// from the indexed boxes on load (DWT summaries only: an aggregate summary
// keeps no index, see Config.indexLevel), which is fast (bulk structure is
// irrelevant — the entries are identical) and keeps the format independent
// of index internals. Function-typed configuration (the rate schedule) is
// captured as the evaluated per-level rates, and the wavelet filter by
// name.

// snapshotVersion guards format evolution.
const snapshotVersion = 1

type snapshotConfig struct {
	W             int
	Levels        int
	BoxCapacity   int
	Rates         []int
	Transform     Transform
	F             int
	FilterName    string
	Normalization Normalization
	Rmax          float64
	Direct        bool
	OnlineI       bool
	HistoryN      int
	IndexHorizon  int
	IndexLevels   []int
}

type snapshotBox struct {
	Min, Max []float64
	T1, T2   int64
	Count    int
	Sealed   bool
	Indexed  bool
}

type snapshotLevel struct {
	Boxes    []snapshotBox
	IdxFront int
}

type snapshotStream struct {
	FirstTime int64
	Values    []float64
	Levels    []snapshotLevel
}

type snapshot struct {
	Version int
	Config  snapshotConfig
	Streams []snapshotStream
}

// snapshotFilterName canonicalizes the serialized filter name so that a
// load→snapshot round trip is byte-stable: non-DWT summaries never use
// the filter, but restore materializes the default Haar filter, which
// would otherwise make a restored summary encode "haar" where the
// original encoded "". Byte-stability is what lets a replication
// follower's checkpoint be compared byte-for-byte against its primary's.
func snapshotFilterName(cfg Config) string {
	if cfg.Transform != TransformDWT {
		return ""
	}
	return cfg.Filter.Name()
}

// Snapshot serializes the summary's full state to w.
func (s *Summary) Snapshot(w io.Writer) error {
	snap := snapshot{
		Version: snapshotVersion,
		Config: snapshotConfig{
			W:             s.cfg.W,
			Levels:        s.cfg.Levels,
			BoxCapacity:   s.cfg.BoxCapacity,
			Transform:     s.cfg.Transform,
			F:             s.cfg.F,
			FilterName:    snapshotFilterName(s.cfg),
			Normalization: s.cfg.Normalization,
			Rmax:          s.cfg.Rmax,
			Direct:        s.cfg.Direct,
			OnlineI:       s.cfg.OnlineI,
			HistoryN:      s.cfg.HistoryN,
			IndexHorizon:  s.cfg.IndexHorizon,
			IndexLevels:   append([]int(nil), s.cfg.IndexLevels...),
		},
	}
	for j := 0; j < s.cfg.Levels; j++ {
		snap.Config.Rates = append(snap.Config.Rates, s.cfg.Rate(j))
	}
	for _, st := range s.streams {
		ss := snapshotStream{
			FirstTime: st.hist.OldestTime(),
			Values:    st.hist.Values(nil),
		}
		if ss.FirstTime < 0 {
			ss.FirstTime = 0
		}
		for _, sl := range st.levels {
			lvl := snapshotLevel{IdxFront: sl.idxFront}
			for _, lb := range sl.boxes {
				lvl.Boxes = append(lvl.Boxes, snapshotBox{
					Min: append([]float64(nil), lb.box.Min...),
					Max: append([]float64(nil), lb.box.Max...),
					T1:  lb.t1, T2: lb.t2,
					Count: lb.count, Sealed: lb.sealed, Indexed: lb.indexed,
				})
			}
			ss.Levels = append(ss.Levels, lvl)
		}
		snap.Streams = append(snap.Streams, ss)
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// LoadSummary reconstructs a summary from a Snapshot stream. The per-level
// indexes are rebuilt from the boxes marked as indexed on the levels that
// keep an index. On the others — every level of an aggregate summary — the
// marks and the index front are cleared, so a snapshot written when
// aggregate summaries were still indexed loads into exactly the state a
// summary that never indexed would hold.
func LoadSummary(r io.Reader) (*Summary, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %v", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", snap.Version)
	}
	sc := snap.Config
	if len(sc.Rates) != sc.Levels {
		return nil, fmt.Errorf("core: snapshot has %d rates for %d levels", len(sc.Rates), sc.Levels)
	}
	rates := append([]int(nil), sc.Rates...)
	cfg := Config{
		W:           sc.W,
		Levels:      sc.Levels,
		BoxCapacity: sc.BoxCapacity,
		Rate: func(j int) int {
			if j < 0 || j >= len(rates) {
				return rates[len(rates)-1]
			}
			return rates[j]
		},
		Transform:     sc.Transform,
		F:             sc.F,
		Normalization: sc.Normalization,
		Rmax:          sc.Rmax,
		Direct:        sc.Direct,
		OnlineI:       sc.OnlineI,
		HistoryN:      sc.HistoryN,
		IndexHorizon:  sc.IndexHorizon,
		IndexLevels:   append([]int(nil), sc.IndexLevels...),
	}
	switch sc.FilterName {
	case "haar", "":
		cfg.Filter = wavelet.Haar()
	case "db4":
		cfg.Filter = wavelet.Daubechies4()
	default:
		return nil, fmt.Errorf("core: unknown filter %q in snapshot", sc.FilterName)
	}
	s, err := NewSummary(cfg, max(len(snap.Streams), 1))
	if err != nil {
		return nil, fmt.Errorf("core: snapshot config invalid: %v", err)
	}
	if len(snap.Streams) == 0 {
		return nil, fmt.Errorf("core: snapshot has no streams")
	}
	for i, ss := range snap.Streams {
		st := s.streams[i]
		hist, err := window.RestoreHistory(cfg.HistoryN, ss.FirstTime, ss.Values)
		if err != nil {
			return nil, fmt.Errorf("core: stream %d history: %v", i, err)
		}
		st.hist = hist
		if len(ss.Levels) != cfg.Levels {
			return nil, fmt.Errorf("core: stream %d has %d levels, config %d", i, len(ss.Levels), cfg.Levels)
		}
		for j, lvl := range ss.Levels {
			sl := st.levels[j]
			indexed := cfg.indexLevel(j)
			if indexed {
				sl.idxFront = lvl.IdxFront
			}
			for _, sb := range lvl.Boxes {
				if len(sb.Min) != len(sb.Max) {
					return nil, fmt.Errorf("core: stream %d level %d: corrupt box", i, j)
				}
				lb := levelBox{
					box:    mbr.MBR{Min: append([]float64(nil), sb.Min...), Max: append([]float64(nil), sb.Max...)},
					t1:     sb.T1,
					t2:     sb.T2,
					count:  sb.Count,
					sealed: sb.Sealed, indexed: sb.Indexed && indexed,
				}
				sl.boxes = append(sl.boxes, lb)
				if lb.indexed {
					s.trees[j].Insert(s.featureView(lb.box, j), BoxRef{Stream: st.id, T1: lb.t1, T2: lb.t2})
				}
			}
		}
	}
	return s, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
