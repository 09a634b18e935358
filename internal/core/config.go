// Package core implements the Stardust framework of Bulut & Singh (ICDE
// 2005): multi-resolution feature extraction over data streams with
// incremental computation of higher-level features from lower-level
// features or their MBRs (Section 4, Algorithm 1), and the three monitoring
// query classes on top — aggregate monitoring (Algorithm 2), pattern
// monitoring (Algorithms 3 and 4) and correlation monitoring (Section 5.3).
package core

import (
	"fmt"
	"math"

	"stardust/internal/aggregate"
	"stardust/internal/rstar"
	"stardust/internal/wavelet"
)

// Transform selects the feature transformation F applied to windows.
type Transform int

const (
	// TransformSum monitors moving sums (burst detection).
	TransformSum Transform = iota
	// TransformMax monitors moving maxima.
	TransformMax
	// TransformMin monitors moving minima.
	TransformMin
	// TransformSpread monitors MAX−MIN (volatility detection).
	TransformSpread
	// TransformDWT extracts the first F wavelet approximation coefficients
	// (pattern and correlation monitoring).
	TransformDWT
)

// String implements fmt.Stringer.
func (tr Transform) String() string {
	switch tr {
	case TransformSum:
		return "SUM"
	case TransformMax:
		return "MAX"
	case TransformMin:
		return "MIN"
	case TransformSpread:
		return "SPREAD"
	case TransformDWT:
		return "DWT"
	default:
		return fmt.Sprintf("Transform(%d)", int(tr))
	}
}

// aggFunc maps aggregate transforms to their aggregate.Func.
func (tr Transform) aggFunc() aggregate.Func {
	switch tr {
	case TransformSum:
		return aggregate.Sum
	case TransformMax:
		return aggregate.Max
	case TransformMin:
		return aggregate.Min
	case TransformSpread:
		return aggregate.Spread
	default:
		panic(fmt.Sprintf("core: %v is not an aggregate transform", tr))
	}
}

// Normalization selects how windows are normalized before a DWT transform.
type Normalization int

const (
	// NormNone indexes raw-signal coefficients.
	NormNone Normalization = iota
	// NormUnit maps windows to the unit hyper-sphere (Equation 2); used by
	// pattern monitoring.
	NormUnit
	// NormZ z-normalizes windows (Equation 3); used by correlation
	// monitoring. Requires direct (batch) computation because z-norms of
	// half windows do not compose.
	NormZ
)

// String implements fmt.Stringer.
func (n Normalization) String() string {
	switch n {
	case NormNone:
		return "none"
	case NormUnit:
		return "unit"
	case NormZ:
		return "z"
	default:
		return fmt.Sprintf("Normalization(%d)", int(n))
	}
}

// RateFunc returns the update rate T_j of a resolution level: a new feature
// is computed at level j whenever (t+1) mod T_j == 0. The paper's two
// general algorithms are RateOnline (T_j = 1, variable box capacity) and
// RateBatch (T_j = W, capacity 1); RateSWAT (T_j = 2^j) reproduces the
// authors' earlier SWAT system.
type RateFunc func(level int) int

// RateOnline is the online algorithm's rate: a feature per arrival.
func RateOnline(int) int { return 1 }

// RateBatch returns the batch algorithm's uniform rate T_j = t.
func RateBatch(t int) RateFunc {
	return func(int) int { return t }
}

// RateSWAT is the SWAT schedule T_j = 2^j.
func RateSWAT(level int) int { return 1 << uint(level) }

// Config parameterizes a Summary. W and Levels are required; the rest have
// sensible defaults applied by Validate.
type Config struct {
	// W is the sliding window size at the lowest resolution. For
	// TransformDWT it must be a power of two.
	W int
	// Levels is the number of resolution levels J+1; level j uses windows
	// of size W·2^j.
	Levels int
	// BoxCapacity is c, the number of consecutive features grouped into
	// one MBR (default 1 = exact features).
	BoxCapacity int
	// Rate gives the per-level update rate T_j (default RateOnline). Each
	// T_j must divide T_{j+1} and W·2^j so that merge alignment holds.
	Rate RateFunc
	// Transform selects the feature function F.
	Transform Transform
	// F is the number of DWT approximation coefficients kept per feature
	// (TransformDWT only); a power of two ≤ W. Default 2.
	F int
	// Filter is the DWT low-pass filter (default Haar).
	Filter wavelet.Filter
	// Normalization applies to DWT windows (default NormNone).
	Normalization Normalization
	// Rmax is the value-range upper bound for NormUnit (Equation 2).
	Rmax float64
	// Direct forces features at every level to be computed directly from
	// the raw window rather than by merging level j−1 features. Required
	// for NormZ; implied default for batch DWT configurations.
	Direct bool
	// OnlineI selects the corner-enumeration MBR transform (Appendix A
	// "Online I") instead of the Θ(f) low/high propagation ("Online II").
	// Only meaningful for TransformDWT with BoxCapacity > 1.
	OnlineI bool
	// HistoryN is the raw history retained per stream, used to verify
	// candidate alarms and matches. Default 2·W·2^(Levels−1) (covers every
	// decomposable query window). Features older than HistoryN are evicted
	// from the per-level indexes.
	HistoryN int
	// IndexOptions configures the per-level R*-trees.
	IndexOptions rstar.Options
	// IndexHorizon bounds how long (in time steps) a sealed MBR stays in
	// the level indexes before being deleted. It defaults to HistoryN.
	// Synchronous correlation monitoring only ever queries current-time
	// features, so a horizon of one update period keeps the index at one
	// entry per stream. Per-stream feature threads still retain HistoryN.
	IndexHorizon int
	// IndexLevels restricts which resolution levels of a DWT summary
	// insert their sealed MBRs into the shared R*-tree index. Empty means
	// every level (the default). Restricting to the levels a deployment
	// actually queries (e.g. only the top level for correlation
	// monitoring) removes the index-maintenance cost of the others;
	// per-stream feature threads are kept at every level regardless.
	// Aggregate summaries index no level at all (see indexLevel).
	IndexLevels []int
}

// indexLevel reports whether level j's sealed boxes are indexed. Only DWT
// summaries keep an index: pattern, correlation and k-NN queries search
// it, while aggregate monitoring (Algorithm 2) reads the stream's own
// feature thread, so an aggregate summary would only pay its upkeep.
func (c Config) indexLevel(j int) bool {
	if c.Transform != TransformDWT {
		return false
	}
	if len(c.IndexLevels) == 0 {
		return true
	}
	for _, l := range c.IndexLevels {
		if l == j {
			return true
		}
	}
	return false
}

// Validate applies defaults and checks consistency, returning a normalized
// copy.
func (c Config) Validate() (Config, error) {
	if c.W <= 0 {
		return c, fmt.Errorf("core: W must be positive, got %d", c.W)
	}
	if c.Levels <= 0 {
		return c, fmt.Errorf("core: Levels must be positive, got %d", c.Levels)
	}
	if c.Levels > 30 {
		return c, fmt.Errorf("core: Levels %d too large", c.Levels)
	}
	if c.BoxCapacity <= 0 {
		c.BoxCapacity = 1
	}
	if c.Rate == nil {
		c.Rate = RateOnline
	}
	if c.Transform == TransformDWT {
		if c.W&(c.W-1) != 0 {
			return c, fmt.Errorf("core: DWT requires power-of-two W, got %d", c.W)
		}
		if c.F <= 0 {
			c.F = 2
		}
		if c.F&(c.F-1) != 0 || c.F > c.W {
			return c, fmt.Errorf("core: F must be a power of two ≤ W, got F=%d W=%d", c.F, c.W)
		}
		if c.Filter.Len() == 0 {
			c.Filter = wavelet.Haar()
		}
		if c.Normalization == NormUnit && c.Rmax <= 0 {
			return c, fmt.Errorf("core: NormUnit requires positive Rmax")
		}
		if c.Normalization == NormZ && !c.Direct && c.BoxCapacity != 1 {
			return c, fmt.Errorf("core: merged NormZ features require BoxCapacity 1 (the composite raw-coefficient merge is exact only for point boxes); set Direct for c=%d", c.BoxCapacity)
		}
		if !c.Direct && c.Filter.Name() != "haar" {
			return c, fmt.Errorf("core: merged DWT features require the Haar filter (longer filters mix across the half-window boundary); set Direct for %s", c.Filter.Name())
		}
	}
	// Rate alignment: T_j | T_{j+1} and T_j | W·2^j.
	prev := 0
	for j := 0; j < c.Levels; j++ {
		t := c.Rate(j)
		if t <= 0 {
			return c, fmt.Errorf("core: non-positive update rate T_%d = %d", j, t)
		}
		if prev > 0 && t%prev != 0 {
			return c, fmt.Errorf("core: T_%d = %d is not a multiple of T_%d = %d", j, t, j-1, prev)
		}
		wj := c.W << uint(j)
		if wj%t != 0 && !c.Direct {
			return c, fmt.Errorf("core: T_%d = %d does not divide the level window %d (merge alignment)", j, t, wj)
		}
		prev = t
	}
	maxWindow := c.W << uint(c.Levels-1)
	if c.HistoryN <= 0 {
		c.HistoryN = 2 * maxWindow
	}
	if c.HistoryN < maxWindow {
		return c, fmt.Errorf("core: HistoryN %d smaller than largest window %d", c.HistoryN, maxWindow)
	}
	if c.IndexHorizon <= 0 {
		c.IndexHorizon = c.HistoryN
	}
	if c.IndexHorizon > c.HistoryN {
		return c, fmt.Errorf("core: IndexHorizon %d exceeds HistoryN %d", c.IndexHorizon, c.HistoryN)
	}
	return c, nil
}

// FeatureDim returns the dimensionality of feature vectors and index boxes.
func (c Config) FeatureDim() int {
	if c.Transform == TransformDWT {
		return c.F
	}
	return c.Transform.aggFunc().Dim()
}

// LevelWindow returns the sliding window size at level j.
func (c Config) LevelWindow(j int) int { return c.W << uint(j) }

// EffectiveT computes the effective monitoring-window stretch factor T' of
// Equation 7 for a query window of size b·W with box capacity c:
//
//	T' = 1 + log2(b)·(c−1) / (b·W)
//
// The paper's worked example: c = W = 64, b = 12 gives T' ≈ 1.2987 versus
// SWT's T = 4/3.
func EffectiveT(b, w, boxCap int) float64 {
	if b <= 0 || w <= 0 {
		panic("core: EffectiveT requires positive b and W")
	}
	return 1 + math.Log2(float64(b))*float64(boxCap-1)/float64(b*w)
}

// SWTStretch returns SWT's monitoring stretch factor T = 2^j·W / w for a
// window of size w monitored by the smallest level with 2^j·W ≥ w.
func SWTStretch(w, baseW int) float64 {
	if w <= 0 || baseW <= 0 {
		panic("core: SWTStretch requires positive windows")
	}
	lvl := 0
	for baseW<<uint(lvl) < w {
		lvl++
	}
	return float64(baseW<<uint(lvl)) / float64(w)
}
