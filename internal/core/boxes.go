package core

import (
	"sort"

	"stardust/internal/mbr"
)

// BoxRef is the payload stored with every MBR in a level index: the stream
// it belongs to and the end-times of the first and last features it
// contains. Together with the box geometry this is all the query
// algorithms need before falling back to raw history for verification.
type BoxRef struct {
	// Stream is the owning stream id.
	Stream int
	// T1 and T2 are the discrete end-times of the first and last features
	// grouped into the box. With update rate T and capacity c,
	// T2 − T1 = (count−1)·T.
	T1, T2 int64
}

// levelBox is one MBR in a stream's per-level thread, together with its
// feature-time range and whether it has been sealed (reached capacity c and
// been inserted into the level index).
type levelBox struct {
	box     mbr.MBR
	t1, t2  int64
	count   int
	sealed  bool
	indexed bool
}

// streamLevel is the per-stream state at one resolution level: the
// time-ordered thread of boxes (paper: "MBRs belonging to a specific stream
// are threaded together"). The final box may be unsealed (still filling).
type streamLevel struct {
	boxes []levelBox
	// idxFront is the position of the first box that may still be in the
	// level index; boxes before it were deindexed by the index horizon.
	// It lets the per-arrival eviction scan skip already-processed boxes.
	idxFront int
}

// addFeature appends the feature box fb (a point box when exact, an extent
// when computed from MBRs) with end-time t. It returns a pointer to a box
// that just reached capacity and must be inserted into the level index, or
// nil.
func (sl *streamLevel) addFeature(fb mbr.MBR, t int64, capacity int) *levelBox {
	n := len(sl.boxes)
	if n == 0 || sl.boxes[n-1].count >= capacity {
		sl.boxes = append(sl.boxes, levelBox{box: fb.Clone(), t1: t, t2: t, count: 1})
		n++
	} else {
		lb := &sl.boxes[n-1]
		lb.box.Extend(fb)
		lb.t2 = t
		lb.count++
	}
	lb := &sl.boxes[n-1]
	if lb.count == capacity {
		lb.sealed = true
		return lb
	}
	return nil
}

// lookup returns the box containing the feature with end-time t, or ok =
// false when t falls outside the retained thread. Boxes are time-ordered
// and non-overlapping, so a binary search on t2 suffices.
func (sl *streamLevel) lookup(t int64) (mbr.MBR, bool) {
	i := sort.Search(len(sl.boxes), func(i int) bool { return sl.boxes[i].t2 >= t })
	if i == len(sl.boxes) || sl.boxes[i].t1 > t {
		return mbr.MBR{}, false
	}
	return sl.boxes[i].box, true
}

// lookupRef is lookup plus the feature-time range of the found box.
func (sl *streamLevel) lookupRef(t int64) (mbr.MBR, int64, int64, bool) {
	i := sort.Search(len(sl.boxes), func(i int) bool { return sl.boxes[i].t2 >= t })
	if i == len(sl.boxes) || sl.boxes[i].t1 > t {
		return mbr.MBR{}, 0, 0, false
	}
	return sl.boxes[i].box, sl.boxes[i].t1, sl.boxes[i].t2, true
}

// evict removes leading boxes whose newest feature is older than horizon
// and returns them so the caller can delete the sealed ones from the level
// index. The result aliases the thread's former prefix rather than copying
// it: appends only ever write past the retained suffix, so the prefix
// stays intact and an eviction allocates nothing.
func (sl *streamLevel) evict(horizon int64) []levelBox {
	cut := 0
	for cut < len(sl.boxes) && sl.boxes[cut].t2 < horizon {
		cut++
	}
	if cut == 0 {
		return nil
	}
	removed := sl.boxes[:cut:cut]
	sl.boxes = sl.boxes[cut:]
	sl.idxFront -= cut
	if sl.idxFront < 0 {
		sl.idxFront = 0
	}
	return removed
}

// latest returns the most recent box and its time range, or ok=false when
// the thread is empty.
func (sl *streamLevel) latest() (mbr.MBR, int64, int64, bool) {
	if len(sl.boxes) == 0 {
		return mbr.MBR{}, 0, 0, false
	}
	lb := &sl.boxes[len(sl.boxes)-1]
	return lb.box, lb.t1, lb.t2, true
}
