// Package cluster is Stardust's multi-process coordinator tier: it
// partitions streams across N backend stardust-server processes with a
// consistent-hash ring and presents the whole fleet as one
// stardust.Interface — ingest forwards to the owning shard over the client
// package, queries scatter to every shard and gather through a
// screen-then-verify merge (query.go). The paper's framework (Section 3)
// never depends on streams sharing an address space — features and raw
// windows are all the merge needs — so the cross-shard screen runs behind
// network RPCs without changing any result: e2e tests pin router answers
// byte-identical to a single monitor ingesting the same samples.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ringPoint is one virtual node: a position on the 64-bit hash circle owned
// by a member.
type ringPoint struct {
	hash   uint64
	member int // index into Ring.members
}

// Ring is an immutable consistent-hash ring over named members with a fixed
// number of virtual nodes per member. Lookups hash the stream id and walk
// clockwise to the next virtual node; determinism depends only on the
// member names and virtual-node count, never on construction order or
// process identity, so independently restarted routers agree on ownership.
type Ring struct {
	members []string
	vnodes  int
	points  []ringPoint
}

// NewRing builds a ring over the member names with vnodes virtual nodes
// each. Member order does not affect the resulting ownership map (names are
// sorted internally); duplicate names are rejected.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if vnodes <= 0 {
		return nil, fmt.Errorf("cluster: vnodes must be positive, got %d", vnodes)
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate ring member %q", sorted[i])
		}
	}
	r := &Ring{
		members: sorted,
		vnodes:  vnodes,
		points:  make([]ringPoint, 0, len(sorted)*vnodes),
	}
	for mi, name := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hashVNode(name, v),
				member: mi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash collisions between virtual nodes break ties by member name
		// so ownership stays deterministic.
		return r.members[a.member] < r.members[b.member]
	})
	return r, nil
}

// hashVNode positions one virtual node on the circle: FNV-1a over
// "name#v" pushed through a 64-bit finalizer. FNV alone has weak
// avalanche on short inputs that differ only in trailing bytes —
// consecutive vnode indices land within a few thousand positions of each
// other — so the finalizer is what actually scatters vnodes around the
// circle.
func hashVNode(name string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{'#'})
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * (7 - i)))
	}
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// hashKey positions a stream id on the circle. Ids hash through the same
// FNV-1a core as virtual nodes but without the separator so key and vnode
// spaces cannot collide structurally; the finalizer spreads the small,
// dense id space (0, 1, 2, ...) uniformly instead of clustering it in one
// arc.
func hashKey(stream int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(stream) >> (8 * (7 - i)))
	}
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// mix64 is the murmur3 64-bit finalizer: a bijective scramble with full
// avalanche, so adjacent inputs land far apart on the circle. Stable
// constants — changing them remaps every deployment's ownership.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Lookup returns the name of the member owning the stream id: the first
// virtual node clockwise from the id's hash. Never panics, for any id.
func (r *Ring) Lookup(stream int) string {
	k := hashKey(stream)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= k })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the circle's start
	}
	return r.members[r.points[i].member]
}

// Members returns the ring's member names in sorted order. The slice is a
// copy.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// VNodes returns the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// WithAdded returns a new ring with the named member joined. Consistent
// hashing guarantees only keys landing on the new member move; everything
// else keeps its owner.
func (r *Ring) WithAdded(name string) (*Ring, error) {
	return NewRing(append(r.Members(), name), r.vnodes)
}

// WithRemoved returns a new ring with the named member departed; its keys
// redistribute to the survivors and no other key moves.
func (r *Ring) WithRemoved(name string) (*Ring, error) {
	var rest []string
	for _, m := range r.members {
		if m != name {
			rest = append(rest, m)
		}
	}
	if len(rest) == len(r.members) {
		return nil, fmt.Errorf("cluster: ring member %q not found", name)
	}
	return NewRing(rest, r.vnodes)
}
