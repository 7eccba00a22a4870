// Package ring implements the consistent-hashing ring used to place shared
// objects on DSO nodes (paper Section 4.1, following Cassandra-style
// placement): every node knows the full membership, so object location is
// computed locally with no broadcast, disjoint-access parallelism is
// preserved, and membership changes move a minimal fraction of objects.
package ring

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
)

// NodeID names a DSO node. Node identifiers must be unique in a view.
type NodeID string

// DefaultVirtualNodes is the vnode count per physical node. 128 keeps the
// standard deviation of load under a few percent for small clusters.
const DefaultVirtualNodes = 128

// tableWidth is how many distinct successors the placement table keeps per
// vnode: a replica set of up to this many nodes is a slice of the table,
// and a larger one is walked for. Every replication factor the system runs
// with (1 to 3) fits.
const tableWidth = 3

type vnode struct {
	hash uint64
	node NodeID
}

// Ring is an immutable placement function over a set of nodes. Build a new
// Ring for every view; lookups are safe for concurrent use.
type Ring struct {
	vnodes []vnode
	nodes  []NodeID
	// table holds, for vnode i, the first width distinct nodes met walking
	// clockwise from it, at table[i*width:(i+1)*width]: the replica sets
	// of every key that falls on the vnode, for every rf up to width.
	table []NodeID
	width int
}

// New builds a ring over nodes with the given number of virtual nodes per
// physical node. Passing vnodesPerNode <= 0 selects DefaultVirtualNodes.
// The node list is copied; order does not matter. An empty node list yields
// a ring whose lookups return false.
func New(nodes []NodeID, vnodesPerNode int) *Ring {
	if vnodesPerNode <= 0 {
		vnodesPerNode = DefaultVirtualNodes
	}
	sorted := make([]NodeID, len(nodes))
	copy(sorted, nodes)
	slices.Sort(sorted)

	r := &Ring{
		vnodes: make([]vnode, 0, len(nodes)*vnodesPerNode),
		nodes:  sorted,
		width:  min(len(sorted), tableWidth),
	}
	var label [64]byte
	for _, n := range sorted {
		for v := 0; v < vnodesPerNode; v++ {
			// The label is fmt.Sprintf("%s#%d", n, v), built without one.
			b := strconv.AppendInt(append(append(label[:0], n...), '#'), int64(v), 10)
			r.vnodes = append(r.vnodes, vnode{hash: mix64(fnvAdd(fnvOffset, b)), node: n})
		}
	}
	slices.SortFunc(r.vnodes, func(a, b vnode) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return cmp.Compare(a.node, b.node)
	})
	r.table = make([]NodeID, len(r.vnodes)*r.width)
	for i := range r.vnodes {
		row := r.table[i*r.width : i*r.width]
		for j := i; len(row) < r.width; j++ {
			if n := r.vnodes[j%len(r.vnodes)].node; !slices.Contains(row, n) {
				row = append(row, n)
			}
		}
	}
	return r
}

// FNV-1a, 64 bit, inline: it hashes byte by byte, so the fields of a
// composite key can be fed in turn without concatenating them.
const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func fnvAdd[S ~string | ~[]byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func hash64(s string) uint64 { return mix64(fnvAdd(fnvOffset, s)) }

// hashRef is hash64(typ + "[" + key + "]"), the hash of an object's key
// (core.Ref.String), computed without building it.
func hashRef(typ, key string) uint64 {
	h := fnvAdd(fnvOffset, typ)
	h = (h ^ '[') * fnvPrime
	h = fnvAdd(h, key)
	return mix64((h ^ ']') * fnvPrime)
}

// mix64 is the splitmix64 finalizer. FNV-1a alone correlates on the short,
// similar strings used for vnode labels, which skews the load balance; the
// finalizer restores avalanche behaviour.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Size returns the number of physical nodes.
func (r *Ring) Size() int { return len(r.nodes) }

// Nodes returns the physical nodes in deterministic (sorted) order. The
// returned slice is a copy.
func (r *Ring) Nodes() []NodeID {
	out := make([]NodeID, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Contains reports whether node is part of the ring.
func (r *Ring) Contains(node NodeID) bool {
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i] >= node })
	return i < len(r.nodes) && r.nodes[i] == node
}

// Owner returns the primary node for key. ok is false for an empty ring.
func (r *Ring) Owner(key string) (NodeID, bool) {
	set := r.ReplicaSet(key, 1)
	if len(set) == 0 {
		return "", false
	}
	return set[0], true
}

// ReplicaSet returns up to rf distinct nodes responsible for key, walking
// the ring clockwise from the key's position. The first element is the
// primary. If rf exceeds the node count, all nodes are returned. Up to
// tableWidth nodes the set is the ring's own table, returned without a
// copy: a caller must not modify its elements (appending is safe — the
// slice has no spare capacity).
func (r *Ring) ReplicaSet(key string, rf int) []NodeID {
	return r.replicaSet(hash64(key), rf)
}

func (r *Ring) replicaSet(h uint64, rf int) []NodeID {
	if len(r.vnodes) == 0 || rf <= 0 {
		return nil
	}
	rf = min(rf, len(r.nodes))
	// First vnode with hash >= h, wrapping.
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		i = 0
	}
	if rf <= r.width {
		row := r.table[i*r.width:]
		return row[:rf:rf]
	}
	out := make([]NodeID, 0, rf)
	for j := 0; j < len(r.vnodes) && len(out) < rf; j++ {
		if n := r.vnodes[(i+j)%len(r.vnodes)].node; !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// Moved reports, for a key and replication factor, whether its replica set
// changes between two rings. Rebalancing uses it to decide which objects to
// transfer on a view change.
func Moved(oldRing, newRing *Ring, key string, rf int) bool {
	oldSet := oldRing.ReplicaSet(key, rf)
	newSet := newRing.ReplicaSet(key, rf)
	if len(oldSet) != len(newSet) {
		return true
	}
	for i := range oldSet {
		if oldSet[i] != newSet[i] {
			return true
		}
	}
	return false
}
