// Package ring implements the consistent-hashing ring used to place shared
// objects on DSO nodes (paper Section 4.1, following Cassandra-style
// placement): every node knows the full membership, so object location is
// computed locally with no broadcast, disjoint-access parallelism is
// preserved, and membership changes move a minimal fraction of objects.
package ring

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// NodeID names a DSO node. Node identifiers must be unique in a view.
type NodeID string

// DefaultVirtualNodes is the vnode count per physical node. 128 keeps the
// standard deviation of load under a few percent for small clusters.
const DefaultVirtualNodes = 128

type vnode struct {
	hash uint64
	node NodeID
}

// Ring is an immutable placement function over a set of nodes. Build a new
// Ring for every view; lookups are safe for concurrent use.
type Ring struct {
	vnodes []vnode
	nodes  []NodeID
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
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	r := &Ring{
		vnodes: make([]vnode, 0, len(nodes)*vnodesPerNode),
		nodes:  sorted,
	}
	for _, n := range sorted {
		for v := 0; v < vnodesPerNode; v++ {
			r.vnodes = append(r.vnodes, vnode{
				hash: hash64(fmt.Sprintf("%s#%d", n, v)),
				node: n,
			})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.node < b.node
	})
	return r
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
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
// primary. If rf exceeds the node count, all nodes are returned.
func (r *Ring) ReplicaSet(key string, rf int) []NodeID {
	if len(r.vnodes) == 0 || rf <= 0 {
		return nil
	}
	if rf > len(r.nodes) {
		rf = len(r.nodes)
	}
	h := hash64(key)
	// First vnode with hash >= h, wrapping.
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		i = 0
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
