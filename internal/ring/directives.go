package ring

import (
	"slices"
	"sort"
)

// Directives is a small, versioned table of per-key placement overrides.
// Consistent hashing spreads keys uniformly, but it cannot react to load:
// a single viral object pins whichever group it hashes to. A directive
// pins one key to an explicit replica set chosen by the rebalancer, while
// every other key keeps its hash placement. The table rides inside the
// membership view, so all nodes (and clients) route identically — the
// same property the ring itself has.
//
// Directives are immutable: With and Without return a new table with a
// strictly larger Version and never mutate the receiver, so a table can
// be shared across goroutines without locking. The zero value is an empty
// table (version 0, no overrides).
type Directives struct {
	// Version orders directive tables. Every With/Without bumps it, so a
	// node can tell a newer table from the one it routes with, and a view
	// fence covering the table changes whenever placement does.
	Version uint64
	// Entries maps an object key (core.Ref.String()) to its directed
	// replica set, primary first.
	Entries map[string][]NodeID
}

// Lookup returns the directed replica set for key, if any. The returned
// slice must not be mutated.
func (d Directives) Lookup(key string) ([]NodeID, bool) {
	t, ok := d.Entries[key]
	return t, ok
}

// Len returns the number of directed keys.
func (d Directives) Len() int { return len(d.Entries) }

// Keys returns the directed keys in sorted order.
func (d Directives) Keys() []string {
	out := make([]string, 0, len(d.Entries))
	for k := range d.Entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy sharing nothing with the receiver.
func (d Directives) Clone() Directives {
	out := Directives{Version: d.Version}
	if d.Entries != nil {
		out.Entries = make(map[string][]NodeID, len(d.Entries))
		for k, t := range d.Entries {
			cp := make([]NodeID, len(t))
			copy(cp, t)
			out.Entries[k] = cp
		}
	}
	return out
}

// With returns a copy of the table that directs key to targets, with the
// version bumped. Directing a key to an empty target list removes the
// entry (equivalent to Without, but still bumps the version).
func (d Directives) With(key string, targets []NodeID) Directives {
	out := d.Clone()
	out.Version = d.Version + 1
	if len(targets) == 0 {
		delete(out.Entries, key)
		return out
	}
	if out.Entries == nil {
		out.Entries = make(map[string][]NodeID, 1)
	}
	cp := make([]NodeID, len(targets))
	copy(cp, targets)
	out.Entries[key] = cp
	return out
}

// Without returns a copy of the table with key's override removed (the key
// falls back to hash placement), version bumped.
func (d Directives) Without(key string) Directives {
	return d.With(key, nil)
}

// Place computes the replica set for key under the directive table:
// directed keys go to their directed targets, everything else to the
// ring's hash placement. Directed targets that are no longer ring members
// are skipped, and a directed set shorter than rf is topped up by the
// clockwise ring walk — so a directive degrades gracefully toward hash
// placement as its targets crash, instead of stranding the key. A hash
// placement is the ring's shared table (see Ring.ReplicaSet): callers must
// not modify the returned elements.
func (d Directives) Place(r *Ring, key string, rf int) []NodeID {
	if len(d.Entries) > 0 {
		if targets, ok := d.Entries[key]; ok {
			return directed(r, targets, hash64(key), rf)
		}
	}
	return r.ReplicaSet(key, rf)
}

// PlaceRef is Place for the object key typ + "[" + key + "]"
// (core.Ref.String), without building that string: an empty table is not
// consulted, and a lookup in a non-empty one spells the key in a stack
// buffer.
func (d Directives) PlaceRef(r *Ring, typ, key string, rf int) []NodeID {
	if len(d.Entries) > 0 {
		var buf [128]byte
		k := append(append(append(append(buf[:0], typ...), '['), key...), ']')
		if targets, ok := d.Entries[string(k)]; ok {
			return directed(r, targets, hashRef(typ, key), rf)
		}
	}
	return r.replicaSet(hashRef(typ, key), rf)
}

// directed places a directed key, whose ring position is h, on targets.
func directed(r *Ring, targets []NodeID, h uint64, rf int) []NodeID {
	rf = min(rf, len(r.nodes))
	if rf <= 0 {
		return nil
	}
	// Duplicates are found by scanning out: it holds at most rf entries.
	out := make([]NodeID, 0, rf)
	for _, t := range targets {
		if len(out) == rf {
			break
		}
		if r.Contains(t) && !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	if len(out) < rf {
		for _, n := range r.replicaSet(h, len(r.nodes)) {
			if len(out) == rf {
				break
			}
			if !slices.Contains(out, n) {
				out = append(out, n)
			}
		}
	}
	return out
}

// MovedWith reports whether key's replica set differs between (oldRing,
// oldDirectives) and (newRing, newDirectives). The directive-aware analog
// of Moved; rebalancing uses it to decide which objects to transfer when a
// view or directive change lands.
func MovedWith(oldRing *Ring, od Directives, newRing *Ring, nd Directives, key string, rf int) bool {
	oldSet := od.Place(oldRing, key, rf)
	newSet := nd.Place(newRing, key, rf)
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
