// Package cluster turns N independent protemp-serve processes into one
// control plane: a static-membership node ring routes sessions and
// tables to owners by rendezvous hashing, non-owners proxy through
// per-peer circuit breakers, the content-addressed table store gains a
// network tier (fetch from the owner before paying for a Phase-1
// sweep), and admission control sheds load — degrading new solver
// sessions to the table policy and bounding the step queue — when the
// live step-latency histogram crosses its budget.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a static rendezvous-hash (highest-random-weight) ring over
// the cluster's node names. Every node computes the same owner for a
// key with no coordination, and removing one node only reassigns the
// keys that node owned — the property that keeps session routing and
// table ownership stable across partial outages. A Ring is immutable
// and safe for concurrent use.
type Ring struct {
	nodes []string
}

// NewRing builds a ring over the given node names (order-insensitive;
// duplicates and empties rejected).
func NewRing(nodes []string) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty ring")
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
	}
	return &Ring{nodes: sorted}, nil
}

// Nodes returns the member names in sorted order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// score is the rendezvous weight of (node, key): FNV-1a over the node
// name, a separator that cannot appear in hex keys, and the key,
// pushed through a full-avalanche finalizer. The finalizer matters:
// raw FNV states seeded with different node prefixes stay correlated
// through the byte-at-a-time mixing, which skews ownership badly on
// short look-alike member names.
func score(node, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{0xff})
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a cheap 64-bit bijection with
// full avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the node owning key: the member with the highest
// rendezvous weight. Ties (astronomically unlikely with 64-bit FNV)
// break toward the lexicographically smaller name, which the sorted
// member order provides for free.
func (r *Ring) Owner(key string) string {
	best := r.nodes[0]
	bestScore := score(best, key)
	for _, n := range r.nodes[1:] {
		if s := score(n, key); s > bestScore {
			best, bestScore = n, s
		}
	}
	return best
}
