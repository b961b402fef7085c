// Package ordered turns a map into a deterministic sequence. Go randomizes
// map iteration order, so the determinism lint forbids ranging a map in
// simulator code; Keys is the one place that does, and it sorts what it
// collects before anyone can observe the order.
package ordered

import (
	"cmp"
	"slices"
)

// Keys returns m's keys in ascending order, as a non-nil slice.
func Keys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	out := make([]K, 0, len(m))
	//lint:ordered the keys are sorted before they are returned
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
