package testutil

import (
	"fmt"
	"slices"

	"repro/internal/pathindex"
)

// SameProbes compares two connection indexes over the same local graph
// exhaustively — Reachable and Distance for every node pair, and the four
// enumerations from every node (the typed ones for every tag in
// [0, numTags)), in emission order — and describes the first difference.
func SameProbes(a, b pathindex.Index, numTags int) error {
	n := int32(a.NumNodes())
	if int(n) != b.NumNodes() {
		return fmt.Errorf("NumNodes: %d vs %d", n, b.NumNodes())
	}
	collect := func(each func(pathindex.Visit)) (out [][2]int32) {
		each(func(node, dist int32) bool {
			out = append(out, [2]int32{node, dist})
			return true
		})
		return out
	}
	type enum struct {
		name string
		a, b func(pathindex.Visit)
	}
	for x := int32(0); x < n; x++ {
		for y := int32(0); y < n; y++ {
			da, oka := a.Distance(x, y)
			db, okb := b.Distance(x, y)
			if oka != okb || (oka && da != db) || a.Reachable(x, y) != b.Reachable(x, y) {
				return fmt.Errorf("Distance(%d,%d): %d,%t vs %d,%t", x, y, da, oka, db, okb)
			}
		}
		enums := []enum{
			{"EachReachable", func(fn pathindex.Visit) { a.EachReachable(x, fn) }, func(fn pathindex.Visit) { b.EachReachable(x, fn) }},
			{"EachReaching", func(fn pathindex.Visit) { a.EachReaching(x, fn) }, func(fn pathindex.Visit) { b.EachReaching(x, fn) }},
		}
		for tag := int32(0); tag < int32(numTags); tag++ {
			enums = append(enums,
				enum{fmt.Sprintf("EachReachableByTag(%d)", tag), func(fn pathindex.Visit) { a.EachReachableByTag(x, tag, fn) }, func(fn pathindex.Visit) { b.EachReachableByTag(x, tag, fn) }},
				enum{fmt.Sprintf("EachReachingByTag(%d)", tag), func(fn pathindex.Visit) { a.EachReachingByTag(x, tag, fn) }, func(fn pathindex.Visit) { b.EachReachingByTag(x, tag, fn) }})
		}
		for _, e := range enums {
			if ra, rb := collect(e.a), collect(e.b); !slices.Equal(ra, rb) {
				return fmt.Errorf("%s from %d: %v vs %v", e.name, x, ra, rb)
			}
		}
	}
	return nil
}

// DamageSection holds a section opener to its unhappy path: every truncation
// of body must be rejected, and every single-byte flip must be rejected or
// yield an index whose probes stay in bounds.  A panic fails the caller's
// test on its own.
func DamageSection(body []byte, open func([]byte) (pathindex.Index, error)) error {
	for cut := 0; cut < len(body); cut++ {
		if _, err := open(body[:cut]); err == nil {
			return fmt.Errorf("accepted a section truncated to %d of %d bytes", cut, len(body))
		}
	}
	visit := func(int32, int32) bool { return true }
	for i := range body {
		bad := slices.Clone(body)
		bad[i] ^= 0x81
		p, err := open(bad)
		if err != nil {
			continue
		}
		for x, n := int32(0), int32(p.NumNodes()); x < n; x += 5 {
			p.Reachable(x, (x*13)%n)
			p.EachReachable(x, visit)
			p.EachReachableByTag(x, 1, visit)
			p.EachReaching(x, visit)
		}
	}
	return nil
}
