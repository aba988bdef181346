//go:build race

package testutil

// RaceEnabled reports whether the race detector is compiled in.  Under the
// race detector sync.Pool deliberately drops cached items at random, so
// allocation-count assertions are meaningless there.
const RaceEnabled = true
