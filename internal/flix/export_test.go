package flix

import (
	"repro/internal/apex"
	"repro/internal/hopi"
	"repro/internal/meta"
	"repro/internal/tc"
	"repro/internal/xmlgraph"
)

// The parity and determinism suites force every strategy in turn, the
// ablation and oracle ones included; only ppo, hopi and apex are registered
// for serving.
func init() {
	meta.Registry["hopi-dc"] = hopi.DCStrategy(20000)
	meta.Registry["a1"] = apex.StrategyK(1)
	meta.Registry["a2"] = apex.StrategyK(2)
	meta.Registry["tc"] = tc.Strategy
}

// What the external test package (flix_test) needs of the decomposition: it
// drives rebuild.Manager and server.Server, which import this package.

// SetOf returns the decomposition ix was built or opened over.
func SetOf(ix *Index) *meta.Set { return ix.set }

// KeptSet returns the decomposition kept with c, nil when there is none.
func KeptSet(c *xmlgraph.Collection) *meta.Set { return keptSet(c) }

// SetHash hashes every field of a decomposition.
func SetHash(s *meta.Set) string { return setHash(s) }
