package flix

import (
	"repro/internal/meta"
	"repro/internal/xmlgraph"
)

// What the external test package (flix_test) needs of the decomposition: it
// drives rebuild.Manager and server.Server, which import this package.

// SetOf returns the decomposition ix was built or opened over.
func SetOf(ix *Index) *meta.Set { return ix.set }

// KeptSet returns the decomposition kept with c, nil when there is none.
func KeptSet(c *xmlgraph.Collection) *meta.Set { return keptSet(c) }

// SetHash hashes every field of a decomposition.
func SetHash(s *meta.Set) string { return setHash(s) }
