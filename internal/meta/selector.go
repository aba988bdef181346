package meta

import (
	"fmt"
	"time"

	"repro/internal/apex"
	"repro/internal/hopi"
	"repro/internal/lgraph"
	"repro/internal/pathindex"
	"repro/internal/ppo"
	"repro/internal/storage"
)

// QueryLoad describes the dominant query pattern, one of the inputs of the
// Indexing Strategy Selector (§4.1): which axes dominate, how long result
// paths are.
type QueryLoad int

const (
	// LoadDescendants: long descendants-or-self paths with wildcards —
	// the workload FliX is optimized for.  Graph-shaped meta documents
	// get HOPI.
	LoadDescendants QueryLoad = iota
	// LoadShortPaths: short paths without wildcards; APEX "will do fine"
	// (§2.2) and is much cheaper to build than HOPI.
	LoadShortPaths
)

// String implements fmt.Stringer.
func (l QueryLoad) String() string {
	switch l {
	case LoadDescendants:
		return "descendants"
	case LoadShortPaths:
		return "short-paths"
	default:
		return fmt.Sprintf("QueryLoad(%d)", int(l))
	}
}

// Registry lists the Path Indexing Strategies the selector chooses from and
// Config.Strategy may name: the three the paper deploys.  The ablation and
// oracle strategies (hopi.DCStrategy, apex.StrategyK, tc.Strategy) are added
// by the tests and experiment harnesses that compare against them, at
// start-up; a name that is not registered is no preference at all.
var Registry = map[string]pathindex.Strategy{
	"ppo":  ppo.Strategy,
	"hopi": hopi.Strategy,
	"apex": apex.Strategy,
}

// SectionOpeners maps a v2 snapshot section kind to the strategy-specific
// opener: a zero-copy view over the section bytes for ppo and apex, the
// decoded heap index for hopi (one codec, kind hopi-c).  The transitive
// closure (tc.Strategy, Table 1's baseline and the tests' oracle) has no
// section: a snapshot of an index that uses it cannot be written.
var SectionOpeners = map[uint32]func(*lgraph.LGraph, []byte) (pathindex.Index, error){
	storage.SectionPPO:   ppo.OpenSection,
	storage.SectionAPEX:  apex.OpenSection,
	storage.SectionPPOC:  ppo.OpenCompressedSection,
	storage.SectionHOPIC: hopi.OpenSection,
}

// Select implements the Indexing Strategy Selector: it picks the optimal
// strategy for one meta document, following the paper's rule of thumb
// (§2.2):
//
//   - no links, i.e. the local graph is a forest: PPO — cheapest and exact;
//   - otherwise HOPI for descendants-dominated loads, APEX for short-path
//     loads.
//
// The preferred name, when non-empty, overrides the heuristic if the
// strategy is applicable (a PPO preference on a non-forest graph falls back
// to the heuristic).  The forest check runs at most once.
func Select(md *MetaDocument, load QueryLoad, preferred string) pathindex.Strategy {
	s, ok := Registry[preferred]
	if ok && !s.RequiresForest {
		return s
	}
	if md.Graph.IsForest() {
		if ok {
			return s
		}
		return ppo.Strategy
	}
	if load == LoadShortPaths {
		return apex.Strategy
	}
	return hopi.Strategy
}

// Timing breaks one meta document's index construction into its phases —
// the raw material of the build-phase statistics surfaced by /statsz.
type Timing struct {
	// Select is the time the Indexing Strategy Selector spent (including
	// the forest check it runs on the local graph).
	Select time.Duration
	// Build is the time the chosen strategy's builder spent.
	Build time.Duration
}

// BuildIndexTimed selects and builds the index for one meta document, and
// reports how long strategy selection and index construction took.
func BuildIndexTimed(md *MetaDocument, load QueryLoad, preferred string) (pathindex.Index, Timing, error) {
	var tm Timing
	t0 := time.Now()
	s := Select(md, load, preferred)
	tm.Select = time.Since(t0)
	t0 = time.Now()
	idx, err := s.Build(md.Graph)
	tm.Build = time.Since(t0)
	if err != nil {
		return nil, tm, fmt.Errorf("meta %d: building %s: %w", md.ID, s.Name, err)
	}
	return idx, tm, nil
}
