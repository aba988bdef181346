package meta

import (
	"repro/internal/apex"
	"repro/internal/hopi"
	"repro/internal/tc"
)

// The differential suites hold the ablation and oracle strategies to the
// same contract as the three Registry serves.
func init() {
	Registry["hopi-dc"] = hopi.DCStrategy(20000)
	Registry["a1"] = apex.StrategyK(1)
	Registry["a2"] = apex.StrategyK(2)
	Registry["tc"] = tc.Strategy
}
