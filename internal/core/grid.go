package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Tier parameters a TierAxis can vary.
const (
	TierParamMean = "mean"
	TierParamI    = "index_of_dispersion"
	TierParamP95  = "p95"
)

// TierAxis varies one explicit-demand tier parameter of the base
// scenario across a list of values — e.g. the database tier's index of
// dispersion over {1, 4, 40, 400} for a burstiness-sensitivity sweep.
type TierAxis struct {
	// Tier indexes the base scenario's tiers.
	Tier int `json:"tier"`
	// Param is the varied parameter: "mean", "index_of_dispersion" or
	// "p95".
	Param string `json:"param"`
	// Values are the parameter values, one cell slice per entry.
	Values []float64 `json:"values"`
}

// Grid declares the parameter axes of a Suite. Every non-empty axis
// contributes one dimension to the cross product; the base scenario
// fills everything a cell does not override. An entirely empty grid
// expands to the single base cell.
//
// Expansion order is deterministic: axes apply in struct order (tier
// axes first, populations last), and the cross product is walked
// row-major with later axes varying fastest — so a mixes × populations
// grid yields all populations of the first mix, then the second, the
// order the paper's tables are printed in.
type Grid struct {
	// TierAxes vary explicit tier parameters (mean service time, index
	// of dispersion, p95).
	TierAxes []TierAxis `json:"tier_axes,omitempty"`
	// ThinkTimes varies the scenario think time Z.
	ThinkTimes []float64 `json:"think_times,omitempty"`
	// Mixes varies the workload transaction mix (requires a base
	// workload).
	Mixes []string `json:"mixes,omitempty"`
	// ClassWeights varies the class mix: each entry is one full weight
	// vector over the base scenario's declared classes, in declaration
	// order (requires base classes; entries override any fixed per-class
	// populations).
	ClassWeights [][]float64 `json:"class_weights,omitempty"`
	// ClassPopulations varies the per-class fixed populations: each entry
	// is one full per-class count vector, in declaration order (requires
	// base classes). Each cell's sweep populations must equal the vector's
	// sum — cell validation enforces it.
	ClassPopulations [][]int `json:"class_populations,omitempty"`
	// Solvers varies the solver selection per cell.
	Solvers [][]SolverKind `json:"solvers,omitempty"`
	// Replicas varies the per-population replica count (requires a base
	// workload).
	Replicas []int `json:"replicas,omitempty"`
	// Seeds varies the simulation root seed (requires a base workload).
	Seeds []int64 `json:"seeds,omitempty"`
	// Populations varies the population sweep; each entry is one cell's
	// full (warm-started) sweep list.
	Populations [][]int `json:"populations,omitempty"`
}

// AxisValue is one resolved axis coordinate of a cell, for labels and
// table rendering ("N" = "50", "db.index_of_dispersion" = "40", ...).
type AxisValue struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// axis is one expansion dimension: a display name, a cardinality, and an
// apply function patching the scenario with value index i.
type axis struct {
	name  string
	size  int
	label func(i int) string
	apply func(sc *Scenario, i int)
}

// axes materializes the grid's non-empty dimensions in declaration
// order. names are the base scenario's resolved tier labels, for
// tier-axis display names.
func (g Grid) axes(names []string) []axis {
	var out []axis
	for _, ta := range g.TierAxes {
		ta := ta
		name := fmt.Sprintf("tier%d.%s", ta.Tier, ta.Param)
		if ta.Tier >= 0 && ta.Tier < len(names) {
			name = names[ta.Tier] + "." + ta.Param
		}
		out = append(out, axis{
			name:  name,
			size:  len(ta.Values),
			label: func(i int) string { return formatFloat(ta.Values[i]) },
			apply: func(sc *Scenario, i int) {
				t := &sc.Tiers[ta.Tier]
				switch ta.Param {
				case TierParamMean:
					t.Mean = ta.Values[i]
				case TierParamI:
					t.IndexOfDispersion = ta.Values[i]
				case TierParamP95:
					t.P95 = ta.Values[i]
				}
			},
		})
	}
	if len(g.ThinkTimes) > 0 {
		out = append(out, axis{
			name:  "Z",
			size:  len(g.ThinkTimes),
			label: func(i int) string { return formatFloat(g.ThinkTimes[i]) },
			apply: func(sc *Scenario, i int) { sc.ThinkTime = g.ThinkTimes[i] },
		})
	}
	if len(g.Mixes) > 0 {
		out = append(out, axis{
			name:  "mix",
			size:  len(g.Mixes),
			label: func(i int) string { return g.Mixes[i] },
			apply: func(sc *Scenario, i int) { sc.Workload.Mix = g.Mixes[i] },
		})
	}
	if len(g.ClassWeights) > 0 {
		out = append(out, axis{
			name:  "class_mix",
			size:  len(g.ClassWeights),
			label: func(i int) string { return formatFloats(g.ClassWeights[i]) },
			apply: func(sc *Scenario, i int) {
				for c := range sc.Classes {
					sc.Classes[c].Weight = g.ClassWeights[i][c]
					sc.Classes[c].Population = 0
				}
			},
		})
	}
	if len(g.ClassPopulations) > 0 {
		out = append(out, axis{
			name:  "class_N",
			size:  len(g.ClassPopulations),
			label: func(i int) string { return formatInts(g.ClassPopulations[i]) },
			apply: func(sc *Scenario, i int) {
				for c := range sc.Classes {
					sc.Classes[c].Population = g.ClassPopulations[i][c]
					sc.Classes[c].Weight = 0
				}
			},
		})
	}
	if len(g.Solvers) > 0 {
		out = append(out, axis{
			name: "solvers",
			size: len(g.Solvers),
			label: func(i int) string {
				parts := make([]string, len(g.Solvers[i]))
				for j, k := range g.Solvers[i] {
					parts[j] = string(k)
				}
				return strings.Join(parts, "+")
			},
			apply: func(sc *Scenario, i int) {
				sc.Solvers = append([]SolverKind(nil), g.Solvers[i]...)
			},
		})
	}
	if len(g.Replicas) > 0 {
		out = append(out, axis{
			name:  "R",
			size:  len(g.Replicas),
			label: func(i int) string { return strconv.Itoa(g.Replicas[i]) },
			apply: func(sc *Scenario, i int) { sc.Workload.Replicas = g.Replicas[i] },
		})
	}
	if len(g.Seeds) > 0 {
		out = append(out, axis{
			name:  "seed",
			size:  len(g.Seeds),
			label: func(i int) string { return strconv.FormatInt(g.Seeds[i], 10) },
			apply: func(sc *Scenario, i int) { sc.Workload.Seed = g.Seeds[i] },
		})
	}
	if len(g.Populations) > 0 {
		out = append(out, axis{
			name:  "N",
			size:  len(g.Populations),
			label: func(i int) string { return formatInts(g.Populations[i]) },
			apply: func(sc *Scenario, i int) {
				sc.Populations = append([]int(nil), g.Populations[i]...)
			},
		})
	}
	return out
}

// validate checks the grid against its base scenario.
func (g Grid) validate(base Scenario) error {
	if g.Cells() > maxSuiteCells {
		return fmt.Errorf("core: grid expands to more than %d cells", maxSuiteCells)
	}
	for i, ta := range g.TierAxes {
		if ta.Tier < 0 || ta.Tier >= len(base.Tiers) {
			return fmt.Errorf("core: grid tier axis %d: tier %d out of range (base has %d tiers)", i, ta.Tier, len(base.Tiers))
		}
		if base.Tiers[ta.Tier].Samples != nil {
			return fmt.Errorf("core: grid tier axis %d: tier %d is sample-measured; only explicit tiers can be varied", i, ta.Tier)
		}
		switch ta.Param {
		case TierParamMean, TierParamI, TierParamP95:
		default:
			return fmt.Errorf("core: grid tier axis %d: unknown param %q (want %s, %s or %s)",
				i, ta.Param, TierParamMean, TierParamI, TierParamP95)
		}
		if len(ta.Values) == 0 {
			return fmt.Errorf("core: grid tier axis %d: no values", i)
		}
	}
	needsWorkload := len(g.Mixes) > 0 || len(g.Replicas) > 0 || len(g.Seeds) > 0
	if needsWorkload && base.Workload == nil {
		return errors.New("core: grid varies the workload (mixes/replicas/seeds) but the base scenario declares none")
	}
	needsClasses := len(g.ClassWeights) > 0 || len(g.ClassPopulations) > 0
	if needsClasses && len(base.Classes) == 0 {
		return errors.New("core: grid varies classes (class_weights/class_populations) but the base scenario declares none")
	}
	for i, ws := range g.ClassWeights {
		if len(ws) != len(base.Classes) {
			return fmt.Errorf("core: grid class weights entry %d has %d weights for %d classes", i, len(ws), len(base.Classes))
		}
		for c, w := range ws {
			if w <= 0 {
				// Zero would be silently replaced by the default weight 1.
				return fmt.Errorf("core: grid class weights entry %d: class %d weight %v must be > 0", i, c, w)
			}
		}
	}
	for i, ns := range g.ClassPopulations {
		if len(ns) != len(base.Classes) {
			return fmt.Errorf("core: grid class populations entry %d has %d counts for %d classes", i, len(ns), len(base.Classes))
		}
		for c, n := range ns {
			if n < 1 {
				return fmt.Errorf("core: grid class populations entry %d: class %d count %d must be >= 1", i, c, n)
			}
		}
	}
	// Axis values that WithDefaults would silently replace must be
	// rejected here: a cell labeled R=0 that actually runs the default
	// replica count would lie about what executed.
	for i, mix := range g.Mixes {
		if mix == "" {
			return fmt.Errorf("core: grid mixes entry %d is empty", i)
		}
	}
	for i, r := range g.Replicas {
		if r < 1 {
			return fmt.Errorf("core: grid replicas entry %d (%d) must be >= 1", i, r)
		}
	}
	for i, ks := range g.Solvers {
		if len(ks) == 0 {
			return fmt.Errorf("core: grid solvers entry %d is empty", i)
		}
	}
	for i, ns := range g.Populations {
		if len(ns) == 0 {
			return fmt.Errorf("core: grid populations entry %d is empty", i)
		}
	}
	return nil
}

// maxSuiteCells caps the cells one suite expands to. Expansion builds,
// validates and hashes every cell before any runs, so without a cap a
// body of about a kilobyte can ask for millions of cells.
const maxSuiteCells = 65536

// Cells returns the grid's cell count: the product of all non-empty axis
// cardinalities (1 for an empty grid). A grid with more than
// maxSuiteCells cells counts as maxSuiteCells+1, so the product never
// overflows.
func (g Grid) Cells() int {
	n := 1
	for _, ax := range g.axes(nil) {
		if ax.size > 0 && n > maxSuiteCells/ax.size {
			return maxSuiteCells + 1
		}
		n *= ax.size
	}
	return n
}

// formatFloat renders an axis value compactly ("0.5", "40", "1e-08").
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatFloats renders a class weight vector ("3/1").
func formatFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = formatFloat(v)
	}
	return strings.Join(parts, "/")
}

// formatInts renders a population list ("50" or "25,50,100").
func formatInts(ns []int) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}
