package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	burst "repro"
)

// Tolerances of the correctness gate. Little's law for the whole network
// holds to rounding in every column, because each solver derives R from
// X. The other laws hold only as well as a solver solves: pop is
// relative to the population N (Little's law at the think station,
// population conservation) and util absolute (U_k against X·D_k). They
// are set from the largest deviations the program shows on the
// benchmark's inputs, with margin:
//
//   - exact CTMC columns are solved to a 1e-8 residual, which on these
//     nearly decomposable chains leaves utilizations off X·D by up to
//     4.3e-4 and X up to 3e-6 above its upper bound;
//   - MVA is a closed-form recursion, exact to rounding;
//   - the decomp tier couples its station chains only through a fixed
//     point on demands, so its per-station utilizations and think-station
//     population disagree with its own X by up to 0.10 and 0.14 of N.
const (
	tolLittle = 1e-9
	// tolMVA is the utilization-law tolerance of MVA columns.
	tolMVA = 1e-9
	// tolBounds is the relative slack allowed outside NetworkBounds.
	tolBounds = 1e-4
)

var (
	tolExact  = lawTol{pop: 2e-3, util: 2e-3}
	tolDecomp = lawTol{pop: 0.25, util: 0.25}
)

type lawTol struct{ pop, util float64 }

// checkReport rejects a report whose exact solve gave up (a degraded
// report, or a requested column missing at some population), and applies
// the queueing laws a solution cannot violate to every map, decomp and
// mva column:
//
//   - Little's law for the whole network, N = X·(R+Z);
//   - Little's law at the think station and population conservation,
//     X·Z + sum of queue lengths = N (exact and decomp columns);
//   - the utilization law U_k = X·D_k <= 1 at every tier;
//   - exact and decomp X inside the row's NetworkBounds, when present;
//
// and, on cross-validation points, that the recorded MAP error is the
// relative gap between the MAP and simulated throughputs. It returns one
// message per violation.
func checkReport(rep *burst.Report) []string {
	var bad []string
	if rep.Degraded {
		bad = append(bad, fmt.Sprintf("%s: exact MAP solve degraded: %s", rep.Scenario.Name, rep.FallbackReason))
	}
	z := rep.Scenario.ThinkTime
	demands := make([]float64, len(rep.Tiers))
	for k, t := range rep.Tiers {
		demands[k] = t.Demand
	}
	for _, pr := range rep.Results {
		n := float64(pr.Population)
		where := func(col string) string { return fmt.Sprintf("%s: %s at N=%d", rep.Scenario.Name, col, pr.Population) }
		for _, col := range missingColumns(rep.Scenario, &pr) {
			bad = append(bad, where(col)+": requested column missing")
		}
		if m := pr.MAP; m != nil {
			bad = append(bad, checkNetwork(where("map"), m, n, z, demands, tolExact)...)
			bad = append(bad, checkBounds(where("map"), m.Throughput, pr.Bounds)...)
		}
		if m := pr.Decomp; m != nil {
			bad = append(bad, checkNetwork(where("decomp"), m, n, z, demands, tolDecomp)...)
			bad = append(bad, checkBounds(where("decomp"), m.Throughput, pr.Bounds)...)
		}
		if m := pr.MVA; m != nil {
			bad = append(bad, checkLittle(where("mva"), m.Throughput, m.ResponseTime, n, z)...)
			bad = append(bad, checkUtilization(where("mva"), m.Throughput, m.Utilizations, demands, tolMVA)...)
		}
		if v := pr.Validation; v != nil {
			switch {
			case v.Degraded:
				bad = append(bad, where("validation")+": exact MAP solve degraded: "+v.FallbackReason)
			case !(v.SimThroughput.Mean > 0) || !(v.MAPThroughput > 0):
				bad = append(bad, fmt.Sprintf("%s: non-positive throughput (sim %v, map %v)", where("validation"), v.SimThroughput.Mean, v.MAPThroughput))
			default:
				want := (v.MAPThroughput - v.SimThroughput.Mean) / v.SimThroughput.Mean
				if math.Abs(v.MAPError-want) > 1e-12 {
					bad = append(bad, fmt.Sprintf("%s: map_error %v, throughputs give %v", where("validation"), v.MAPError, want))
				}
			}
		}
	}
	return bad
}

// missingColumns lists the solvers a scenario asked for whose column one
// population's results lack, as when an exact solve falls back to decomp
// or bounds and leaves its map column out.
func missingColumns(sc burst.Scenario, pr *burst.PopulationReport) []string {
	var out []string
	for _, c := range []struct {
		kind    burst.SolverKind
		present bool
	}{
		{burst.SolverMAP, pr.MAP != nil},
		{burst.SolverDecomp, pr.Decomp != nil},
		{burst.SolverMVA, pr.MVA != nil},
		{burst.SolverBounds, pr.Bounds != nil},
		{burst.SolverCrossValidate, pr.Sim != nil && pr.Validation != nil},
	} {
		if sc.Wants(c.kind) && !c.present {
			out = append(out, string(c.kind))
		}
	}
	return out
}

// knownNonConvergent names the cells whose solver stops short of its
// tolerance on every seed: K=6, db I=400, app I=120 of wide-decomp, whose
// decomp fixed point at N=200 ends at residual ≈2.1e-9 after 200
// iterations (tol 1e-9). Under on_error continue that is a measured
// outcome of the model, the baseline a convergence fix must move, not a
// failed operation. Any other failed cell is one.
var knownNonConvergent = map[string]bool{
	"wide-decomp-k6 db.index_of_dispersion=400 app.index_of_dispersion=120": true,
}

// isKnownNonConvergence reports whether a row is the failure of a cell in
// knownNonConvergent, for the known reason.
func isKnownNonConvergence(row burst.SuiteRow) bool {
	f := row.Error
	return row.Status == burst.CellStatusFailed && knownNonConvergent[row.Name] &&
		f != nil && f.Stage == burst.StageSolve && strings.Contains(f.Message, "did not converge")
}

func checkNetwork(where string, m *burst.MAPNetworkMetricsN, n, z float64, demands []float64, tol lawTol) []string {
	bad := checkLittle(where, m.Throughput, m.ResponseTime, n, z)
	if d := math.Abs(m.Thinking - m.Throughput*z); !(d <= tol.pop*n) {
		bad = append(bad, fmt.Sprintf("%s: thinking %v, X·Z %v (off by %.2g of N)", where, m.Thinking, m.Throughput*z, d/n))
	}
	total := m.Thinking
	for _, q := range m.QueueLens {
		total += q
	}
	if d := math.Abs(total - n); !(d <= tol.pop*n) {
		bad = append(bad, fmt.Sprintf("%s: queue lengths + thinking %v, N %v (off by %.2g of N)", where, total, n, d/n))
	}
	return append(bad, checkUtilization(where, m.Throughput, m.Utils, demands, tol.util)...)
}

func checkLittle(where string, x, r, n, z float64) []string {
	if !(x > 0) || math.IsInf(x, 0) {
		return []string{fmt.Sprintf("%s: throughput %v", where, x)}
	}
	if d := math.Abs(x*(r+z) - n); !(d <= tolLittle*n) {
		return []string{fmt.Sprintf("%s: Little's law X·(R+Z) = %v, N = %v (off by %.2g of N)", where, x*(r+z), n, d/n)}
	}
	return nil
}

func checkUtilization(where string, x float64, utils, demands []float64, tol float64) []string {
	if len(utils) != len(demands) {
		return []string{fmt.Sprintf("%s: %d utilizations for %d tiers", where, len(utils), len(demands))}
	}
	var bad []string
	for k, u := range utils {
		if d := math.Abs(u - x*demands[k]); !(d <= tol) || u > 1+tol {
			bad = append(bad, fmt.Sprintf("%s: tier %d U = %v, X·D = %v (off by %.2g)", where, k, u, x*demands[k], d))
		}
	}
	return bad
}

func checkBounds(where string, x float64, b *burst.MAPNetworkBoundsN) []string {
	if b == nil {
		return nil
	}
	if x < b.LowerX*(1-tolBounds) || x > b.UpperX*(1+tolBounds) {
		return []string{fmt.Sprintf("%s: X = %v outside bounds [%v, %v] (%.2g above)", where, x, b.LowerX, b.UpperX, x/b.UpperX-1)}
	}
	return nil
}

// rowsDigest hashes cell rows in the order given: the fingerprint two
// runs of the same inputs must share.
func rowsDigest(rows []burst.SuiteRow) (string, error) {
	h := sha256.New()
	for _, row := range rows {
		data, err := json.Marshal(row)
		if err != nil {
			return "", err
		}
		h.Write(append(data, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
