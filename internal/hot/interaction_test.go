package hot

import (
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/vec"
)

// TestListMatchesRecursiveAcrossRanks: the interaction-list evaluator
// must give bitwise-identical results and identical work counters on
// every rank whether its leaf groups run synchronously (Threads ≤ 1)
// or on the hybrid worker pool with work stealing (Threads = 4, grain
// 1), at any rank count and θ. That includes the fetch count: the set
// of remote cells the group walks open does not depend on which worker
// builds which list.
func TestListMatchesRecursiveAcrossRanks(t *testing.T) {
	checkHybridMatchesSync(t, particle.SphericalVortexSheet(particle.DefaultSheet(500)), false)
}

// TestHybridListStealingDeterminism: with the work-stealing scheduler
// active (Threads > 1) the results must stay bitwise identical to the
// synchronous run, over repeated evaluations — the schedule varies,
// the sums do not.
func TestHybridListStealingDeterminism(t *testing.T) {
	full := particle.SphericalVortexSheet(particle.DefaultSheet(400))
	cfgSync := defaultCfg(0.4)
	velS, strS, _ := runEval(t, full, 2, cfgSync)
	cfgHyb := defaultCfg(0.4)
	cfgHyb.Threads = 4
	cfgHyb.StealGrain = 1
	for rep := 0; rep < 3; rep++ {
		velH, strH, _ := runEval(t, full, 2, cfgHyb)
		for i := range velH {
			if velH[i] != velS[i] || strH[i] != strS[i] {
				t.Fatalf("rep %d: hybrid stealing changed particle %d: %v vs %v", rep, i, velH[i], velS[i])
			}
		}
	}
}

// TestCoulombListMatchesRecursive: the same synchronous-vs-hybrid
// agreement for the Coulomb discipline.
func TestCoulombListMatchesRecursive(t *testing.T) {
	checkHybridMatchesSync(t, particle.HomogeneousCoulomb(300, 5), true)
}

// checkHybridMatchesSync runs full synchronously and on the hybrid
// pool at P ∈ {1, 3, 5} and θ ∈ {0, 0.45} and requires bitwise equal
// results plus equal Interactions, MACAccepts, MACRejects and Fetches
// on every rank.
func checkHybridMatchesSync(t *testing.T, full *particle.System, coulomb bool) {
	t.Helper()
	for _, p := range []int{1, 3, 5} {
		for _, theta := range []float64{0, 0.45} {
			cfgSync := defaultCfg(theta)
			cfgSync.Eps = 0.01
			cfgHyb := cfgSync
			cfgHyb.Threads = 4
			cfgHyb.StealGrain = 1
			outS, stS := evalAllRanks(t, full, p, cfgSync, coulomb)
			outH, stH := evalAllRanks(t, full, p, cfgHyb, coulomb)
			for i := range outS {
				if math.Float64bits(outS[i]) != math.Float64bits(outH[i]) {
					t.Fatalf("p=%d θ=%.2f: particle %d component %d differs: sync %v hybrid %v",
						p, theta, i/6, i%6, outS[i], outH[i])
				}
			}
			for r := range stS {
				s, h := stS[r], stH[r]
				if s.Interactions != h.Interactions || s.MACAccepts != h.MACAccepts ||
					s.MACRejects != h.MACRejects || s.Fetches != h.Fetches {
					t.Fatalf("p=%d θ=%.2f rank %d: counters differ: sync %+v hybrid %+v", p, theta, r, s, h)
				}
			}
		}
	}
}

// evalAllRanks runs one collective evaluation of full on p ranks —
// vortex, or Coulomb when coulomb is set — and returns six outputs per
// particle in the original order (velocity and stretching, or field
// and potential) plus every rank's Stats.
func evalAllRanks(t *testing.T, full *particle.System, p int, cfg Config, coulomb bool) ([]float64, []Stats) {
	t.Helper()
	n := full.N()
	out := make([]float64, 6*n)
	stats := make([]Stats, p)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		local := BlockPartition(full, c.Rank(), p)
		m := local.N()
		a := make([]vec.Vec3, m)
		b := make([]vec.Vec3, m)
		s := New(c, cfg)
		if coulomb {
			pot := make([]float64, m)
			s.Coulomb(local, pot, a)
			for i := range pot {
				b[i].X = pot[i]
			}
		} else {
			s.Eval(local, a, b)
		}
		base := n * c.Rank() / p
		for i := 0; i < m; i++ {
			copy(out[6*(base+i):], []float64{a[i].X, a[i].Y, a[i].Z, b[i].X, b[i].Y, b[i].Z})
		}
		stats[c.Rank()] = s.Last
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}
