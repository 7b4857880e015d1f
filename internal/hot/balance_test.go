package hot

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/vec"
)

// skewedCloud builds a workload with strong spatial work imbalance:
// 85% of the particles packed into one corner (high mutual interaction
// counts), the rest spread out.
func skewedCloud(n int, seed int64) *particle.System {
	sys := particle.RandomVortexBlob(n, 0.2, seed)
	dense := int(float64(n) * 0.85)
	for i := 0; i < dense; i++ {
		p := &sys.Particles[i]
		p.Pos = vec.V3(0.05*p.Pos.X, 0.05*p.Pos.Y, 0.05*p.Pos.Z)
	}
	return sys
}

// imbalanceAfter runs `evals` force evaluations and returns the final
// work imbalance reported by rank 0.
func imbalanceAfter(t *testing.T, weighted bool, evals int) float64 {
	t.Helper()
	full := skewedCloud(1200, 51)
	cfg := defaultCfg(0.4)
	cfg.Balance = weighted
	const p = 4
	var imb float64
	err := mpi.Run(p, func(c *mpi.Comm) error {
		local := BlockPartition(full, c.Rank(), p)
		s := New(c, cfg)
		lv := make([]vec.Vec3, local.N())
		ls := make([]vec.Vec3, local.N())
		for e := 0; e < evals; e++ {
			s.Eval(local, lv, ls)
		}
		if c.Rank() == 0 {
			imb = s.Last.WorkImbalance
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return imb
}

func TestBalanceReducesImbalance(t *testing.T) {
	unweighted := imbalanceAfter(t, false, 2)
	weighted := imbalanceAfter(t, true, 2)
	if unweighted < 1.1 {
		t.Skipf("workload not imbalanced enough to test (%.2f)", unweighted)
	}
	if weighted >= unweighted {
		t.Fatalf("weighted balancing did not help: %.3f (weighted) vs %.3f (uniform)",
			weighted, unweighted)
	}
}

func TestBalancePreservesResults(t *testing.T) {
	// Balancing only moves ownership; the forces must be unchanged.
	full := skewedCloud(400, 53)
	cfgU := defaultCfg(0)
	cfgW := defaultCfg(0)
	cfgW.Balance = true
	velU, strU, _ := runEval(t, full, 3, cfgU)
	velW, strW, _ := runEval(t, full, 3, cfgW)
	for i := range velU {
		if velU[i].Sub(velW[i]).Norm() > 1e-11*(1+velU[i].Norm()) {
			t.Fatalf("vel[%d] differs under balancing", i)
		}
		if strU[i].Sub(strW[i]).Norm() > 1e-11*(1+strU[i].Norm()) {
			t.Fatalf("stretch[%d] differs under balancing", i)
		}
	}
}

func TestWorkImbalanceReported(t *testing.T) {
	full := particle.RandomVortexBlob(300, 0.2, 57)
	_, _, st := runEval(t, full, 4, defaultCfg(0.5))
	if st.WorkImbalance < 1 {
		t.Fatalf("imbalance %v < 1", st.WorkImbalance)
	}
}

func TestAllFeaturesCombined(t *testing.T) {
	// Hybrid threads + weighted balancing + virtual clocks + vortex
	// discipline in one run, repeated to exercise the weight feedback.
	full := skewedCloud(600, 59)
	model := machine.BlueGeneP()
	cfg := defaultCfg(0.4)
	cfg.Threads = 3
	cfg.Balance = true
	cfg.Model = &model
	var last Stats
	vt, err := mpi.RunTimed(4, mpi.BlueGeneP(), func(c *mpi.Comm) error {
		local := BlockPartition(full, c.Rank(), 4)
		s := New(c, cfg)
		lv := make([]vec.Vec3, local.N())
		ls := make([]vec.Vec3, local.N())
		for e := 0; e < 2; e++ {
			s.Eval(local, lv, ls)
		}
		if c.Rank() == 0 {
			last = s.Last
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if vt <= 0 || last.TTraverse <= 0 || last.Interactions == 0 {
		t.Fatalf("combined run stats incomplete: vt=%g %+v", vt, last)
	}
}
