package tree

// Property tests for the two-phase interaction-list evaluator: across
// θ ∈ {0, 0.3, 0.6} and all MAC kinds the Solver must agree with the
// per-particle walk (VortexAtNodeMAC / CoulombAtNode on the same tree)
// to ≤1 ulp per component (by construction the agreement is bitwise:
// conservative group classification plus exact fallback reproduces
// the walk's summation order term for term), and its results must not
// depend on the work-stealing schedule.

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

// ulps returns the distance between a and b in units in the last
// place (0 when bitwise equal).
func ulps(a, b float64) uint64 {
	ua, ub := orderedBits(a), orderedBits(b)
	if ua > ub {
		return ua - ub
	}
	return ub - ua
}

// orderedBits maps float64 to uint64 monotonically (lexicographic
// order of the mapped values matches numeric order of the floats).
func orderedBits(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

func maxUlpsVec(a, b []vec.Vec3) uint64 {
	var m uint64
	for i := range a {
		for _, d := range [3]uint64{
			ulps(a[i].X, b[i].X),
			ulps(a[i].Y, b[i].Y),
			ulps(a[i].Z, b[i].Z),
		} {
			if d > m {
				m = d
			}
		}
	}
	return m
}

func TestListMatchesRecursiveVortex(t *testing.T) {
	systems := map[string]*particle.System{
		"blob":  particle.RandomVortexBlob(400, 0.15, 7),
		"sheet": particle.SphericalVortexSheet(particle.DefaultSheet(500)),
	}
	for name, sys := range systems {
		for _, mac := range []MACKind{MACBarnesHut, MACBMax, MACMinDist} {
			for _, theta := range []float64{0, 0.3, 0.6} {
				n := sys.N()
				s := NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
				s.MAC = mac
				s.Workers = 4
				velL := make([]vec.Vec3, n)
				strL := make([]vec.Vec3, n)
				s.Eval(sys, velL, strL)

				// The oracle: one per-particle walk per target on the
				// tree the list evaluator just used.
				tr := s.LastTree
				pw := kernel.Pairwise{Sm: s.Sm, Sigma: sys.Sigma}
				velW := make([]vec.Vec3, n)
				strW := make([]vec.Vec3, n)
				var walkInter int64
				for q := range sys.Particles {
					p := &sys.Particles[q]
					res := tr.VortexAtNodeMAC(mac, tr.Root, p.Pos, theta, q, pw, s.Dipole)
					velW[q] = res.U
					strW[q] = s.Scheme.Stretch(res.Grad, p.Alpha)
					walkInter += res.Interactions
				}
				if d := maxUlpsVec(velL, velW); d > 1 {
					t.Errorf("%s mac=%v θ=%.1f: velocity differs by %d ulp", name, mac, theta, d)
				}
				if d := maxUlpsVec(strL, strW); d > 1 {
					t.Errorf("%s mac=%v θ=%.1f: stretching differs by %d ulp", name, mac, theta, d)
				}
				if li := s.Stats().Interactions; li != walkInter {
					t.Errorf("%s mac=%v θ=%.1f: interaction counts differ: list=%d walk=%d", name, mac, theta, li, walkInter)
				}
			}
		}
	}
}

func TestListMatchesRecursiveCoulomb(t *testing.T) {
	sys := particle.HomogeneousCoulomb(350, 12)
	const eps = 0.01
	for _, theta := range []float64{0, 0.3, 0.6} {
		n := sys.N()
		s := NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
		s.Workers = 4
		potL := make([]float64, n)
		fL := make([]vec.Vec3, n)
		s.Coulomb(sys, eps, potL, fL)

		tr := s.LastTree
		potW := make([]float64, n)
		fW := make([]vec.Vec3, n)
		var walkInter int64
		for q := range sys.Particles {
			res := tr.CoulombAtNode(tr.Root, sys.Particles[q].Pos, theta, eps, q)
			potW[q] = res.Phi
			fW[q] = res.E
			walkInter += res.Interactions
		}
		for i := range potL {
			if d := ulps(potL[i], potW[i]); d > 1 {
				t.Fatalf("θ=%.1f: potential[%d] differs by %d ulp", theta, i, d)
			}
		}
		if d := maxUlpsVec(fL, fW); d > 1 {
			t.Errorf("θ=%.1f: field differs by %d ulp", theta, d)
		}
		if li := s.Stats().Interactions; li != walkInter {
			t.Errorf("θ=%.1f: interaction counts differ: list=%d walk=%d", theta, li, walkInter)
		}
	}
}

func TestWorkStealingScheduleInvariance(t *testing.T) {
	// The assignment of leaf groups to workers is load-driven and
	// nondeterministic; the results must be bitwise identical anyway
	// (and identical across worker counts), because every target's sum
	// is computed independently in a fixed order.
	sys := particle.SphericalVortexSheet(particle.DefaultSheet(600))
	n := sys.N()
	run := func(workers, grain int) ([]vec.Vec3, []vec.Vec3) {
		s := NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.45)
		s.Workers = workers
		s.StealGrain = grain
		vel := make([]vec.Vec3, n)
		str := make([]vec.Vec3, n)
		s.Eval(sys, vel, str)
		return vel, str
	}
	velRef, strRef := run(1, 0)
	for _, cfg := range [][2]int{{2, 0}, {4, 1}, {8, 3}, {4, 0}} {
		for rep := 0; rep < 3; rep++ {
			vel, str := run(cfg[0], cfg[1])
			for i := range vel {
				if vel[i] != velRef[i] || str[i] != strRef[i] {
					t.Fatalf("workers=%d grain=%d rep=%d: particle %d differs from single-worker run", cfg[0], cfg[1], rep, i)
				}
			}
		}
	}
}

func TestClassifyGroupConservative(t *testing.T) {
	// Random cells vs random group boxes: a group Accept must imply a
	// per-particle accept for every corner and the center of the group
	// box; a group Open must imply a per-particle reject for the same
	// probe points (the probes are inside the box, so any violation is
	// a soundness bug; non-probe points are covered by the interval
	// bounds being monotone).
	sys := particle.RandomVortexBlob(512, 0.2, 3)
	tr := Build(sys, BuildConfig{LeafCap: 8, Discipline: Vortex})
	groups := tr.LeafGroups()
	for _, mac := range []MACKind{MACBarnesHut, MACBMax, MACMinDist} {
		for _, theta := range []float64{0.3, 0.6, 1.0} {
			theta2 := theta * theta
			for _, g := range groups {
				gn := &tr.Nodes[g]
				gc, ge := tr.GroupBounds(gn.First, gn.Count)
				probes := []vec.Vec3{gc}
				for dx := -1.0; dx <= 1; dx += 2 {
					for dy := -1.0; dy <= 1; dy += 2 {
						for dz := -1.0; dz <= 1; dz += 2 {
							probes = append(probes, vec.V3(gc.X+dx*ge.X, gc.Y+dy*ge.Y, gc.Z+dz*ge.Z))
						}
					}
				}
				for ni := range tr.Nodes {
					nd := &tr.Nodes[ni]
					if nd.Leaf || nd.Count == 0 {
						continue
					}
					cls := ClassifyGroup(mac, theta2, nd, gc, ge)
					if cls == GroupAmbiguous {
						continue
					}
					for _, x := range probes {
						r2 := x.Sub(nd.Centroid).Norm2()
						acc := mac.acceptsSq(theta2, nd, x, r2)
						if cls == GroupAccept && !acc {
							t.Fatalf("mac=%v θ=%.1f: group accept but per-particle reject", mac, theta)
						}
						if cls == GroupOpen && acc {
							t.Fatalf("mac=%v θ=%.1f: group open but per-particle accept", mac, theta)
						}
					}
				}
			}
		}
	}
}
