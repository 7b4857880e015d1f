package tree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

// maxUlpVec is the per-component ulp distance between two vectors,
// built on the ulps helper of interaction_test.go.
func maxUlpVec(a, b vec.Vec3) uint64 {
	m := ulps(a.X, b.X)
	if d := ulps(a.Y, b.Y); d > m {
		m = d
	}
	if d := ulps(a.Z, b.Z); d > m {
		m = d
	}
	return m
}

// layoutTrees builds sys twice — once with AoS records only, once with
// SoA lanes — plus the interaction lists of the Solver's default target
// groups, built on the AoS tree. The layout does not touch the node
// geometry, so the same lists drive both trees.
func layoutTrees(t *testing.T, sys *particle.System, disc Discipline, theta float64) (aos, soa *Tree, groups []int32, lists []InteractionList) {
	t.Helper()
	cfg := BuildConfig{LeafCap: 8, Discipline: disc}
	aos = Build(sys, cfg)
	cfg.Layout = particle.LayoutSoA
	soa = Build(sys, cfg)
	if aos.Lanes != nil || soa.Lanes == nil {
		t.Fatal("layout did not select the storage: AoS tree must have no lanes, SoA tree must")
	}
	if len(aos.Nodes) != len(soa.Nodes) {
		t.Fatalf("node count depends on the layout: aos %d, soa %d", len(aos.Nodes), len(soa.Nodes))
	}
	groups = aos.Groups(8)
	lists = make([]InteractionList, len(groups))
	for gi, g := range groups {
		nd := &aos.Nodes[g]
		gc, ge := aos.GroupBounds(nd.First, nd.Count)
		aos.AppendInteractionList(&lists[gi], MACBarnesHut, theta, int32(aos.Root), gc, ge)
	}
	return aos, soa, groups, lists
}

// vortexOn evaluates every particle on tr group by group, through the
// group's interaction list or (walk) by the per-particle walk from the
// root, and returns velocities and stretching terms by original index.
func vortexOn(tr *Tree, sys *particle.System, sm kernel.Smoothing, theta float64, groups []int32, lists []InteractionList, walk bool) (vel, str []vec.Vec3) {
	vel = make([]vec.Vec3, sys.N())
	str = make([]vec.Vec3, sys.N())
	pw := kernel.Pairwise{Sm: sm, Sigma: sys.Sigma}
	for gi, g := range groups {
		nd := &tr.Nodes[g]
		for i := nd.First; i < nd.First+nd.Count; i++ {
			q := tr.Order[i]
			p := &sys.Particles[q]
			var res VortexResult
			if walk {
				res = tr.VortexAtNodeMAC(MACBarnesHut, tr.Root, p.Pos, theta, q, pw, true)
			} else {
				res = tr.EvalVortexList(&lists[gi], MACBarnesHut, theta, p.Pos, q, pw, true)
			}
			vel[q] = res.U
			str[q] = kernel.Transpose.Stretch(res.Grad, p.Alpha)
		}
	}
	return vel, str
}

// evalModes names the two evaluation legs of vortexOn/coulombOn.
var evalModes = []struct {
	name string
	walk bool
}{{"list", false}, {"walk", true}}

var layoutKernels = []string{
	"algebraic2", "algebraic4", "algebraic6",
	"winckelmans-leonard", "gaussian", "singular",
}

// TestLayoutSweepEquivalence is the SoA↔AoS property-sweep matrix of
// the equivalence contract: θ ∈ {0, 0.3, 0.6}, every smoothing kernel,
// list and per-particle-walk evaluation, clustered and uniform
// systems. Per-component deviation must stay within 1 ulp (the
// evaluation order is preserved, so on non-FMA builds the paths are in
// fact bitwise equal), and the circulation budget Σ dα/dt — what an
// integrator adds to Σα — must agree exactly: switching the memory
// layout cannot change whether total circulation is conserved.
func TestLayoutSweepEquivalence(t *testing.T) {
	systems := map[string]*particle.System{
		"clustered": particle.ClusteredVortexSheet(240),
		"uniform":   particle.RandomVortexBlob(240, 0.08, 7),
	}
	for sysName, sys := range systems {
		for _, kn := range layoutKernels {
			sm := kernel.ByName(kn)
			for _, theta := range []float64{0, 0.3, 0.6} {
				aos, soa, groups, lists := layoutTrees(t, sys, Vortex, theta)
				for _, mode := range evalModes {
					velA, strA := vortexOn(aos, sys, sm, theta, groups, lists, mode.walk)
					velS, strS := vortexOn(soa, sys, sm, theta, groups, lists, mode.walk)
					var sumA, sumS vec.Vec3
					for i := range velA {
						if d := maxUlpVec(velA[i], velS[i]); d > 1 {
							t.Fatalf("%s/%s θ=%g %s: vel[%d] differs by %d ulp (aos %v, soa %v)",
								sysName, kn, theta, mode.name, i, d, velA[i], velS[i])
						}
						if d := maxUlpVec(strA[i], strS[i]); d > 1 {
							t.Fatalf("%s/%s θ=%g %s: stretch[%d] differs by %d ulp",
								sysName, kn, theta, mode.name, i, d)
						}
						sumA = sumA.Add(strA[i])
						sumS = sumS.Add(strS[i])
					}
					if sumA != sumS {
						t.Fatalf("%s/%s θ=%g %s: Σ dα/dt differs across layouts: aos %v, soa %v",
							sysName, kn, theta, mode.name, sumA, sumS)
					}
				}
			}
		}
	}
}

// TestLayoutBitwiseDefaultConfig pins the stronger half of the
// contract on the configuration the façade ships (sixth-order
// algebraic kernel, θ = 0.3, list evaluation): with the evaluation
// order preserved everywhere, SoA results are bitwise equal to AoS —
// any regression to "merely close" means an accidental reassociation
// crept into the batched path.
func TestLayoutBitwiseDefaultConfig(t *testing.T) {
	sys := particle.ClusteredVortexSheet(500)
	sm := kernel.ByName("algebraic6")
	aos, soa, groups, lists := layoutTrees(t, sys, Vortex, 0.3)
	velA, strA := vortexOn(aos, sys, sm, 0.3, groups, lists, false)
	velS, strS := vortexOn(soa, sys, sm, 0.3, groups, lists, false)
	for i := range velA {
		if velA[i] != velS[i] || strA[i] != strS[i] {
			t.Fatalf("particle %d: SoA not bitwise equal to AoS (vel %v vs %v, stretch %v vs %v)",
				i, velA[i], velS[i], strA[i], strS[i])
		}
	}
}

// TestLayoutCoulombEquivalence covers the Coulomb discipline of the
// sweep: potentials and fields within 1 ulp across layouts.
func TestLayoutCoulombEquivalence(t *testing.T) {
	sys := particle.HomogeneousCoulomb(300, 11)
	const eps = 1e-3
	for _, theta := range []float64{0, 0.3, 0.6} {
		aos, soa, groups, lists := layoutTrees(t, sys, Coulomb, theta)
		for _, mode := range evalModes {
			potA, fA := coulombOn(aos, sys, eps, theta, groups, lists, mode.walk)
			potS, fS := coulombOn(soa, sys, eps, theta, groups, lists, mode.walk)
			for i := range potA {
				if d := ulps(potA[i], potS[i]); d > 1 {
					t.Fatalf("θ=%g %s: pot[%d] differs by %d ulp", theta, mode.name, i, d)
				}
				if d := maxUlpVec(fA[i], fS[i]); d > 1 {
					t.Fatalf("θ=%g %s: field[%d] differs by %d ulp", theta, mode.name, i, d)
				}
			}
		}
	}
}

// coulombOn is vortexOn for the Coulomb discipline.
func coulombOn(tr *Tree, sys *particle.System, eps, theta float64, groups []int32, lists []InteractionList, walk bool) (pot []float64, f []vec.Vec3) {
	pot = make([]float64, sys.N())
	f = make([]vec.Vec3, sys.N())
	for gi, g := range groups {
		nd := &tr.Nodes[g]
		for i := nd.First; i < nd.First+nd.Count; i++ {
			q := tr.Order[i]
			x := sys.Particles[q].Pos
			var res CoulombResult
			if walk {
				res = tr.CoulombAtNode(tr.Root, x, theta, eps, q)
			} else {
				res = tr.EvalCoulombList(&lists[gi], theta, eps, x, q)
			}
			pot[q] = res.Phi
			f[q] = res.E
		}
	}
	return pot, f
}

// TestMortonPermutationBijection verifies that the radix sort produces
// a true permutation with ascending keys and that sortedPos is its
// exact inverse — sort→evaluate→unsort writes every result to exactly
// one original index.
func TestMortonPermutationBijection(t *testing.T) {
	sys := particle.ClusteredVortexSheet(777)
	tr := Build(sys, BuildConfig{LeafCap: 8, Discipline: Vortex, Layout: particle.LayoutSoA})
	n := sys.N()
	seen := make([]bool, n)
	for _, idx := range tr.Order {
		if idx < 0 || idx >= n || seen[idx] {
			t.Fatalf("Order is not a bijection: index %d", idx)
		}
		seen[idx] = true
	}
	for i, idx := range tr.Order {
		if tr.SortedPos(idx) != i {
			t.Fatalf("sortedPos[%d]=%d, want %d", idx, tr.SortedPos(idx), i)
		}
	}
	if err := tr.CheckOrdering(); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckLanes(); err != nil {
		t.Fatal(err)
	}
}

// TestMortonSortStableUnderDuplicateKeys builds a system of coincident
// particles (identical Morton keys) and verifies ties fall in original
// index order — the tie-break contract of the comparator the radix
// sort replaced.
func TestMortonSortStableUnderDuplicateKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sites [10]vec.Vec3
	for i := range sites {
		sites[i] = vec.V3(rng.Float64(), rng.Float64(), rng.Float64())
	}
	sys := &particle.System{Sigma: 0.1}
	for i := 0; i < 100; i++ {
		sys.Particles = append(sys.Particles, particle.Particle{
			Pos:   sites[i%len(sites)],
			Alpha: vec.V3(1, 0, 0),
		})
	}
	tr := Build(sys, BuildConfig{LeafCap: 4, Discipline: Vortex, Layout: particle.LayoutSoA})
	for i := 1; i < len(tr.Keys); i++ {
		if tr.Keys[i-1] == tr.Keys[i] && tr.Order[i-1] >= tr.Order[i] {
			t.Fatalf("duplicate key at %d: order %d before %d (stability violated)",
				i, tr.Order[i-1], tr.Order[i])
		}
	}
	if err := tr.CheckLanes(); err != nil {
		t.Fatal(err)
	}
}

// TestRadixSortMatchesReferenceComparator drives radixSortKeyOrder
// directly against the sort.Slice comparator it replaced, over random
// key sets with heavy duplication.
func TestRadixSortMatchesReferenceComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		keys := make([]uint64, n)
		for i := range keys {
			switch rng.Intn(3) {
			case 0:
				keys[i] = uint64(rng.Intn(4)) // heavy duplication
			case 1:
				keys[i] = rng.Uint64() >> 1 // full 63-bit range
			default:
				keys[i] = rng.Uint64() >> 40 // low bits only
			}
		}
		keyOf := append([]uint64(nil), keys...)
		refOrder := make([]int, n)
		for i := range refOrder {
			refOrder[i] = i
		}
		sort.Slice(refOrder, func(a, b int) bool {
			ka, kb := keyOf[refOrder[a]], keyOf[refOrder[b]]
			if ka != kb {
				return ka < kb
			}
			return refOrder[a] < refOrder[b]
		})
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		radixSortKeyOrder(keys, order, make([]uint64, n), make([]int, n))
		for i := 0; i < n; i++ {
			if order[i] != refOrder[i] || keys[i] != keyOf[refOrder[i]] {
				t.Fatalf("trial %d: radix order diverges from reference at %d", trial, i)
			}
		}
	}
}

// TestLayoutInputOrderInvariance shuffles the input particle slice and
// verifies the SoA evaluator returns bitwise-identical results per
// particle identity — the determinism regression for the new layout.
// (Positions are distinct, so the Morton order, and with it every
// summation order, is independent of the input permutation.)
func TestLayoutInputOrderInvariance(t *testing.T) {
	base := particle.ClusteredVortexSheet(400)
	n := base.N()
	perm := rand.New(rand.NewSource(21)).Perm(n)
	shuf := &particle.System{Sigma: base.Sigma, Particles: make([]particle.Particle, n)}
	for i, p := range perm {
		shuf.Particles[i] = base.Particles[p]
	}
	sm := kernel.ByName("algebraic6")
	velB := make([]vec.Vec3, n)
	strB := make([]vec.Vec3, n)
	velS := make([]vec.Vec3, n)
	strS := make([]vec.Vec3, n)
	s := NewSolver(sm, kernel.Transpose, 0.3)
	s.Workers = 3
	s.Eval(base, velB, strB)
	s.Eval(shuf, velS, strS)
	for i, p := range perm {
		if velS[i] != velB[p] || strS[i] != strB[p] {
			t.Fatalf("particle identity %d: result depends on input ordering", p)
		}
	}
}

// TestSortGatherScatterRoundTrip proves gather∘scatter is the identity
// on the gathered components: sort→gather→scatter reproduces the
// original system bitwise.
func TestSortGatherScatterRoundTrip(t *testing.T) {
	sys := particle.ClusteredVortexSheet(333)
	tr := Build(sys, BuildConfig{LeafCap: 8, Discipline: Vortex, Layout: particle.LayoutSoA})
	dst := sys.Clone()
	for i := range dst.Particles {
		dst.Particles[i].Pos = vec.V3(math.NaN(), math.NaN(), math.NaN())
		dst.Particles[i].Alpha = vec.V3(math.NaN(), math.NaN(), math.NaN())
	}
	tr.Lanes.ScatterVortex(dst, tr.Order)
	for i := range sys.Particles {
		if dst.Particles[i].Pos != sys.Particles[i].Pos ||
			dst.Particles[i].Alpha != sys.Particles[i].Alpha {
			t.Fatalf("round trip altered particle %d", i)
		}
	}
}

// TestSoAEvalZeroAllocSteadyState pins the arena contract: after the
// first evaluation has grown every buffer, a single-worker SoA Eval
// performs zero heap allocations.
// raceEnabled is set by the tagged init in race_enabled_test.go when
// the test binary is built with the race detector.
var raceEnabled bool

func TestSoAEvalZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc contract is asserted in the non-race lane")
	}
	sys := particle.ClusteredVortexSheet(1500)
	n := sys.N()
	s := NewSolver(kernel.ByName("algebraic6"), kernel.Transpose, 0.3)
	s.Workers = 1
	vel := make([]vec.Vec3, n)
	str := make([]vec.Vec3, n)
	s.Eval(sys, vel, str)
	s.Eval(sys, vel, str)
	var best float64 = math.Inf(1)
	for attempt := 0; attempt < 3; attempt++ {
		got := testing.AllocsPerRun(3, func() { s.Eval(sys, vel, str) })
		if got == 0 {
			return
		}
		best = math.Min(best, got)
	}
	t.Fatalf("steady-state SoA Eval allocates %.1f times per run, want 0", best)
}

// TestArenaRebuildReuse verifies BuildInto over one arena returns a
// consistent tree across rebuilds (the guard ladder path) and that a
// rebuild fully overwrites prior state.
func TestArenaRebuildReuse(t *testing.T) {
	sys := particle.ClusteredVortexSheet(256)
	var a Arena
	t1 := BuildInto(&a, sys, BuildConfig{LeafCap: 8, Discipline: Vortex, Layout: particle.LayoutSoA})
	nodes1 := len(t1.Nodes)
	// Corrupt everything the arena owns, then rebuild.
	for i := range t1.Nodes {
		t1.Nodes[i].CircSum = vec.V3(math.NaN(), 0, 0)
	}
	t1.Lanes.X[0] = math.NaN()
	t2 := BuildInto(&a, sys, BuildConfig{LeafCap: 8, Discipline: Vortex, Layout: particle.LayoutSoA})
	if t2 != t1 {
		t.Fatal("BuildInto must reuse the arena's tree")
	}
	if len(t2.Nodes) != nodes1 {
		t.Fatalf("rebuild changed node count: %d vs %d", len(t2.Nodes), nodes1)
	}
	if err := t2.CheckMoments(); err != nil {
		t.Fatalf("rebuild left corrupted moments: %v", err)
	}
	if err := t2.CheckLanes(); err != nil {
		t.Fatalf("rebuild left corrupted lanes: %v", err)
	}
}
