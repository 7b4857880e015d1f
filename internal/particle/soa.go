package particle

// Layout selects the particle storage the force evaluators walk.
type Layout int

const (
	// LayoutAoS is the array-of-structs reference layout: evaluators
	// read []Particle through the Morton permutation. It is the zero
	// value of tree.BuildConfig.Layout; the production evaluators
	// always build LayoutSoA trees, and the layout equivalence tests
	// use AoS trees as their bitwise reference.
	LayoutAoS Layout = iota
	// LayoutSoA is the struct-of-arrays hot-path layout: positions and
	// weights live in separate Morton-sorted slices (an SoA mirror
	// gathered at tree build) so interaction loops walk memory
	// linearly in fixed-width blocks.
	LayoutSoA
)

func (l Layout) String() string {
	if l == LayoutSoA {
		return "soa"
	}
	return "aos"
}

// SoA is a struct-of-arrays mirror of a System: one slice per
// component, gathered under a permutation so that lane i holds
// particle order[i]. The tree gathers the Morton-sorted permutation at
// build time, which turns every leaf's particle range into a
// contiguous run of all lanes — the batched kernels then stream
// through memory linearly instead of hopping through 72-byte Particle
// records in permuted order.
//
// Lanes are gathered per discipline: GatherVortex fills X/Y/Z and
// AX/AY/AZ (the circulation vector Γ), GatherCoulomb fills X/Y/Z and
// Q. The smoothing core size σ is a single scalar for the whole
// system and is carried as a field, not a lane. Ungathered lanes keep
// length zero.
//
// The gather is a pure bitwise copy: evaluating from lanes reads
// exactly the float64 bits the AoS path reads through the
// permutation, which is the foundation of the SoA↔AoS equivalence
// contract (see DESIGN.md §14).
type SoA struct {
	X, Y, Z    []float64 // positions
	AX, AY, AZ []float64 // circulation vectors Γ (vortex discipline)
	Q          []float64 // charges (Coulomb discipline)
	Sigma      float64   // smoothing core size σ (scalar, mirrors System.Sigma)
}

// N returns the number of gathered lanes.
func (s *SoA) N() int { return len(s.X) }

// grow returns lane resized to length n, reusing its capacity — the
// arena contract: steady-state gathers allocate nothing once every
// lane has reached its high-water length.
func grow(lane []float64, n int) []float64 {
	if cap(lane) < n {
		return make([]float64, n)
	}
	return lane[:n]
}

// GatherVortex fills the position and circulation lanes from sys under
// the permutation: lane i = sys.Particles[order[i]]. A nil order
// gathers in index order (the direct solver's identity layout).
func (s *SoA) GatherVortex(sys *System, order []int) {
	n := sys.N()
	s.X, s.Y, s.Z = grow(s.X, n), grow(s.Y, n), grow(s.Z, n)
	s.AX, s.AY, s.AZ = grow(s.AX, n), grow(s.AY, n), grow(s.AZ, n)
	s.Q = s.Q[:0]
	s.Sigma = sys.Sigma
	if order == nil {
		for i := range sys.Particles {
			p := &sys.Particles[i]
			s.X[i], s.Y[i], s.Z[i] = p.Pos.X, p.Pos.Y, p.Pos.Z
			s.AX[i], s.AY[i], s.AZ[i] = p.Alpha.X, p.Alpha.Y, p.Alpha.Z
		}
		return
	}
	for i, idx := range order {
		p := &sys.Particles[idx]
		s.X[i], s.Y[i], s.Z[i] = p.Pos.X, p.Pos.Y, p.Pos.Z
		s.AX[i], s.AY[i], s.AZ[i] = p.Alpha.X, p.Alpha.Y, p.Alpha.Z
	}
}

// GatherCoulomb fills the position and charge lanes from sys under the
// permutation; a nil order gathers in index order.
func (s *SoA) GatherCoulomb(sys *System, order []int) {
	n := sys.N()
	s.X, s.Y, s.Z = grow(s.X, n), grow(s.Y, n), grow(s.Z, n)
	s.Q = grow(s.Q, n)
	s.AX, s.AY, s.AZ = s.AX[:0], s.AY[:0], s.AZ[:0]
	s.Sigma = sys.Sigma
	if order == nil {
		for i := range sys.Particles {
			p := &sys.Particles[i]
			s.X[i], s.Y[i], s.Z[i] = p.Pos.X, p.Pos.Y, p.Pos.Z
			s.Q[i] = p.Charge
		}
		return
	}
	for i, idx := range order {
		p := &sys.Particles[idx]
		s.X[i], s.Y[i], s.Z[i] = p.Pos.X, p.Pos.Y, p.Pos.Z
		s.Q[i] = p.Charge
	}
}

// ScatterVortex writes the position and circulation lanes back into
// dst under the permutation: dst.Particles[order[i]] receives lane i
// (nil order scatters in index order). It is the inverse of
// GatherVortex for the gathered components and exists so tests can
// prove sort→gather→scatter is a bijection.
func (s *SoA) ScatterVortex(dst *System, order []int) {
	for i := 0; i < s.N(); i++ {
		idx := i
		if order != nil {
			idx = order[i]
		}
		p := &dst.Particles[idx]
		p.Pos.X, p.Pos.Y, p.Pos.Z = s.X[i], s.Y[i], s.Z[i]
		p.Alpha.X, p.Alpha.Y, p.Alpha.Z = s.AX[i], s.AY[i], s.AZ[i]
	}
}
