// Package direct implements the O(N²) direct-summation reference solver
// for the vortex particle method and the Coulomb discipline. It is the
// "exact" spatial solver used by the accuracy study of Section IV-A of
// the paper; the tree code converges to it as θ → 0.
package direct

import (
	"sync/atomic"

	"repro/internal/field"
	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/sched"
	"repro/internal/vec"
)

// Solver is a direct-summation evaluator: every evaluation gathers
// identity-ordered SoA lanes once and runs the batched kernels, summing
// sources in index order. The zero value is not usable; construct with
// New.
type Solver struct {
	sm      kernel.Smoothing
	scheme  kernel.Scheme
	workers int

	evals        atomic.Int64
	interactions atomic.Int64

	// lanes is the SoA gather arena, reused across evaluations.
	lanes particle.SoA
}

// New returns a direct solver using the given smoothing kernel and
// stretching scheme. workers ≤ 0 selects GOMAXPROCS.
func New(sm kernel.Smoothing, scheme kernel.Scheme, workers int) *Solver {
	return &Solver{sm: sm, scheme: scheme, workers: workers}
}

// Name implements field.Evaluator.
func (s *Solver) Name() string { return "direct/" + s.sm.Name() }

// Stats implements field.Evaluator.
func (s *Solver) Stats() field.Stats {
	return field.Stats{
		Evaluations:  s.evals.Load(),
		Interactions: s.interactions.Load(),
	}
}

// Eval computes velocity and stretching for every particle by direct
// summation over all source particles (self-interactions excluded by
// the kernel's zero-separation convention).
func (s *Solver) Eval(sys *particle.System, vel, stretch []vec.Vec3) {
	n := sys.N()
	if len(vel) != n || len(stretch) != n {
		panic("direct: Eval output slices must have length N")
	}
	s.evals.Add(1)
	s.interactions.Add(int64(n) * int64(n-1))
	pw := kernel.Pairwise{Sm: s.sm, Sigma: sys.Sigma}
	ps := sys.Particles
	l := &s.lanes
	l.GatherVortex(sys, nil) // identity order: lane p = particle p
	b := kernel.NewVortexBatch(pw)
	s.alignedRange(n, func(lo, hi int) {
		for q := lo; q < hi; q++ {
			var acc kernel.VortexAcc
			b.AccumGradRange(&acc, l.X[q], l.Y[q], l.Z[q],
				l.X, l.Y, l.Z, l.AX, l.AY, l.AZ, q)
			vel[q] = vec.V3(acc.UX, acc.UY, acc.UZ)
			grad := vec.Mat3{
				{acc.G[0], acc.G[1], acc.G[2]},
				{acc.G[3], acc.G[4], acc.G[5]},
				{acc.G[6], acc.G[7], acc.G[8]},
			}
			stretch[q] = s.scheme.Stretch(grad, ps[q].Alpha)
		}
	})
}

// Velocities computes only the induced velocities (no stretching); it
// is cheaper when the gradient is not needed.
func (s *Solver) Velocities(sys *particle.System, vel []vec.Vec3) {
	n := sys.N()
	if len(vel) != n {
		panic("direct: Velocities output slice must have length N")
	}
	s.evals.Add(1)
	s.interactions.Add(int64(n) * int64(n-1))
	pw := kernel.Pairwise{Sm: s.sm, Sigma: sys.Sigma}
	l := &s.lanes
	l.GatherVortex(sys, nil)
	b := kernel.NewVortexBatch(pw)
	s.alignedRange(n, func(lo, hi int) {
		for q := lo; q < hi; q++ {
			var acc kernel.VortexAcc
			b.AccumVelRange(&acc, l.X[q], l.Y[q], l.Z[q],
				l.X, l.Y, l.Z, l.AX, l.AY, l.AZ, q)
			vel[q] = vec.V3(acc.UX, acc.UY, acc.UZ)
		}
	})
}

// Coulomb computes the softened Coulomb potential and field at every
// particle from all other particles.
func (s *Solver) Coulomb(sys *particle.System, eps float64, pot []float64, f []vec.Vec3) {
	n := sys.N()
	if len(pot) != n || len(f) != n {
		panic("direct: Coulomb output slices must have length N")
	}
	s.evals.Add(1)
	s.interactions.Add(int64(n) * int64(n-1))
	l := &s.lanes
	l.GatherCoulomb(sys, nil)
	s.alignedRange(n, func(lo, hi int) {
		for q := lo; q < hi; q++ {
			var acc kernel.CoulombAcc
			kernel.AccumCoulombRange(&acc, l.X[q], l.Y[q], l.Z[q], eps,
				l.X, l.Y, l.Z, l.Q, q)
			pot[q] = acc.Phi
			f[q] = vec.V3(acc.EX, acc.EY, acc.EZ)
		}
	})
}

// alignedRange distributes [0,n) over the worker pool with the
// work-stealing scheduler, claim and steal boundaries on BatchWidth
// multiples so every worker's SoA inner loops start on a full batch
// block. Every index is processed exactly once and each target's sum
// is independent, so results do not depend on the schedule.
func (s *Solver) alignedRange(n int, fn func(lo, hi int)) {
	sched.RunAligned(s.workers, n, 0, kernel.BatchWidth, func(_, lo, hi int) { fn(lo, hi) })
}

var _ field.Evaluator = (*Solver)(nil)
