package tree

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

// BenchmarkEvalListStealing times one full Eval (build + list
// traversal with work stealing) of the spherical vortex sheet; the CI
// smoke lane runs it with -benchtime 1x to keep the evaluator compiling
// and working.
func BenchmarkEvalListStealing(b *testing.B) {
	sys := particle.SphericalVortexSheet(particle.DefaultSheet(2000))
	s := NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.45)
	vel := make([]vec.Vec3, sys.N())
	str := make([]vec.Vec3, sys.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eval(sys, vel, str)
	}
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(float64(st.Interactions)/float64(st.Evaluations), "inter/eval")
	b.ReportMetric(float64(s.LastSched.Steals), "steals")
}
