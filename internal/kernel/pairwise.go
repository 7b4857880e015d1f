package kernel

import (
	"math"

	"repro/internal/vec"
)

// Pairwise evaluates the regularized Biot–Savart interaction between a
// single source vortex element and a target point. It is the innermost
// computational kernel of both the direct solver and the tree code.
//
// With r = x_target − x_source, ρ = |r|/σ and F(r) = q(ρ)/|r|³ the
// velocity contribution is
//
//	u = −(1/4π) F(r) · r × α,
//
// and the velocity gradient contribution is
//
//	∂u_i/∂x_j = −(1/4π) [ (F'(r)/|r|) (r×α)_i r_j + F(r) ε_{ijl} α_l ].
//
// F'(r)/|r| = H(ρ)/σ⁵ with H(ρ) = (ρ q'(ρ) − 3 q(ρ))/ρ⁵. Both radial
// factors come from Pairwise.radial, which the batched kernels share.
type Pairwise struct {
	Sm    Smoothing
	Sigma float64
}

// hSwitch is the scaled radius below which the generic (non-algebraic)
// kernels take F and H from their ζ Taylor series, because the two
// terms of H cancel to leading order there. At the switch point both
// branches agree to better than 1e-6 relative for all kernels in this
// package (verified by tests): the direct form loses ~4 digits to
// cancellation there while the series truncation error is O(ρ⁶) ≈ 1e-7.
// The algebraic kernels need no switch: their closed form has the
// cancellation taken exactly (see algebraic).
const hSwitch = 0.02

// radial returns the two radial factors of a pair at squared separation
// d2 > 0: F = q(ρ)/|r|³ and G = F'(r)/|r| = H(ρ)/σ⁵. For the algebraic
// kernels, with v = 1/(σ²+|r|²) and y = |r|²v = t²,
//
//	F = v^(3/2) P(y),   G = v^(5/2) S(y):
//
// one divide and one square root, finite for every d2 > 0 (as d2 → 0,
// y → 0 and F → P(0)/σ³ without forming 0/0).
func (pw Pairwise) radial(d2 float64) (f, g float64) {
	alg, ok := pw.Sm.(*algebraic)
	if !ok {
		return pw.generic(d2)
	}
	v := 1 / (pw.Sigma*pw.Sigma + d2)
	y := d2 * v
	w := v * math.Sqrt(v)
	return w * poly(&alg.pc, y), w * v * poly(&alg.sc, y)
}

// generic is radial through the Smoothing interface (Gaussian, singular).
// Below hSwitch it uses the ζ series — q = 4π(ζ0 ρ³/3 + ζ1 ρ⁵/5 + …),
// whose ρ³ cancels |r|³ analytically, and ρq' − 3q =
// 4π((2/5)ζ1 ρ⁵ + (4/7)ζ2 ρ⁷ + (6/9)ζ3 ρ⁹ + …) — so F stays finite down
// to denormal separations, where q/|r|³ would be 0/0. The truly
// singular kernel (q ≡ 1, ζ ≡ 0) has no series and keeps the direct F.
func (pw Pairwise) generic(d2 float64) (f, g float64) {
	d := math.Sqrt(d2)
	rho := d / pw.Sigma
	s3 := pw.Sigma * pw.Sigma * pw.Sigma
	s5 := s3 * pw.Sigma * pw.Sigma
	if rho < hSwitch {
		z := pw.Sm.ZetaSeries()
		x := rho * rho
		g = 4 * math.Pi * (2.0/5*z[1] + x*(4.0/7*z[2]+x*(6.0/9*z[3]))) / s5
		//lint:ignore floateq exact zero is the "kernel has no series" flag set by construction, never computed
		if z[0] != 0 {
			return 4 * math.Pi * (z[0]/3 + x*(z[1]/5+x*(z[2]/7+x*(z[3]/9)))) / s3, g
		}
		return pw.Sm.Q(rho) / (d2 * d), g
	}
	q := pw.Sm.Q(rho)
	return q / (d2 * d), (rho*pw.Sm.QPrime(rho) - 3*q) / (rho * rho * rho * rho * rho) / s5
}

// Velocity returns the velocity induced at the target by a source with
// circulation vector alpha; r is the target position minus the source
// position. The contribution of a source at zero separation is zero.
func (pw Pairwise) Velocity(r, alpha vec.Vec3) vec.Vec3 {
	d2 := r.Norm2()
	//lint:ignore floateq exact zero separation is the documented self-interaction cutoff
	if d2 == 0 {
		return vec.Zero3
	}
	f, _ := pw.radial(d2)
	return r.Cross(alpha).Scale(-f / (4 * math.Pi))
}

// VelocityGrad returns both the induced velocity and the velocity
// gradient tensor (∂u_i/∂x_j) at the target.
func (pw Pairwise) VelocityGrad(r, alpha vec.Vec3) (vec.Vec3, vec.Mat3) {
	d2 := r.Norm2()
	//lint:ignore floateq exact zero separation is the documented self-interaction cutoff
	if d2 == 0 {
		return vec.Zero3, vec.Mat3{}
	}
	f, fpOverR := pw.radial(d2)
	inv4pi := 1 / (4 * math.Pi)

	rxA := r.Cross(alpha)
	u := rxA.Scale(-f * inv4pi)

	grad := vec.Outer(rxA, r).Scale(-fpOverR * inv4pi)
	// ε_{ijl} α_l term: matrix M with M v = v × α.
	m := vec.Mat3{
		{0, alpha.Z, -alpha.Y},
		{-alpha.Z, 0, alpha.X},
		{alpha.Y, -alpha.X, 0},
	}
	grad = grad.Add(m.Scale(-f * inv4pi))
	return u, grad
}

// StretchClassical returns the classical stretching term (α·∇)u for a
// target with circulation alpha and velocity gradient grad
// ((∇u)_{ij} = ∂u_i/∂x_j): component i is Σ_j α_j ∂u_i/∂x_j.
func StretchClassical(grad vec.Mat3, alpha vec.Vec3) vec.Vec3 {
	return grad.MulVec(alpha)
}

// StretchTranspose returns the transpose-scheme stretching term
// (α·∇ᵀ)u: component i is Σ_j α_j ∂u_j/∂x_i. The transpose scheme
// conserves total circulation exactly and is the form written in
// Eq. (6) of the paper.
func StretchTranspose(grad vec.Mat3, alpha vec.Vec3) vec.Vec3 {
	return grad.VecMul(alpha)
}

// Scheme selects the discretization of the vortex stretching term.
type Scheme int

const (
	// Transpose uses (α·∇ᵀ)u, the paper's formulation.
	Transpose Scheme = iota
	// Classical uses (α·∇)u.
	Classical
)

// Stretch applies the selected stretching scheme.
func (s Scheme) Stretch(grad vec.Mat3, alpha vec.Vec3) vec.Vec3 {
	if s == Classical {
		return StretchClassical(grad, alpha)
	}
	return StretchTranspose(grad, alpha)
}

func (s Scheme) String() string {
	if s == Classical {
		return "classical"
	}
	return "transpose"
}

// Coulomb evaluates the Plummer-softened Coulomb/gravity interaction used
// by the tree code's plasma discipline (the homogeneous neutral system of
// Fig. 5). With r = x_target − x_source and softening ε it returns the
// potential φ = Q/√(r²+ε²) and the field E = Q r/(r²+ε²)^(3/2)
// (Gaussian units, unit prefactor).
func Coulomb(r vec.Vec3, charge, eps float64) (phi float64, field vec.Vec3) {
	d2 := r.Norm2() + eps*eps
	//lint:ignore floateq exact zero: only the unsoftened coincident-point case divides by zero
	if d2 == 0 {
		return 0, vec.Zero3
	}
	inv := 1 / math.Sqrt(d2)
	phi = charge * inv
	field = r.Scale(charge * inv * inv * inv)
	return phi, field
}
