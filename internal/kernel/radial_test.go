package kernel

import (
	"math"
	"testing"
)

// fOf is F(r) = q(ρ)/|r|³ from the production radial function (the
// branch-continuity and NaN-hygiene tests probe it at chosen radii).
func (pw Pairwise) fOf(_, d2, _ float64) float64 {
	f, _ := pw.radial(d2)
	return f
}

// h is H(ρ) = (ρq' − 3q)/ρ⁵ from the production radial function.
func (pw Pairwise) h(rho float64) float64 {
	d := rho * pw.Sigma
	_, g := pw.radial(d * d)
	s := pw.Sigma
	return g * (s * s * s * s * s)
}

// oracleQ holds the enclosed-circulation functions q(t), t = ρ/√(1+ρ²),
// as each algebraic kernel spelled them out by hand before the
// coefficient tables: the independent reference for newAlgebraic's
// derivation.
var oracleQ = map[string]func(t float64) float64{
	"algebraic2": func(t float64) float64 { return t * t * t },
	"winckelmans-leonard": func(t float64) float64 {
		return t * t * t * (2.5 - 1.5*t*t)
	},
	"algebraic4": func(t float64) float64 {
		const a, b = 525.0 / 16, -105.0 / 4
		t2 := t * t
		t3 := t2 * t
		ia := t3 * (1.0/3 + t2*(-3.0/5+t2*(3.0/7+t2*(-1.0/9))))
		ib := t3 * t2 * (1.0/5 + t2*(-2.0/7+t2*(1.0/9)))
		return a*ia + b*ib
	},
	"algebraic6": func(t float64) float64 {
		const a, b, c = 3675.0 / 64, -735.0 / 8, 105.0 / 8
		t2 := t * t
		t3 := t2 * t
		ia := t3 * (1.0/3 + t2*(-4.0/5+t2*(6.0/7+t2*(-4.0/9+t2*(1.0/11)))))
		ib := t3 * t2 * (1.0/5 + t2*(-3.0/7+t2*(1.0/3+t2*(-1.0/11))))
		ic := t3 * t2 * t2 * (1.0/7 + t2*(-2.0/9+t2*(1.0/11)))
		return a*ia + b*ib + c*ic
	},
}

// oraclePowNegHalfInt is u^(−(n+½)) = 1/(uⁿ·√u), the half-integer
// power the kernels' ζ used before the closed form.
func oraclePowNegHalfInt(u float64, n int) float64 {
	prod := math.Sqrt(u)
	for ; n > 0; n-- {
		prod *= u
	}
	return 1 / prod
}

// oracleRadial is the Q-form the pairwise kernel evaluated before the
// closed form, at σ = 1 (so |r| = ρ): F = q/|r|³ and
// H = (ρq' − 3q)/ρ⁵ with q' = 4πρ²ζ. It also returns the magnitude
// |ρq'| + 3|q| of the two terms H cancels.
func oracleRadial(k *algebraic, rho float64) (f, h, terms float64) {
	q := oracleQ[k.name](rho / math.Sqrt(1+rho*rho))
	x := rho * rho
	zeta := (k.a + x*(k.b+x*k.c)) / (4 * math.Pi) * oraclePowNegHalfInt(1+x, int(k.p))
	rqp := rho * (4 * math.Pi * rho * rho * zeta)
	r5 := rho * rho * rho * rho * rho
	return q / (x * rho), (rqp - 3*q) / r5, math.Abs(rqp) + 3*math.Abs(q)
}

// absPoly evaluates Σ|c_i| y^i and Σ i|c_i| y^i: the scale against which
// the rounding of Horner's rule, of the coefficients and of y itself is
// measured when P or S is evaluated at y.
func absPoly(c *[algTerms]float64, y float64) (sum, dsum float64) {
	for i := algTerms - 1; i >= 0; i-- {
		sum = sum*y + math.Abs(c[i])
		dsum = dsum*y + float64(i)*math.Abs(c[i])
	}
	return sum, dsum
}

// TestAlgebraicRadialMatchesQForm checks the closed form F = v^(3/2)P(y),
// G = v^(5/2)S(y) of Pairwise.radial, and Q = t³P(t²), against the Q-form
// oracle above for every algebraic kernel, over log-spaced ρ from below
// hSwitch to 1e4 and densely around hSwitch.
//
// The bounds, with ε = 2⁻⁵²:
//
//   - F and Q: both sides evaluate the same polynomial q/t³ = P(y) with a
//     few roundings in t or y, in v and its square root, and in each
//     coefficient and Horner step. Each is at most a few ε relative to
//     the absolute-value sum A(y) = Σ|p_i|y^i + Σ i|p_i|y^i (the second
//     sum carries the rounding of y through P), so
//     |ΔF| ≤ 8ε·w·A(y) with w = (1+ρ²)^(−3/2) (F = w·P(y) at σ = 1):
//     a few ulp of F wherever P is well conditioned.
//   - H: the oracle subtracts ρq' and 3q, each of size ~ρ³, and divides
//     by ρ⁵, so its error is ε/ρ² times the cancelled terms: a few ε of
//     (|ρq'| + 3|q|)/ρ⁵, each term a few ε of itself times the
//     conditioning A(y)/|P(y)| of q. The closed form has no cancellation
//     (it is taken exactly in S's coefficients) and errs by a few ε of
//     (1+ρ²)^(−5/2)·A_S(y). The bound is 8ε times the sum of the two.
func TestAlgebraicRadialMatchesQForm(t *testing.T) {
	const eps = 0x1p-52
	var rhos []float64
	for e := math.Log10(hSwitch / 20); e <= 4; e += 1.0 / 64 {
		rhos = append(rhos, math.Pow(10, e))
	}
	for i := -200; i <= 200; i++ {
		rhos = append(rhos, hSwitch*(1+float64(i)*1e-4))
	}
	for _, name := range []string{"algebraic2", "winckelmans-leonard", "algebraic4", "algebraic6"} {
		k := ByName(name).(*algebraic)
		pw := Pairwise{Sm: k, Sigma: 1}
		for _, rho := range rhos {
			f, g := pw.radial(rho * rho)
			fo, ho, terms := oracleRadial(k, rho)

			tt := rho / math.Sqrt(1+rho*rho)
			y := tt * tt
			w := math.Pow(1+rho*rho, -1.5)
			pa, pd := absPoly(&k.pc, y)
			sa, sd := absPoly(&k.sc, y)
			pv := math.Abs(poly(&k.pc, y))

			if bound := 8 * eps * w * (pa + pd); math.Abs(f-fo) > bound {
				t.Errorf("%s ρ=%g: F = %v, Q-form %v (|Δ| %.3g > bound %.3g)",
					name, rho, f, fo, math.Abs(f-fo), bound)
			}
			if q, qo := k.Q(rho), oracleQ[name](tt); math.Abs(q-qo) > 8*eps*tt*tt*tt*(pa+pd) {
				t.Errorf("%s ρ=%g: Q = %v, oracle %v", name, rho, q, qo)
			}
			r5 := rho * rho * rho * rho * rho
			bound := 8 * eps * (terms*(pa+pd)/pv/r5 + w/(1+rho*rho)*(sa+sd))
			if math.Abs(g-ho) > bound {
				t.Errorf("%s ρ=%g: H = %v, Q-form %v (|Δ| %.3g > bound %.3g)",
					name, rho, g, ho, math.Abs(g-ho), bound)
			}
		}
	}
}
