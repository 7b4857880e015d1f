// Package kernel implements the regularized interaction kernels of the
// vortex particle method and the Coulomb/gravity kernels used by the
// multi-purpose tree code.
//
// A vortex particle p carries a circulation vector α_p = ω(x_p)·vol_p.
// The regularized Biot–Savart law evaluates the velocity induced at x by
// all particles,
//
//	u(x) = −(1/4π) Σ_p q(|x−x_p|/σ) / |x−x_p|³ · (x−x_p) × α_p,
//
// where q(ρ) = ∫₀^ρ 4π s² ζ(s) ds is the fraction of circulation enclosed
// within radius ρσ for the radially symmetric smoothing function ζ. The
// paper (Speck et al., SC12) uses a sixth-order algebraic kernel from the
// generalized algebraic family of Speck's thesis; this package derives
// that family from first principles: a kernel has order m when ζ is
// normalized and its radial moments ∫ ζ ρ^j d³x vanish for even j ≤ m−2.
package kernel

import "math"

// Smoothing describes a radially symmetric smoothing function ζ and its
// derived quantities. All methods take the scaled radius ρ = r/σ.
type Smoothing interface {
	// Name identifies the kernel ("algebraic6", ...).
	Name() string
	// Order is the formal convergence order of the regularization.
	Order() int
	// Zeta evaluates the smoothing function ζ(ρ) (3D normalization:
	// ∫ ζ(|x|) d³x = 1).
	Zeta(rho float64) float64
	// Q evaluates the enclosed-circulation function
	// q(ρ) = ∫₀^ρ 4π s² ζ(s) ds; q(0)=0 and q(ρ)→1 as ρ→∞.
	Q(rho float64) float64
	// QPrime evaluates q'(ρ) = 4π ρ² ζ(ρ).
	QPrime(rho float64) float64
	// ZetaSeries returns the leading Taylor coefficients of ζ around
	// ρ=0: ζ(ρ) = z[0] + z[1]ρ² + z[2]ρ⁴ + z[3]ρ⁶ + O(ρ⁸). They are
	// used for the cancellation-free small-ρ evaluation of velocity
	// gradients.
	ZetaSeries() [4]float64
}

// algebraic is a generalized algebraic kernel
//
//	ζ(ρ) = (1/4π) N(ρ²) (1+ρ²)^(−p),  N(x) = a + b x + c x²,  p = n + ½,
//
// with (a,b,c,p) chosen so that ζ is normalized and the required radial
// moments vanish (see the constructors below). In y = t² = ρ²/(1+ρ²) its
// enclosed-circulation function and the gradient factor H are
//
//	q(ρ) = t³ P(y),   H(ρ) = (ρq' − 3q)/ρ⁵ = (1+ρ²)^(−5/2) S(y),
//
// with P and S polynomials of degree n−2 whose coefficients
// newAlgebraic derives from (a,b,c,n); NUMERICS.md §2 has the
// derivation. These two tables are all the per-pair kernel needs.
type algebraic struct {
	name    string
	order   int
	a, b, c float64
	p       float64           // exponent of (1+ρ²)
	pc, sc  [algTerms]float64 // P and S, ascending powers of y
}

// algTerms bounds the coefficient count of P and S: n−1 for the
// exponent n+½, so 5 covers every kernel up to sixth order.
const algTerms = 5

// newAlgebraic builds the kernel with numerator a + bρ² + cρ⁴ and
// exponent n+½ (n ≥ 2, and no ρ^(2j) term with j > n−2). Substituting
// s = τ/√(1−τ²) in q = ∫₀^ρ 4πs²ζ(s) ds turns the j-th numerator term
// into
//
//	∫₀^t τ^(2+2j) (1−τ²)^(n−2−j) dτ = Σ_k (−1)^k C(n−2−j, k) t^(3+2j+2k)/(3+2j+2k),
//
// so P collects N_j(−1)^k C(n−2−j,k)/(3+2j+2k) at y^(j+k). With
// x = ρ² = y/(1−y), ρq' = ρ³ N(x)(1+x)^(−n−½) = ρ³(1+x)^(−3/2) R(y),
// R(y) = Σ_j N_j y^j (1−y)^(n−1−j), hence
// H = (1+x)^(−3/2) (R(y) − 3P(y))/x. R(0) = a = 3P(0), so R − 3P = y·S(y),
// and y/x = 1/(1+x) leaves H = (1+x)^(−5/2) S(y) with S_i = R_{i+1} − 3P_{i+1}:
// the cancellation between ρq' and 3q is taken exactly, in the
// coefficients.
func newAlgebraic(name string, order int, a, b, c float64, n int) *algebraic {
	var p, r [algTerms + 1]float64 // P and R
	for j, nj := range [3]float64{a, b, c} {
		for k, bin := 0, 1.0; k <= n-2-j; k++ { // bin = (−1)^k C(n−2−j, k)
			p[j+k] += nj * bin / float64(3+2*j+2*k)
			bin = -bin * float64(n-2-j-k) / float64(k+1)
		}
		for k, bin := 0, 1.0; k <= n-1-j; k++ { // bin = (−1)^k C(n−1−j, k)
			r[j+k] += nj * bin
			bin = -bin * float64(n-1-j-k) / float64(k+1)
		}
	}
	al := &algebraic{name: name, order: order, a: a, b: b, c: c, p: float64(n) + 0.5}
	copy(al.pc[:], p[:])
	for i := range al.sc {
		al.sc[i] = r[i+1] - 3*p[i+1]
	}
	return al
}

func (k *algebraic) Name() string { return k.name }
func (k *algebraic) Order() int   { return k.order }

// poly evaluates Σ c_i y^i by Horner's rule.
func poly(c *[algTerms]float64, y float64) float64 {
	return c[0] + y*(c[1]+y*(c[2]+y*(c[3]+y*c[4])))
}

func (k *algebraic) Zeta(rho float64) float64 {
	x := rho * rho
	return (k.a + x*(k.b+x*k.c)) / (4 * math.Pi) * math.Pow(1+x, -k.p)
}

func (k *algebraic) QPrime(rho float64) float64 {
	return 4 * math.Pi * rho * rho * k.Zeta(rho)
}

func (k *algebraic) Q(rho float64) float64 {
	t := rho / math.Sqrt(1+rho*rho)
	return t * t * t * poly(&k.pc, t*t)
}

func (k *algebraic) ZetaSeries() [4]float64 {
	// Expand (1+x)^(−p) = 1 − p x + p(p+1)/2 x² − p(p+1)(p+2)/6 x³ + …
	// against the numerator a + b x + c x², with x = ρ².
	p := k.p
	c2 := p * (p + 1) / 2
	c3 := p * (p + 1) * (p + 2) / 6
	inv4pi := 1 / (4 * math.Pi)
	return [4]float64{
		k.a * inv4pi,
		(k.b - p*k.a) * inv4pi,
		(k.c - p*k.b + c2*k.a) * inv4pi,
		(-p*k.c + c2*k.b - c3*k.a) * inv4pi,
	}
}

// Algebraic2 returns the classical second-order algebraic kernel
// (Rosenhead–Moore):
//
//	ζ₂(ρ) = (3/4π)(1+ρ²)^(−5/2),   q₂(ρ) = ρ³/(1+ρ²)^(3/2) = t³.
func Algebraic2() Smoothing {
	return newAlgebraic("algebraic2", 2, 3, 0, 0, 2)
}

// WinckelmansLeonard returns the classical "high-order algebraic" kernel
// of Winckelmans & Leonard,
//
//	ζ(ρ) = (15/8π)(1+ρ²)^(−7/2),   q(ρ) = ρ³(ρ²+5/2)/(1+ρ²)^(5/2) = t³(5/2 − (3/2)t²).
//
// Its far-field error decays like ρ⁻⁴ although its second radial moment
// does not vanish; it is included for comparison and carries Order 2 in
// the strict moment sense used by this package.
func WinckelmansLeonard() Smoothing {
	return newAlgebraic("winckelmans-leonard", 2, 15.0/2, 0, 0, 3)
}

// Algebraic4 returns the fourth-order member of the generalized algebraic
// family: the unique kernel
//
//	ζ₄(ρ) = (1/4π)(525/16 − 105/4·ρ²)(1+ρ²)^(−11/2)
//
// with unit mass and vanishing second radial moment.
func Algebraic4() Smoothing {
	return newAlgebraic("algebraic4", 4, 525.0/16, -105.0/4, 0, 5)
}

// Algebraic6 returns the sixth-order member of the generalized algebraic
// family used by the paper: the unique kernel
//
//	ζ₆(ρ) = (1/4π)(3675/64 − 735/8·ρ² + 105/8·ρ⁴)(1+ρ²)^(−13/2)
//
// with unit mass and vanishing second and fourth radial moments. Its
// enclosed-circulation function in t = ρ/√(1+ρ²) is
//
//	q₆ = a(t³/3 − 4t⁵/5 + 6t⁷/7 − 4t⁹/9 + t¹¹/11)
//	   + b(t⁵/5 − 3t⁷/7 + t⁹/3 − t¹¹/11)
//	   + c(t⁷/7 − 2t⁹/9 + t¹¹/11).
func Algebraic6() Smoothing {
	return newAlgebraic("algebraic6", 6, 3675.0/64, -735.0/8, 105.0/8, 6)
}

// gaussian is the second-order Gaussian kernel
// ζ(ρ) = (2π)^(−3/2) exp(−ρ²/2).
type gaussian struct{}

// Gaussian returns the second-order Gaussian smoothing kernel.
func Gaussian() Smoothing { return gaussian{} }

func (gaussian) Name() string { return "gaussian" }
func (gaussian) Order() int   { return 2 }

func (gaussian) Zeta(rho float64) float64 {
	return math.Exp(-rho*rho/2) / math.Pow(2*math.Pi, 1.5)
}

func (g gaussian) QPrime(rho float64) float64 {
	return 4 * math.Pi * rho * rho * g.Zeta(rho)
}

func (gaussian) Q(rho float64) float64 {
	// q(ρ) = erf(ρ/√2) − ρ √(2/π) e^(−ρ²/2)
	return math.Erf(rho/math.Sqrt2) - rho*math.Sqrt(2/math.Pi)*math.Exp(-rho*rho/2)
}

func (g gaussian) ZetaSeries() [4]float64 {
	z0 := 1 / math.Pow(2*math.Pi, 1.5)
	return [4]float64{z0, -z0 / 2, z0 / 8, -z0 / 48}
}

// Singular returns the unregularized Biot–Savart kernel (q ≡ 1). It is
// the σ→0 limit used by the far-field multipole approximation and by
// tests. Zeta is a delta distribution and therefore reported as zero for
// every ρ > 0 (and zero at ρ = 0 as well, by convention).
func Singular() Smoothing { return singular{} }

type singular struct{}

func (singular) Name() string           { return "singular" }
func (singular) Order() int             { return 0 }
func (singular) Zeta(float64) float64   { return 0 }
func (singular) Q(float64) float64      { return 1 }
func (singular) QPrime(float64) float64 { return 0 }
func (singular) ZetaSeries() [4]float64 { return [4]float64{} }

// ByName returns the smoothing kernel with the given Name, or nil when
// the name is unknown. Recognized names: "algebraic2", "algebraic4",
// "algebraic6", "winckelmans-leonard", "gaussian", "singular".
func ByName(name string) Smoothing {
	switch name {
	case "algebraic2":
		return Algebraic2()
	case "algebraic4":
		return Algebraic4()
	case "algebraic6":
		return Algebraic6()
	case "winckelmans-leonard":
		return WinckelmansLeonard()
	case "gaussian":
		return Gaussian()
	case "singular":
		return Singular()
	}
	return nil
}
