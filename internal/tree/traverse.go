package tree

import (
	"math"
	"sync"

	"repro/internal/kernel"
	"repro/internal/vec"
)

// MAC is the classical Barnes-Hut multipole acceptance criterion: a
// cell of size s at distance d from the target may be used as a single
// interaction partner when s/d ≤ θ (Fig. 4 of the paper). θ = 0 never
// accepts a cell, reducing the tree code to direct summation over the
// leaves.
func MAC(theta, size, dist float64) bool {
	return dist > 0 && size <= theta*dist
}

// MACSq is MAC on squared quantities: size² ≤ θ²·d² with d² > 0. The
// hot paths use this form so the accept/reject decision needs no
// square root; callers precompute theta2 = θ² once per traversal.
func MACSq(theta2, size2, dist2 float64) bool {
	return dist2 > 0 && size2 <= theta2*dist2
}

// MACKind selects among the acceptance criteria discussed in the
// paper's reference [30] (Salmon & Warren, "Skeletons from the
// treecode closet").
type MACKind int

const (
	// MACBarnesHut is the classical criterion s/d ≤ θ with d measured
	// to the cell centroid (the paper's choice).
	MACBarnesHut MACKind = iota
	// MACBMax replaces the cell size by b_max, the distance from the
	// centroid to the farthest cell corner — tighter for clusters whose
	// centroid sits off-center.
	MACBMax
	// MACMinDist measures d to the nearest point of the cell box
	// instead of the centroid — the most conservative of the three.
	MACMinDist
)

func (k MACKind) String() string {
	switch k {
	case MACBMax:
		return "bmax"
	case MACMinDist:
		return "min-dist"
	default:
		return "barnes-hut"
	}
}

// Accepts applies the criterion to a cell for a target at x; dist is
// the precomputed distance from x to the cell centroid.
func (k MACKind) Accepts(theta float64, nd *Node, x vec.Vec3, dist float64) bool {
	return k.acceptsSq(theta*theta, nd, x, dist*dist)
}

// acceptsSq is the square-distance form of Accepts — the single
// per-particle acceptance predicate shared by the per-particle walk
// and the interaction-list evaluator (both must take identical
// decisions for the two to agree bitwise). r2 is |x − centroid|².
func (k MACKind) acceptsSq(theta2 float64, nd *Node, x vec.Vec3, r2 float64) bool {
	switch k {
	case MACBMax:
		return MACSq(theta2, nd.BMax*nd.BMax, r2)
	case MACMinDist:
		return MACSq(theta2, nd.Size*nd.Size, boxDistance2(nd, x))
	default:
		return MACSq(theta2, nd.Size*nd.Size, r2)
	}
}

// boxDistance returns the distance from x to the surface of the cell's
// axis-aligned box (zero when x is inside).
func boxDistance(nd *Node, x vec.Vec3) float64 {
	return math.Sqrt(boxDistance2(nd, x))
}

// boxDistance2 is the squared boxDistance; the MAC hot path compares
// squared distances so the square root is never taken for a pure
// accept/reject decision.
func boxDistance2(nd *Node, x vec.Vec3) float64 {
	h := nd.Size / 2
	dx := math.Max(0, math.Abs(x.X-nd.Center.X)-h)
	dy := math.Max(0, math.Abs(x.Y-nd.Center.Y)-h)
	dz := math.Max(0, math.Abs(x.Z-nd.Center.Z)-h)
	return dx*dx + dy*dy + dz*dz
}

// stackPool recycles traversal stacks across walks; per-call stack
// allocations would otherwise dominate the allocation profile of a
// force evaluation (one walk per target, thousands of targets).
var stackPool = sync.Pool{
	New: func() any { s := make([]int32, 0, 128); return &s },
}

func getStack() *[]int32  { return stackPool.Get().(*[]int32) }
func putStack(s *[]int32) { *s = (*s)[:0]; stackPool.Put(s) }

// VortexResult accumulates the velocity and velocity gradient at one
// target point.
type VortexResult struct {
	U    vec.Vec3
	Grad vec.Mat3
	// Interactions counts accepted cells plus directly summed
	// particles.
	Interactions int64
	// CellAccepts counts the MAC-accepted cluster interactions alone
	// (the particle–particle share is Interactions − CellAccepts).
	CellAccepts int64
	// Rejects counts cells the MAC refused and the traversal opened —
	// the per-rank accept/reject balance of the θ choice.
	Rejects int64
}

// AddCounts folds the traversal counters of sub into res.
func (res *VortexResult) AddCounts(sub *VortexResult) {
	res.Interactions += sub.Interactions
	res.CellAccepts += sub.CellAccepts
	res.Rejects += sub.Rejects
}

// DipoleVelocity evaluates the dipole correction of an accepted cell:
// the first-order term of the multipole expansion of the Biot-Savart
// kernel around the cell centroid. It always uses the singular (q = 1)
// kernel because accepted cells are well separated.
func DipoleVelocity(r vec.Vec3, dip vec.Mat3) vec.Vec3 {
	r2 := r.Norm2()
	r1 := math.Sqrt(r2)
	r3 := r2 * r1
	r5 := r3 * r2
	w := dip.VecMul(r) // w_k = Σ_j r_j D_{jk}
	c := vec.V3(
		dip[1][2]-dip[2][1],
		dip[2][0]-dip[0][2],
		dip[0][1]-dip[1][0],
	) // C = Σ d_p × α_p (antisymmetric part of D)
	u := r.Cross(w).Scale(3 / r5)
	u = u.Sub(c.Scale(1 / r3))
	return u.Scale(-1 / (4 * math.Pi))
}

// VortexAt evaluates velocity and gradient at the target position by
// traversing the tree with the given MAC parameter. skipOrig, when
// ≥ 0, excludes the particle with that original index (the target
// itself). useDipole enables the dipole correction of accepted cells.
func (t *Tree) VortexAt(x vec.Vec3, theta float64, skipOrig int, pw kernel.Pairwise, useDipole bool) VortexResult {
	return t.VortexAtNode(t.Root, x, theta, skipOrig, pw, useDipole)
}

// VortexAtNode is VortexAt restricted to the subtree rooted at the
// given node index; the parallel tree uses it to traverse the local
// part below a branch node.
func (t *Tree) VortexAtNode(start int, x vec.Vec3, theta float64, skipOrig int, pw kernel.Pairwise, useDipole bool) VortexResult {
	return t.VortexAtNodeMAC(MACBarnesHut, start, x, theta, skipOrig, pw, useDipole)
}

// VortexAtNodeMAC is VortexAtNode with a selectable acceptance
// criterion (reference [30] variants).
func (t *Tree) VortexAtNodeMAC(mac MACKind, start int, x vec.Vec3, theta float64, skipOrig int, pw kernel.Pairwise, useDipole bool) VortexResult {
	if t.Lanes != nil {
		return t.vortexAtNodeSoA(mac, start, x, theta, skipOrig, pw, useDipole)
	}
	var res VortexResult
	t.AccumVortexWalk(&res, mac, int32(start), x, theta, skipOrig, pw, useDipole)
	return res
}

// AccumVortexFar folds one MAC-accepted cell into res — the multipole
// (monopole + optional dipole) contribution of node nd at target x.
// It is the far-field leg shared by the per-particle walk and the
// interaction-list evaluator.
func (t *Tree) AccumVortexFar(res *VortexResult, node int32, x vec.Vec3, pw kernel.Pairwise, useDipole bool) {
	nd := &t.Nodes[node]
	r := x.Sub(nd.Centroid)
	u, g := pw.VelocityGrad(r, nd.CircSum)
	res.U = res.U.Add(u)
	res.Grad = res.Grad.Add(g)
	if useDipole {
		res.U = res.U.Add(DipoleVelocity(r, nd.Dipole))
	}
	res.Interactions++
	res.CellAccepts++
}

// AccumVortexNear folds the particles of leaf `node` into res by
// direct summation, skipping the particle with original index
// skipOrig — the near-field leg shared by both evaluators.
func (t *Tree) AccumVortexNear(res *VortexResult, node int32, x vec.Vec3, skipOrig int, pw kernel.Pairwise) {
	nd := &t.Nodes[node]
	for i := nd.First; i < nd.First+nd.Count; i++ {
		orig := t.Order[i]
		if orig == skipOrig {
			continue
		}
		p := &t.sys.Particles[orig]
		u, g := pw.VelocityGrad(x.Sub(p.Pos), p.Alpha)
		res.U = res.U.Add(u)
		res.Grad = res.Grad.Add(g)
		res.Interactions++
	}
}

// AccumVortexWalk runs the per-particle MAC traversal of the subtree
// rooted at start, accumulating into res (it does not reset res). The
// interaction-list evaluator calls this for cells whose group-level
// accept/open decision is ambiguous, so both evaluators sum exactly
// the same terms in exactly the same order.
func (t *Tree) AccumVortexWalk(res *VortexResult, mac MACKind, start int32, x vec.Vec3, theta float64, skipOrig int, pw kernel.Pairwise, useDipole bool) {
	theta2 := theta * theta
	sp := getStack()
	stack := append(*sp, start)
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.Nodes[idx]
		if nd.Count == 0 {
			continue
		}
		if !nd.Leaf {
			r2 := x.Sub(nd.Centroid).Norm2()
			if mac.acceptsSq(theta2, nd, x, r2) {
				t.AccumVortexFar(res, idx, x, pw, useDipole)
				continue
			}
			res.Rejects++
			for _, ci := range nd.Children {
				if ci >= 0 {
					stack = append(stack, ci)
				}
			}
			continue
		}
		t.AccumVortexNear(res, idx, x, skipOrig, pw)
	}
	*sp = stack
	putStack(sp)
}

// CoulombResult accumulates potential and field at one target point.
type CoulombResult struct {
	Phi          float64
	E            vec.Vec3
	Interactions int64
	// CellAccepts and Rejects mirror VortexResult's MAC counters.
	CellAccepts int64
	Rejects     int64
}

// AddCounts folds the traversal counters of sub into res.
func (res *CoulombResult) AddCounts(sub *CoulombResult) {
	res.Interactions += sub.Interactions
	res.CellAccepts += sub.CellAccepts
	res.Rejects += sub.Rejects
}

// CoulombCell evaluates the multipole expansion (monopole + dipole +
// quadrupole) of an accepted cell at separation r (target − centroid).
func CoulombCell(r vec.Vec3, nd *Node) (float64, vec.Vec3) {
	r2 := r.Norm2()
	r1 := math.Sqrt(r2)
	r3 := r2 * r1
	r5 := r3 * r2
	r7 := r5 * r2
	// Monopole.
	phi := nd.Charge / r1
	e := r.Scale(nd.Charge / r3)
	// Dipole.
	dr := nd.DipoleQ.Dot(r)
	phi += dr / r3
	e = e.Add(r.Scale(3 * dr / r5)).Sub(nd.DipoleQ.Scale(1 / r3))
	// Quadrupole (traceless): φ += r·Q·r/(2r⁵),
	// E = −∇φ: E += Q r / r⁵ ... derived: E_i = (5/2) r_i (rQr)/r⁷ − (Qr)_i/r⁵
	qr := nd.QuadQ.MulVec(r)
	rqr := r.Dot(qr)
	phi += rqr / (2 * r5)
	e = e.Add(r.Scale(2.5 * rqr / r7)).Sub(qr.Scale(1 / r5))
	return phi, e
}

// CoulombAtNode evaluates the softened Coulomb potential and field at
// the target position by the per-particle walk of the subtree rooted
// at the given node index.
func (t *Tree) CoulombAtNode(start int, x vec.Vec3, theta, eps float64, skipOrig int) CoulombResult {
	if t.Lanes != nil {
		return t.coulombAtNodeSoA(start, x, theta, eps, skipOrig)
	}
	var res CoulombResult
	t.AccumCoulombWalk(&res, int32(start), x, theta, eps, skipOrig)
	return res
}

// AccumCoulombFar folds one MAC-accepted cell's multipole expansion
// into res.
func (t *Tree) AccumCoulombFar(res *CoulombResult, node int32, x vec.Vec3) {
	nd := &t.Nodes[node]
	phi, e := CoulombCell(x.Sub(nd.Centroid), nd)
	res.Phi += phi
	res.E = res.E.Add(e)
	res.Interactions++
	res.CellAccepts++
}

// AccumCoulombNear folds the particles of leaf `node` into res by
// direct summation.
func (t *Tree) AccumCoulombNear(res *CoulombResult, node int32, x vec.Vec3, eps float64, skipOrig int) {
	nd := &t.Nodes[node]
	for i := nd.First; i < nd.First+nd.Count; i++ {
		orig := t.Order[i]
		if orig == skipOrig {
			continue
		}
		p := &t.sys.Particles[orig]
		phi, e := kernel.Coulomb(x.Sub(p.Pos), p.Charge, eps)
		res.Phi += phi
		res.E = res.E.Add(e)
		res.Interactions++
	}
}

// AccumCoulombWalk runs the per-particle Coulomb traversal (classical
// Barnes-Hut MAC) of the subtree rooted at start, accumulating into
// res.
func (t *Tree) AccumCoulombWalk(res *CoulombResult, start int32, x vec.Vec3, theta, eps float64, skipOrig int) {
	theta2 := theta * theta
	sp := getStack()
	stack := append(*sp, start)
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.Nodes[idx]
		if nd.Count == 0 {
			continue
		}
		if !nd.Leaf {
			r2 := x.Sub(nd.Centroid).Norm2()
			if MACSq(theta2, nd.Size*nd.Size, r2) {
				t.AccumCoulombFar(res, idx, x)
				continue
			}
			res.Rejects++
			for _, ci := range nd.Children {
				if ci >= 0 {
					stack = append(stack, ci)
				}
			}
			continue
		}
		t.AccumCoulombNear(res, idx, x, eps, skipOrig)
	}
	*sp = stack
	putStack(sp)
}

// VortexAtSplit is VortexAtNode with the result separated into the
// near field (direct leaf interactions) and the far field
// (MAC-accepted cluster interactions). The split is the basis of the
// frequency-split coarse propagator suggested in the paper's outlook
// (Section V): far-field contributions change slowly and can be
// refreshed less often than near-field ones. With computeFar false the
// accepted clusters are skipped entirely (their cached contribution is
// reused by the caller), which is where the cost saving comes from.
//
// Unlike the standard traversal, MAC-accepted *leaf* buckets are also
// treated as far clusters (leaves carry full multipole data), so the
// far fraction stays substantial even for small ensembles. A target's
// own leaf always fails the MAC (the target sits inside the cell, so
// s/d > 1), hence self-interactions cannot leak into the far part.
func (t *Tree) VortexAtSplit(start int, x vec.Vec3, theta float64, skipOrig int, pw kernel.Pairwise, useDipole, computeFar bool) (near, far VortexResult) {
	theta2 := theta * theta
	sp := getStack()
	stack := append(*sp, int32(start))
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.Nodes[idx]
		if nd.Count == 0 {
			continue
		}
		r := x.Sub(nd.Centroid)
		if MACSq(theta2, nd.Size*nd.Size, r.Norm2()) {
			if computeFar {
				u, g := pw.VelocityGrad(r, nd.CircSum)
				far.U = far.U.Add(u)
				far.Grad = far.Grad.Add(g)
				if useDipole {
					far.U = far.U.Add(DipoleVelocity(r, nd.Dipole))
				}
				far.Interactions++
				far.CellAccepts++
			}
			continue
		}
		if nd.Leaf {
			for i := nd.First; i < nd.First+nd.Count; i++ {
				orig := t.Order[i]
				if orig == skipOrig {
					continue
				}
				p := &t.sys.Particles[orig]
				u, g := pw.VelocityGrad(x.Sub(p.Pos), p.Alpha)
				near.U = near.U.Add(u)
				near.Grad = near.Grad.Add(g)
				near.Interactions++
			}
			continue
		}
		near.Rejects++
		for _, ci := range nd.Children {
			if ci >= 0 {
				stack = append(stack, ci)
			}
		}
	}
	*sp = stack
	putStack(sp)
	return near, far
}
