// Package machine models the per-operation compute costs of the target
// machine. Together with the virtual clocks of package mpi (message
// latency and bandwidth) it turns an executed parallel algorithm into a
// modeled wall-clock time — the substitution for the paper's Blue
// Gene/P installation JUGENE (see DESIGN.md).
//
// BlueGeneP returns fixed constants in the range of the 850 MHz
// PowerPC 450 cores of JUGENE, used for the figure-shape
// reproductions; Scale derives faster or slower cores from it.
package machine

// CostModel holds per-operation compute costs in seconds.
type CostModel struct {
	// VortexInteraction is the cost of one particle–particle or
	// particle–cluster interaction of the vortex discipline (velocity
	// plus gradient).
	VortexInteraction float64
	// CoulombInteraction is the same for the Coulomb discipline.
	CoulombInteraction float64
	// SortPerKey is the domain-decomposition cost per local particle
	// and per log2(N_local) factor (key generation + comparison sort).
	SortPerKey float64
	// TreeBuildPerParticle is the local tree construction cost per
	// particle (insertion + moment accumulation).
	TreeBuildPerParticle float64
	// BranchPerNode is the packing/unpacking cost per branch node
	// exchanged.
	BranchPerNode float64
}

// BlueGeneP returns compute costs in the range of a JUGENE core
// (850 MHz PPC450, ~3.4 GFlop/s peak, a few percent of peak for
// irregular tree traversal). Absolute values set the y-axis of the
// scaling figures; the reproduced quantity is the curve shape.
func BlueGeneP() CostModel {
	return CostModel{
		VortexInteraction:    2.5e-7,
		CoulombInteraction:   1.2e-7,
		SortPerKey:           2.0e-8,
		TreeBuildPerParticle: 6.0e-7,
		BranchPerNode:        2.0e-7,
	}
}

// Scale returns the model with every cost multiplied by f (e.g. to
// model a faster or slower core).
func (m CostModel) Scale(f float64) CostModel {
	m.VortexInteraction *= f
	m.CoulombInteraction *= f
	m.SortPerKey *= f
	m.TreeBuildPerParticle *= f
	m.BranchPerNode *= f
	return m
}

// TraversalWork estimates the number of interactions per particle for a
// Barnes-Hut traversal over n particles at MAC parameter theta. The
// form c₀ + c₁·log₂(n)/θ² follows the classical Barnes-Hut analysis;
// the constants are fit against executed traversals of this code on
// homogeneous clouds (see the hot package tests).
func TraversalWork(n int, theta float64) float64 {
	if n <= 1 {
		return 0
	}
	if theta <= 0 {
		return float64(n - 1) // direct summation
	}
	log2n := 0.0
	for m := n; m > 1; m >>= 1 {
		log2n++
	}
	w := 12 + 4.2*log2n/(theta*theta)
	if w > float64(n-1) {
		w = float64(n - 1)
	}
	return w
}
