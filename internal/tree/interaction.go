package tree

import (
	"math"
	"sync"

	"repro/internal/kernel"
	"repro/internal/vec"
)

// This file implements the two-phase interaction-list evaluator (the
// PEPC-style amortized traversal, cf. Dubinski's parallel tree code):
// instead of walking the tree once per particle, one MAC-driven walk
// per *leaf group* classifies every encountered cell for the whole
// group at once and emits a flat interaction list, which is then
// evaluated per particle in tight loops with no tree navigation.
//
// The group-level classification is conservative:
//
//   - GroupAccept: the cell passes the MAC for every possible target
//     in the group box → one far-field (particle–cell) item.
//   - GroupOpen: the cell fails the MAC for every possible target →
//     opened exactly as the per-particle walk would, children pushed.
//   - GroupAmbiguous: the decision differs across the group box → the
//     item carries the cell and the evaluator falls back to the exact
//     per-particle walk for that subtree.
//
// Because ambiguous cells fall back to the *same* per-particle
// predicate and stack discipline as the per-particle walk
// (VortexAtNodeMAC/CoulombAtNode), and because the group walk pushes
// children in the same order, the list evaluation sums exactly the
// same floating-point terms in exactly the same order as that walk
// would: the two are bitwise equal, which is what the list-vs-walk
// tests pin.

// GroupClass is the outcome of the conservative group-level MAC test.
type GroupClass int

const (
	// GroupAccept: the MAC holds for every point of the group box.
	GroupAccept GroupClass = iota
	// GroupOpen: the MAC fails for every point of the group box.
	GroupOpen
	// GroupAmbiguous: the MAC outcome varies across the group box.
	GroupAmbiguous
)

// classifyMargin pushes marginal cells into the ambiguous (exact)
// path, so floating-point rounding in the group bounds can never
// produce a group decision that contradicts the per-particle
// predicate. ~8 ulps would suffice; 1e-9 is comfortably conservative
// and costs only a slightly larger ambiguous fringe.
const classifyMargin = 1e-9

// boxPointDist2 returns lower and upper bounds on the squared distance
// from any point of the axis-aligned box (center gc, per-axis
// half-extents ge) to the point p.
func boxPointDist2(gc, ge vec.Vec3, p vec.Vec3) (dmin2, dmax2 float64) {
	for _, ah := range [3][2]float64{
		{math.Abs(p.X - gc.X), ge.X},
		{math.Abs(p.Y - gc.Y), ge.Y},
		{math.Abs(p.Z - gc.Z), ge.Z},
	} {
		lo := ah[0] - ah[1]
		if lo < 0 {
			lo = 0
		}
		hi := ah[0] + ah[1]
		dmin2 += lo * lo
		dmax2 += hi * hi
	}
	return dmin2, dmax2
}

// boxBoxGap2 returns the squared gap between the cell's box and the
// group box (zero when they touch or overlap) — a lower bound on
// boxDistance2(nd, x) over all x in the group box.
func boxBoxGap2(nd *Node, gc, ge vec.Vec3) float64 {
	h := nd.Size / 2
	var g2 float64
	for _, d := range [3]float64{
		math.Abs(nd.Center.X-gc.X) - (h + ge.X),
		math.Abs(nd.Center.Y-gc.Y) - (h + ge.Y),
		math.Abs(nd.Center.Z-gc.Z) - (h + ge.Z),
	} {
		if d > 0 {
			g2 += d * d
		}
	}
	return g2
}

// ClassifyGroup performs the conservative group-level MAC test of cell
// nd against the group box (center gc, per-axis half-extents ge);
// theta2 is θ². Callers pass the tight bounding box of the group's
// particles (GroupBounds), which keeps the ambiguous fringe thin even
// when the enclosing cell is mostly empty. It is exported so the
// distributed evaluator (package hot) can reuse the exact same
// classification for global cells.
func ClassifyGroup(mac MACKind, theta2 float64, nd *Node, gc, ge vec.Vec3) GroupClass {
	var s2, dmin2, dmax2 float64
	switch mac {
	case MACBMax:
		s2 = nd.BMax * nd.BMax
		dmin2, dmax2 = boxPointDist2(gc, ge, nd.Centroid)
	case MACMinDist:
		s2 = nd.Size * nd.Size
		dmin2 = boxBoxGap2(nd, gc, ge)
		// boxDistance(nd, ·) is 1-Lipschitz, so its maximum over the
		// group box is at most its value at the center plus the group
		// half diagonal.
		ub := math.Sqrt(boxDistance2(nd, gc)) + math.Sqrt(ge.Norm2())
		dmax2 = ub * ub
	default:
		s2 = nd.Size * nd.Size
		dmin2, dmax2 = boxPointDist2(gc, ge, nd.Centroid)
	}
	if dmin2 > 0 && s2 <= theta2*dmin2*(1-classifyMargin) {
		return GroupAccept
	}
	if s2 > theta2*dmax2*(1+classifyMargin) {
		return GroupOpen
	}
	return GroupAmbiguous
}

// ItemKind tags one entry of an interaction list.
type ItemKind uint8

const (
	// ItemFar is a MAC-accepted cell: one multipole evaluation per
	// target.
	ItemFar ItemKind = iota
	// ItemNear is a leaf cell: direct particle–particle summation.
	ItemNear
	// ItemAmbiguous is a cell whose group-level MAC test was
	// inconclusive: the evaluator runs the exact per-particle walk on
	// its subtree.
	ItemAmbiguous
)

// ListItem is one interaction-list entry: a cell index plus how to
// evaluate it.
type ListItem struct {
	Kind ItemKind
	Node int32
}

// InteractionList is the output of one group walk: the items in
// evaluation order plus the number of cells the walk opened (each
// opened cell counts one MAC reject per target particle).
type InteractionList struct {
	Items []ListItem
	Opens int64
}

// Reset empties the list for reuse.
func (l *InteractionList) Reset() {
	l.Items = l.Items[:0]
	l.Opens = 0
}

// listPool recycles interaction lists across leaf groups; a group walk
// on a clustered distribution can emit hundreds of items and runs once
// per leaf, so per-walk allocations would dominate.
var listPool = sync.Pool{
	New: func() any { return &InteractionList{Items: make([]ListItem, 0, 256)} },
}

// GetInteractionList returns a cleared list from the pool.
func GetInteractionList() *InteractionList { return listPool.Get().(*InteractionList) }

// PutInteractionList returns a list to the pool.
func PutInteractionList(l *InteractionList) {
	l.Reset()
	listPool.Put(l)
}

// AppendInteractionList performs the group-level MAC walk of the
// subtree rooted at start for the group box (center gc, per-axis
// half-extents ge) and appends the resulting items to list. The walk
// uses the same stack discipline as the per-particle traversal
// (children pushed in order, popped last-first), so evaluating the
// items in list order reproduces the per-particle evaluation order
// exactly.
func (t *Tree) AppendInteractionList(list *InteractionList, mac MACKind, theta float64, start int32, gc, ge vec.Vec3) {
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
		if nd.Leaf {
			// The per-particle walk never MAC-accepts a leaf; direct
			// summation always.
			list.Items = append(list.Items, ListItem{Kind: ItemNear, Node: idx})
			continue
		}
		switch ClassifyGroup(mac, theta2, nd, gc, ge) {
		case GroupAccept:
			list.Items = append(list.Items, ListItem{Kind: ItemFar, Node: idx})
		case GroupOpen:
			list.Opens++
			for _, ci := range nd.Children {
				if ci >= 0 {
					stack = append(stack, ci)
				}
			}
		default:
			list.Items = append(list.Items, ListItem{Kind: ItemAmbiguous, Node: idx})
		}
	}
	*sp = stack
	putStack(sp)
}

// LeafGroups returns the indices of the non-empty leaf cells in Morton
// (depth-first preorder) order — the target groups of the list
// evaluator.
func (t *Tree) LeafGroups() []int32 {
	out := make([]int32, 0, 1+len(t.Nodes)/2)
	for i := range t.Nodes {
		if t.Nodes[i].Leaf && t.Nodes[i].Count > 0 {
			out = append(out, int32(i))
		}
	}
	return out
}

// GroupBounds returns the tight axis-aligned bounding box — center and
// per-axis half-extents — of the sorted particle range
// [first, first+count). Classifying against the tight box instead of
// the enclosing cell (which is mostly empty on clustered
// distributions) keeps the ambiguous fringe of the group walk thin.
// The center/extent rounding can place a boundary particle a few ulps
// outside the box; classifyMargin absorbs that.
func (t *Tree) GroupBounds(first, count int) (gc, ge vec.Vec3) {
	if l := t.Lanes; l != nil {
		// Position lanes hold the same bits in sorted order; the same
		// min/max chain walks them linearly.
		lo := vec.V3(l.X[first], l.Y[first], l.Z[first])
		hi := lo
		for i := first + 1; i < first+count; i++ {
			lo.X = math.Min(lo.X, l.X[i])
			lo.Y = math.Min(lo.Y, l.Y[i])
			lo.Z = math.Min(lo.Z, l.Z[i])
			hi.X = math.Max(hi.X, l.X[i])
			hi.Y = math.Max(hi.Y, l.Y[i])
			hi.Z = math.Max(hi.Z, l.Z[i])
		}
		gc = lo.Add(hi).Scale(0.5)
		ge = hi.Sub(lo).Scale(0.5)
		return gc, ge
	}
	lo := t.sys.Particles[t.Order[first]].Pos
	hi := lo
	for i := first + 1; i < first+count; i++ {
		p := t.sys.Particles[t.Order[i]].Pos
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		lo.Z = math.Min(lo.Z, p.Z)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
		hi.Z = math.Max(hi.Z, p.Z)
	}
	gc = lo.Add(hi).Scale(0.5)
	ge = hi.Sub(lo).Scale(0.5)
	return gc, ge
}

// Groups returns the target groups of the two-phase traversal: the
// shallowest non-empty cells holding at most cap particles, in
// depth-first preorder. A group may be an ancestor of several leaves,
// so the list-build walk is amortized over up to cap targets even on a
// classical (LeafCap = 1) tree — the regime where per-particle walks
// are most expensive. Each group's particles are the contiguous range
// [First, First+Count) of t.Order. cap ≤ LeafCap degenerates to
// LeafGroups (every internal cell holds more than LeafCap particles).
func (t *Tree) Groups(cap int) []int32 {
	return t.AppendGroups(make([]int32, 0, 64), cap)
}

// AppendGroups is Groups appending into buf (pass buf[:0] to reuse the
// previous step's capacity — the solver's arena contract).
func (t *Tree) AppendGroups(buf []int32, cap int) []int32 {
	if cap < 1 {
		cap = 1
	}
	out := buf
	sp := getStack()
	stack := append(*sp, int32(t.Root))
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.Nodes[idx]
		if nd.Count == 0 {
			continue
		}
		if nd.Leaf || nd.Count <= cap {
			out = append(out, idx)
			continue
		}
		for c := 7; c >= 0; c-- {
			if ci := nd.Children[c]; ci >= 0 {
				stack = append(stack, ci)
			}
		}
	}
	*sp = stack
	putStack(sp)
	return out
}

// EvalVortexList evaluates one target at x against a prepared
// interaction list: far items as multipoles, near items as direct
// sums, ambiguous items via the exact per-particle walk accumulating
// into the running result. The summation order is identical to
// VortexAtNodeMAC on the subtree the list was built from.
func (t *Tree) EvalVortexList(list *InteractionList, mac MACKind, theta float64, x vec.Vec3, skipOrig int, pw kernel.Pairwise, useDipole bool) VortexResult {
	if t.Lanes != nil {
		return t.evalVortexListSoA(list, mac, theta, x, skipOrig, pw, useDipole)
	}
	var res VortexResult
	res.Rejects = list.Opens
	for _, it := range list.Items {
		switch it.Kind {
		case ItemFar:
			t.AccumVortexFar(&res, it.Node, x, pw, useDipole)
		case ItemNear:
			t.AccumVortexNear(&res, it.Node, x, skipOrig, pw)
		default:
			t.AccumVortexWalk(&res, mac, it.Node, x, theta, skipOrig, pw, useDipole)
		}
	}
	return res
}

// EvalCoulombList is EvalVortexList for the Coulomb evaluator (which
// always uses the classical Barnes-Hut criterion).
func (t *Tree) EvalCoulombList(list *InteractionList, theta, eps float64, x vec.Vec3, skipOrig int) CoulombResult {
	if t.Lanes != nil {
		return t.evalCoulombListSoA(list, theta, eps, x, skipOrig)
	}
	var res CoulombResult
	res.Rejects = list.Opens
	for _, it := range list.Items {
		switch it.Kind {
		case ItemFar:
			t.AccumCoulombFar(&res, it.Node, x)
		case ItemNear:
			t.AccumCoulombNear(&res, it.Node, x, eps, skipOrig)
		default:
			t.AccumCoulombWalk(&res, it.Node, x, theta, eps, skipOrig)
		}
	}
	return res
}
