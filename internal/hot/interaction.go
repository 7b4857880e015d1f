package hot

// The two-phase (interaction-list) traversal of the distributed tree,
// mirroring internal/tree/interaction.go at the global level: one
// MAC-driven walk per local leaf group classifies every global cell
// conservatively, emitting
//
//   - far items (group-accepted remote/shared cells),
//   - near items (remote leaves, particles fetched once per group),
//   - ambiguous items (resolved per particle by the exact vortexWalk/
//     coulombWalk, accumulating into the running result), and
//   - local segments (owner-local branch cells, delegated to the local
//     tree's list builder; evaluated into a sub-result that is then
//     added, exactly like the per-particle walk's VortexAtNode call).
//
// Conservative classification plus exact fallback keeps the list
// evaluation bitwise identical to a per-particle walk of the global
// tree, and — because a group-opened cell is opened by *every*
// particle of the group — the set of remote cells fetched is identical
// too.

import (
	"sync"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/tree"
	"repro/internal/vec"
)

type hotItemKind uint8

const (
	hFar hotItemKind = iota
	hNear
	hAmb
	hLocal
)

// hotItem is one entry of a global interaction list.
type hotItem struct {
	kind hotItemKind
	pk   uint64 // global cell (hFar, hNear, hAmb)
	// Local segment (hLocal): the slice [segLo, segHi) of
	// hotList.llist.Items built for one owner-local branch cell, plus
	// the cells opened while building it.
	segLo, segHi int
	opens        int64
}

// hotList is the interaction list of one leaf group against the global
// tree.
type hotList struct {
	items []hotItem
	llist tree.InteractionList // backing storage for hLocal segments
	opens int64                // group-opened global cells
}

func (hl *hotList) reset() {
	hl.items = hl.items[:0]
	hl.llist.Reset()
	hl.opens = 0
}

var hotListPool = sync.Pool{
	New: func() any { return &hotList{items: make([]hotItem, 0, 64)} },
}

func getHotList() *hotList   { return hotListPool.Get().(*hotList) }
func putHotList(hl *hotList) { hl.reset(); hotListPool.Put(hl) }

// buildGroupList performs the group-level walk of the global tree for
// the leaf-group box (center gc, per-axis half-extents ge — the tight
// bounding box of the group's particles). Remote cells that the whole
// group opens — and remote leaves the group reaches — are fetched
// here, once per group instead of once per particle.
func (rt *evalRT) buildGroupList(hl *hotList, gc, ge vec.Vec3) {
	theta := rt.s.cfg.Theta
	theta2 := theta * theta
	stack := make([]uint64, 0, 64)
	stack = append(stack, 1)
	for len(stack) > 0 {
		pk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := rt.getCell(pk)
		if g == nil || g.nd.Count == 0 {
			continue
		}
		if g.owner == rt.me {
			idx := rt.ltree.FindCell(pk)
			if idx < 0 {
				panic("hot: local branch cell missing from local tree")
			}
			segLo := len(hl.llist.Items)
			opens0 := hl.llist.Opens
			rt.ltree.AppendInteractionList(&hl.llist, tree.MACBarnesHut, theta, int32(idx), gc, ge)
			hl.items = append(hl.items, hotItem{
				kind: hLocal, segLo: segLo, segHi: len(hl.llist.Items),
				opens: hl.llist.Opens - opens0,
			})
			continue
		}
		if g.nd.Leaf {
			if rt.cellParts(g) == nil {
				rt.fetch(g)
			}
			hl.items = append(hl.items, hotItem{kind: hNear, pk: pk})
			continue
		}
		switch tree.ClassifyGroup(tree.MACBarnesHut, theta2, &g.nd, gc, ge) {
		case tree.GroupAccept:
			hl.items = append(hl.items, hotItem{kind: hFar, pk: pk})
		case tree.GroupOpen:
			hl.opens++
			children := rt.cellChildren(g)
			if children == nil {
				rt.fetch(g)
				children = rt.cellChildren(g)
			}
			stack = append(stack, children...)
		default:
			hl.items = append(hl.items, hotItem{kind: hAmb, pk: pk})
		}
	}
}

// vortexAtList evaluates one target against the group's interaction
// list; the summation order matches a vortexWalk from the root exactly.
//
//lint:hotpath per-target list evaluation: runs once per target particle per evaluation
func (rt *evalRT) vortexAtList(hl *hotList, x vec.Vec3, skipLocal int) tree.VortexResult {
	var res tree.VortexResult
	res.Rejects = hl.opens
	theta := rt.s.cfg.Theta
	for i := range hl.items {
		it := &hl.items[i]
		switch it.kind {
		case hLocal:
			view := tree.InteractionList{Items: hl.llist.Items[it.segLo:it.segHi], Opens: it.opens}
			sub := rt.ltree.EvalVortexList(&view, tree.MACBarnesHut, theta, x, skipLocal, rt.pw, rt.s.cfg.Dipole)
			res.U = res.U.Add(sub.U)
			res.Grad = res.Grad.Add(sub.Grad)
			res.AddCounts(&sub)
		case hFar:
			rt.accumVortexFar(&res, rt.getCell(it.pk), x)
		case hNear:
			g := rt.getCell(it.pk)
			rt.accumVortexParts(&res, rt.cellParts(g), x)
		default:
			rt.vortexWalk(&res, it.pk, x, skipLocal)
		}
	}
	return res
}

// coulombAtList is vortexAtList for the Coulomb discipline.
//
//lint:hotpath per-target list evaluation: runs once per target particle per evaluation
func (rt *evalRT) coulombAtList(hl *hotList, x vec.Vec3, skipLocal int) tree.CoulombResult {
	var res tree.CoulombResult
	res.Rejects = hl.opens
	theta := rt.s.cfg.Theta
	eps := rt.s.cfg.Eps
	for i := range hl.items {
		it := &hl.items[i]
		switch it.kind {
		case hLocal:
			view := tree.InteractionList{Items: hl.llist.Items[it.segLo:it.segHi], Opens: it.opens}
			sub := rt.ltree.EvalCoulombList(&view, theta, eps, x, skipLocal)
			res.Phi += sub.Phi
			res.E = res.E.Add(sub.E)
			res.AddCounts(&sub)
		case hFar:
			rt.accumCoulombFar(&res, rt.getCell(it.pk), x)
		case hNear:
			g := rt.getCell(it.pk)
			rt.accumCoulombParts(&res, rt.cellParts(g), x)
		default:
			rt.coulombWalk(&res, it.pk, x, skipLocal)
		}
	}
	return res
}

// traverseHybrid runs the Pthreads-analog traversal: Threads workers
// claim and steal leaf-group ranges with the work-stealing scheduler
// while a communication goroutine serves remote-cell requests, routes
// replies, and executes the termination protocol (every rank sends
// DONE to rank 0 — including rank 0 to itself — and rank 0 broadcasts
// SHUTDOWN once all have finished). The modeled compute time is
// divided by the worker count: the node's cores traverse concurrently.
// Steal counts and per-worker busy time land in Stats and telemetry
// (hot.steals, hot.worker_busy).
func (rt *evalRT) traverseHybrid(nGroups int, evalRange func(lo, hi int, advanceDiv float64) travCounts) {
	p := rt.comm.Size()
	commDone := make(chan struct{})
	if p > 1 {
		go rt.commLoop(commDone)
	} else {
		close(commDone)
	}
	workers := rt.s.cfg.Threads
	if workers > nGroups && nGroups > 0 {
		workers = nGroups
	}
	var inter, accepts, rejects atomic.Int64
	ss := sched.Run(workers, nGroups, rt.s.cfg.StealGrain, func(_, lo, hi int) {
		tc := evalRange(lo, hi, float64(workers))
		inter.Add(tc.inter)
		accepts.Add(tc.accepts)
		rejects.Add(tc.rejects)
	})
	rt.stats.Interactions += inter.Load()
	rt.stats.MACAccepts += accepts.Load()
	rt.stats.MACRejects += rejects.Load()
	rt.stats.Steals += ss.Steals
	for _, b := range ss.Busy {
		rt.s.probe.workerBusy.Observe(b)
	}
	if p > 1 {
		rt.comm.Send(0, tagDone, nil)
		<-commDone
	}
}
