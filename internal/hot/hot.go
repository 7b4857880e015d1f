// Package hot implements the parallel hashed-oct-tree Barnes-Hut code
// — the analog of PEPC, the Pretty Efficient Parallel Coulomb Solver —
// on top of the message-passing runtime of package mpi (Section III-A
// of the paper).
//
// One force evaluation performs, exactly as PEPC does:
//
//  1. Domain decomposition: Morton keys are computed for the local
//     particles and a sample sort along the space-filling curve
//     redistributes them so that every rank owns a contiguous key
//     range.
//  2. Local tree construction over the rank's particles (package tree),
//     with cells forced to subdivide across ownership boundaries.
//  3. Branch-node exchange: the minimal set of fully-owned cells
//     covering each rank's key range is allgathered (ring algorithm),
//     and every rank assembles the shared top of the global tree above
//     the branches.
//  4. Tree traversal with the MAC s/d ≤ θ. Cells below remote branches
//     are fetched on demand with a request/reply protocol; every rank
//     services incoming requests while traversing — the analog of
//     PEPC's communicator thread overlapping with its worker threads.
//  5. Results are routed back to the particles' original owners, so
//     the caller's particle layout (and therefore the ODE state carried
//     by the time integrators) never changes.
package hot

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Message tags used on the spatial communicator during an evaluation.
// The communicator must not carry other traffic while Eval runs.
const (
	tagRedistribute = 900001
	tagResult       = 900002
	tagReq          = 900003
	tagReply        = 900004
	tagDone         = 900005
	tagShutdown     = 900006
)

// Config parameterizes the parallel tree solver.
type Config struct {
	// Sm and Scheme select the vortex kernel and stretching form.
	Sm     kernel.Smoothing
	Scheme kernel.Scheme
	// Theta is the MAC parameter.
	Theta float64
	// LeafCap is the leaf bucket size (default 8).
	LeafCap int
	// Dipole enables cluster dipole corrections for vortex velocities.
	Dipole bool
	// Eps is the Plummer softening of the Coulomb discipline.
	Eps float64
	// Model, when non-nil, advances the rank's virtual clock with the
	// modeled compute cost of each phase.
	Model *machine.CostModel
	// Balance enables work-based domain decomposition: the splitter
	// choice weights each particle by its interaction count from the
	// previous evaluation, the load-balancing strategy of PEPC. The
	// first evaluation (no history) falls back to uniform weights.
	Balance bool
	// Threads is the number of traversal worker goroutines per rank —
	// the analog of PEPC's node-level Pthreads layer (Section III-A):
	// workers traverse the tree while a dedicated communication
	// goroutine serves remote-cell requests and routes replies, so
	// computation and communication overlap. Values ≤ 1 select the
	// synchronous single-threaded path.
	Threads int
	// Branch selects the branch-node exchange algorithm: BranchRing
	// (the zero value) is the reference ring allgather with on-demand
	// remote fetches; BranchBatched batches the exchange into ⌈log2 P⌉
	// Bruck rounds, prunes and prefetches each receiver's essential
	// cells ahead of the traversal, and overlaps the prefetch walks
	// with the exchange (DESIGN.md §15). Results are bitwise identical
	// either way.
	Branch BranchMode
	// StealGrain is the work-stealing chunk size in leaf groups for the
	// hybrid traversal (≤0: automatic).
	StealGrain int
	// Tel, when non-nil, receives this rank's per-phase timings and
	// work counters (see probe.go for the metric names). The registry
	// must be private to the rank; merge Snapshots across ranks
	// afterwards. A nil registry costs nothing on the hot path.
	Tel *telemetry.Registry
	// Hook, when non-nil, observes every locally built tree before use
	// (guard layer: moment-flip injection + ABFT verification with
	// rebuild on detection). The rebuild loop is collective-free, so
	// ranks may retry independently. Nil costs nothing.
	Hook tree.BuildHook
}

// Stats describes the work of the most recent evaluation on this rank.
type Stats struct {
	NLocal        int   // particles owned after redistribution
	LocalBranches int   // branch nodes contributed by this rank
	TotalBranches int   // branch nodes in the global tree
	Interactions  int64 // MAC-accepted cells + direct particle pairs
	Fetches       int64 // remote cell fetch requests issued
	Prefetched    int64 // remote cells resolved up front by BranchBatched
	Steals        int64 // work-stealing operations of the hybrid traversal

	// MACAccepts and MACRejects split the traversal decisions: cells
	// accepted as single interaction partners vs cells the MAC opened.
	// The direct particle-pair share is Interactions − MACAccepts.
	MACAccepts, MACRejects int64

	// WorkImbalance is max(rank work)/mean(rank work) for this
	// evaluation (1 = perfectly balanced).
	WorkImbalance float64

	// Per-phase durations: virtual seconds when a Model drives the
	// rank clocks, host wall-clock seconds otherwise.
	TDecomp, TBuild, TBranch, TTraverse float64
}

// Solver is one rank's view of the parallel tree code.
type Solver struct {
	comm *mpi.Comm
	cfg  Config

	// Last holds the statistics of the most recent evaluation.
	Last Stats

	// probe holds the pre-resolved telemetry handles (all nil without
	// cfg.Tel) and meter attributes modeled compute charges per phase.
	probe probe
	meter *machine.Meter

	// workWeights holds, per origin-local particle, the interaction
	// count of the previous evaluation (Balance only).
	workWeights []float64
}

// New returns a solver bound to the given (spatial) communicator.
func New(comm *mpi.Comm, cfg Config) *Solver {
	if cfg.LeafCap < 1 {
		cfg.LeafCap = 8
	}
	s := &Solver{comm: comm, cfg: cfg, probe: newProbe(cfg.Tel)}
	if cfg.Model != nil {
		s.meter = machine.NewMeter(*cfg.Model, cfg.Tel)
	}
	if cfg.Tel != nil {
		comm.AttachTelemetry(cfg.Tel)
	}
	return s
}

// BlockPartition returns rank's contiguous share of the full system;
// it is how callers establish the initial (integrator-visible)
// ownership.
func BlockPartition(full *particle.System, rank, size int) *particle.System {
	n := full.N()
	lo := n * rank / size
	hi := n * (rank + 1) / size
	out := &particle.System{Sigma: full.Sigma, Particles: make([]particle.Particle, hi-lo)}
	copy(out.Particles, full.Particles[lo:hi])
	return out
}

// Eval computes vortex velocities and stretching terms for the local
// particles of sys (this rank's share of the global system). All ranks
// of the communicator must call Eval collectively.
func (s *Solver) Eval(sys *particle.System, vel, stretch []vec.Vec3) {
	if len(vel) != sys.N() || len(stretch) != sys.N() {
		panic("hot: Eval output slices must have length N")
	}
	s.run(sys, tree.Vortex, vel, stretch, nil, nil)
}

// Coulomb computes the softened Coulomb potential and field for the
// local particles. Collective.
func (s *Solver) Coulomb(sys *particle.System, pot []float64, f []vec.Vec3) {
	if len(pot) != sys.N() || len(f) != sys.N() {
		panic("hot: Coulomb output slices must have length N")
	}
	s.run(sys, tree.Coulomb, nil, nil, pot, f)
}

// gcell is a node of the rank's view of the global tree: shared top
// cells (owner −1), branch cells, and fetched remote cells.
type gcell struct {
	nd       tree.Node
	pkey     uint64
	owner    int
	children []uint64            // known child pkeys (nil = not fetched)
	parts    []particle.Particle // inline particles of remote leaves
}

// travCounts aggregates the traversal counters of a target range.
type travCounts struct {
	inter, accepts, rejects int64
}

// evalRT is the per-evaluation runtime state of a rank.
type evalRT struct {
	s     *Solver
	comm  *mpi.Comm
	me    int
	disc  tree.Discipline
	dom   tree.Domain
	cells map[uint64]*gcell
	ltree *tree.Tree // nil when the rank owns no particles
	local *particle.System
	pw    kernel.Pairwise

	doneSeen int
	stats    *Stats

	// prefetchReplies holds the batched-exchange payloads between
	// batchedBranchExchange and installPrefetch (BranchBatched only).
	prefetchReplies [][]byte

	// Hybrid (threaded) traversal state.
	hybrid   bool
	mu       sync.RWMutex             // guards cells and gcell children/parts
	pendMu   sync.Mutex               // guards pending and inflight
	pending  map[uint64]chan []byte   // reply routing by requested pkey
	inflight map[uint64]chan struct{} // fetch deduplication
	fetches  atomic.Int64

	// walkPool recycles traversal stacks across per-particle walks.
	// Hybrid mode runs several walker goroutines per rank, so the
	// scratch must be pooled rather than a plain evalRT field.
	walkPool sync.Pool
}

// walkStack is the pooled traversal scratch of vortexWalk/coulombWalk:
// pooling it makes the steady-state per-particle walk allocation-free
// (the buffer grows once to the deepest frontier and is then reused).
type walkStack struct{ buf []uint64 }

// getWalk pops a traversal stack from the pool, seeded with startPk.
func (rt *evalRT) getWalk(startPk uint64) *walkStack {
	ws, _ := rt.walkPool.Get().(*walkStack)
	if ws == nil {
		ws = new(walkStack)
	}
	ws.buf = append(ws.buf[:0], startPk)
	return ws
}

func (s *Solver) run(sys *particle.System, disc tree.Discipline, vel, stretch []vec.Vec3, pot []float64, ef []vec.Vec3) {
	comm := s.comm
	p := comm.Size()
	me := comm.Rank()
	s.Last = Stats{}
	st := &s.Last

	// Phase clock: the virtual rank clock when a cost model drives it,
	// host wall-clock otherwise (so unmodeled runs still get a
	// meaningful per-phase breakdown).
	clock := comm.Now
	if s.cfg.Model == nil {
		clock = telemetry.Wall
	}
	t0 := clock()
	telemetry.LabelPhase(PhaseDecomp)

	// Phase 1: global domain.
	lo, hi := sys.Bounds()
	if sys.N() == 0 {
		lo = vec.V3(math.Inf(1), math.Inf(1), math.Inf(1))
		hi = vec.V3(math.Inf(-1), math.Inf(-1), math.Inf(-1))
	}
	mins := comm.AllreduceFloat64([]float64{lo.X, lo.Y, lo.Z}, mpi.OpMin)
	maxs := comm.AllreduceFloat64([]float64{hi.X, hi.Y, hi.Z}, mpi.OpMax)
	dom := tree.NewDomain(vec.V3(mins[0], mins[1], mins[2]), vec.V3(maxs[0], maxs[1], maxs[2]))

	// Phase 2: sample sort along the space-filling curve.
	keys := make([]uint64, sys.N())
	order := make([]int, sys.N())
	for i := range keys {
		keys[i] = dom.Key(sys.Particles[i].Pos)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	nGlobal := comm.AllreduceInt64([]int64{int64(sys.N())}, mpi.OpSum)[0]
	if s.meter != nil && sys.N() > 0 {
		comm.Advance(s.meter.Sort(sys.N(), nGlobal))
	}
	weightOf := func(i int) float64 {
		if !s.cfg.Balance || len(s.workWeights) != sys.N() || s.workWeights[i] <= 0 {
			return 1
		}
		return s.workWeights[i]
	}
	weights := make([]float64, sys.N())
	for i := range weights {
		weights[i] = weightOf(i)
	}
	splitters := sampleSplitters(comm, keys, order, weights)
	myLo, myHi := ownedRange(splitters, me, p)

	// Route each particle to its owner.
	blocks := make([][]byte, p)
	for _, i := range order {
		owner := keyOwner(splitters, keys[i], p)
		blocks[owner] = encodeParticle(blocks[owner], &sys.Particles[i], me, i, weights[i])
	}
	recv := comm.Alltoall(blocks)
	local := &particle.System{Sigma: sys.Sigma}
	var originRank, originIdx []int
	for _, raw := range recv {
		for off := 0; off+particleRecBytes <= len(raw); off += particleRecBytes {
			pp, orank, oidx, _ := decodeParticle(raw[off:])
			local.Particles = append(local.Particles, pp)
			originRank = append(originRank, orank)
			originIdx = append(originIdx, oidx)
		}
	}
	st.NLocal = local.N()
	t1 := clock()
	st.TDecomp = t1 - t0
	s.probe.decomp.Observe(st.TDecomp)
	telemetry.LabelPhase(PhaseBuild)

	// Phase 3: local tree.
	rt := &evalRT{
		s: s, comm: comm, me: me, disc: disc, dom: dom,
		cells: make(map[uint64]*gcell), local: local,
		pw:    kernel.Pairwise{Sm: s.cfg.Sm, Sigma: sys.Sigma},
		stats: st,
	}
	if s.cfg.Threads > 1 {
		rt.hybrid = true
		rt.pending = make(map[uint64]chan []byte)
		rt.inflight = make(map[uint64]chan struct{})
	}
	if local.N() > 0 {
		rt.ltree = tree.BuildWithHook(s.cfg.Hook, local, tree.BuildConfig{
			LeafCap:    s.cfg.LeafCap,
			Discipline: disc,
			Domain:     &dom,
			OwnedLo:    myLo, OwnedHi: myHi, OwnedSet: true,
			Layout: particle.LayoutSoA,
		})
		if s.meter != nil {
			comm.Advance(s.meter.TreeBuild(local.N()))
		}
	}
	t2 := clock()
	st.TBuild = t2 - t1
	s.probe.build.Observe(st.TBuild)
	telemetry.LabelPhase(PhaseBranch)

	// Phase 4: branch exchange and shared top tree.
	var myBranches []int
	if rt.ltree != nil {
		myBranches = branchNodes(rt.ltree, myLo, myHi)
	}
	st.LocalBranches = len(myBranches)
	var packed []byte
	for _, idx := range myBranches {
		packed = encodeCell(packed, &rt.ltree.Nodes[idx], disc)
	}
	if s.meter != nil {
		comm.Advance(s.meter.Branches(len(myBranches)))
	}
	var allBranches [][]byte
	if s.cfg.Branch == BranchBatched {
		allBranches = rt.batchedBranchExchange(packed, myBranches)
	} else {
		allBranches = comm.Allgather(packed)
	}
	total := 0
	for owner, raw := range allBranches {
		for off := 0; off+cellRecBytes <= len(raw); off += cellRecBytes {
			nd, pkey := decodeCell(raw[off:], disc, dom)
			rt.cells[pkey] = &gcell{nd: nd, pkey: pkey, owner: owner}
			total++
		}
	}
	st.TotalBranches = total
	if s.meter != nil {
		comm.Advance(s.meter.Branches(total))
	}
	rt.buildTop()
	rt.installPrefetch()
	t3 := clock()
	st.TBranch = t3 - t2
	s.probe.branch.Observe(st.TBranch)
	telemetry.LabelPhase(PhaseTraverse)

	// Phase 5: traversal with on-demand remote fetch — one interaction
	// list per local leaf group, evaluated synchronously or by the
	// hybrid worker pool (worker goroutines + communication goroutine).
	// A rank without local particles has no groups but still runs the
	// termination protocol, serving its peers' fetches.
	outVel := make([]vec.Vec3, local.N())
	outStr := make([]vec.Vec3, local.N())
	outPot := make([]float64, local.N())
	outE := make([]vec.Vec3, local.N())
	workPer := make([]float64, local.N())
	var groups []int32
	if rt.ltree != nil {
		groups = rt.ltree.LeafGroups()
	}
	// groupRange evaluates leaf groups [glo, ghi): one interaction-list
	// build per group, then per-particle list evaluation.
	groupRange := func(glo, ghi int, advanceDiv float64) travCounts {
		var tc travCounts
		hl := getHotList()
		for gi := glo; gi < ghi; gi++ {
			nd := &rt.ltree.Nodes[groups[gi]]
			hl.reset()
			gc, ge := rt.ltree.GroupBounds(nd.First, nd.Count)
			rt.buildGroupList(hl, gc, ge)
			for i := nd.First; i < nd.First+nd.Count; i++ {
				q := rt.ltree.Order[i]
				switch disc {
				case tree.Vortex:
					res := rt.vortexAtList(hl, local.Particles[q].Pos, q)
					outVel[q] = res.U
					outStr[q] = s.cfg.Scheme.Stretch(res.Grad, local.Particles[q].Alpha)
					tc.inter += res.Interactions
					tc.accepts += res.CellAccepts
					tc.rejects += res.Rejects
					workPer[q] = float64(res.Interactions)
					if s.meter != nil {
						comm.Advance(s.meter.Vortex(res.Interactions, advanceDiv))
					}
				case tree.Coulomb:
					res := rt.coulombAtList(hl, local.Particles[q].Pos, q)
					outPot[q] = res.Phi
					outE[q] = res.E
					tc.inter += res.Interactions
					tc.accepts += res.CellAccepts
					tc.rejects += res.Rejects
					workPer[q] = float64(res.Interactions)
					if s.meter != nil {
						comm.Advance(s.meter.Coulomb(res.Interactions, advanceDiv))
					}
				}
			}
		}
		putHotList(hl)
		return tc
	}
	if rt.hybrid {
		rt.traverseHybrid(len(groups), groupRange)
	} else {
		tc := groupRange(0, len(groups), 1)
		st.Interactions += tc.inter
		st.MACAccepts += tc.accepts
		st.MACRejects += tc.rejects
		rt.finish()
	}
	st.Fetches += rt.fetches.Load()
	st.TTraverse = clock() - t3
	s.probe.traverse.Observe(st.TTraverse)
	telemetry.ClearPhaseLabel()

	// Work-imbalance diagnostic: max over ranks vs mean.
	localWork := 0.0
	for _, w := range workPer {
		localWork += w
	}
	wred := comm.AllreduceFloat64([]float64{localWork}, mpi.OpSum)
	wmax := comm.AllreduceFloat64([]float64{localWork}, mpi.OpMax)
	if mean := wred[0] / float64(p); mean > 0 {
		st.WorkImbalance = wmax[0] / mean
	}
	s.probe.record(st)

	// Phase 6: route results (and per-particle work, for the next
	// evaluation's weighted decomposition) back to the original owners.
	resBlocks := make([][]byte, p)
	for q := 0; q < local.N(); q++ {
		var rec []float64
		switch disc {
		case tree.Vortex:
			rec = []float64{float64(originIdx[q]),
				outVel[q].X, outVel[q].Y, outVel[q].Z,
				outStr[q].X, outStr[q].Y, outStr[q].Z, workPer[q]}
		case tree.Coulomb:
			rec = []float64{float64(originIdx[q]), outPot[q],
				outE[q].X, outE[q].Y, outE[q].Z, workPer[q]}
		}
		r := originRank[q]
		resBlocks[r] = append(resBlocks[r], mpi.Float64sToBytes(rec)...)
	}
	back := comm.Alltoall(resBlocks)
	recSize := 8
	if disc == tree.Coulomb {
		recSize = 6
	}
	if s.cfg.Balance {
		if len(s.workWeights) != sys.N() {
			s.workWeights = make([]float64, sys.N())
		}
	}
	for _, raw := range back {
		vals := mpi.BytesToFloat64s(raw)
		for off := 0; off+recSize <= len(vals); off += recSize {
			idx := int(vals[off])
			switch disc {
			case tree.Vortex:
				vel[idx] = vec.V3(vals[off+1], vals[off+2], vals[off+3])
				stretch[idx] = vec.V3(vals[off+4], vals[off+5], vals[off+6])
			case tree.Coulomb:
				pot[idx] = vals[off+1]
				ef[idx] = vec.V3(vals[off+2], vals[off+3], vals[off+4])
			}
			if s.cfg.Balance {
				s.workWeights[idx] = vals[off+recSize-1]
			}
		}
	}
}

// sampleSplitters draws samples from every rank's sorted keys —
// positioned at equal-weight quantiles of the rank's total particle
// work — and returns P−1 global splitters. With uniform weights this
// reduces to the classical equal-count sample sort.
func sampleSplitters(comm *mpi.Comm, keys []uint64, order []int, weights []float64) []uint64 {
	p := comm.Size()
	if p == 1 {
		return nil
	}
	const perRank = 24
	n := len(order)
	var mine []uint64
	if n > 0 {
		total := 0.0
		for _, i := range order {
			total += weights[i]
		}
		cum, next := 0.0, 1
		for _, i := range order {
			cum += weights[i]
			for next <= perRank && cum >= float64(next)*total/(perRank+1) {
				mine = append(mine, keys[i])
				next++
			}
		}
	}
	all := comm.Allgather(mpi.Uint64sToBytes(mine))
	var pool []uint64
	for _, raw := range all {
		pool = append(pool, mpi.BytesToUint64s(raw)...)
	}
	sort.Slice(pool, func(a, b int) bool { return pool[a] < pool[b] })
	splitters := make([]uint64, p-1)
	for r := 0; r < p-1; r++ {
		if len(pool) == 0 {
			splitters[r] = uint64(r+1) << 40 // arbitrary but consistent
		} else {
			splitters[r] = pool[(r+1)*len(pool)/p]
		}
	}
	return splitters
}

// keyOwner returns the rank owning the key under the splitter set.
func keyOwner(splitters []uint64, key uint64, p int) int {
	owner := sort.Search(len(splitters), func(i int) bool { return key < splitters[i] })
	if owner >= p {
		owner = p - 1
	}
	return owner
}

// ownedRange returns the inclusive key interval of a rank.
func ownedRange(splitters []uint64, rank, p int) (lo, hi uint64) {
	lo = 0
	hi = uint64(1)<<(3*tree.KeyBits) - 1
	if rank > 0 {
		lo = splitters[rank-1]
	}
	if rank < p-1 {
		hi = splitters[rank] - 1
	}
	return lo, hi
}

// branchNodes walks the local tree and returns the highest cells fully
// contained in the rank's key interval (the PEPC branch nodes).
func branchNodes(t *tree.Tree, lo, hi uint64) []int {
	var out []int
	var walk func(idx int)
	walk = func(idx int) {
		nd := &t.Nodes[idx]
		clo, chi := tree.KeyRange(nd.PKey())
		if clo >= lo && chi <= hi {
			out = append(out, idx)
			return
		}
		if nd.Leaf {
			panic(fmt.Sprintf("hot: leaf cell %d straddles ownership [%x,%x]", idx, lo, hi))
		}
		for _, ci := range nd.Children {
			if ci >= 0 {
				walk(int(ci))
			}
		}
	}
	walk(t.Root)
	return out
}

// buildTop creates the shared cells above the branches and merges
// their multipole moments bottom-up, so the root cell carries the
// global moments on every rank.
func (rt *evalRT) buildTop() {
	childSet := make(map[uint64]map[uint64]bool)
	ensureChain := func(pkey uint64) {
		cur := pkey
		for cur != 1 {
			parent := tree.PKeyParent(cur)
			set := childSet[parent]
			if set == nil {
				set = make(map[uint64]bool)
				childSet[parent] = set
			}
			if set[cur] {
				return
			}
			set[cur] = true
			cur = parent
		}
	}
	for pkey := range rt.cells {
		ensureChain(pkey)
	}
	// Create shared cells (numerically larger pkey = deeper level).
	shared := make([]uint64, 0, len(childSet))
	for pkey := range childSet {
		if _, isBranch := rt.cells[pkey]; isBranch {
			// A branch that is also an ancestor of another branch is
			// impossible (branch cells are disjoint); guard anyway.
			continue
		}
		//lint:ignore determinism collection order is discarded by the sort on the next line
		shared = append(shared, pkey)
	}
	sort.Slice(shared, func(a, b int) bool { return shared[a] > shared[b] })
	for _, pkey := range shared {
		prefix, level := tree.PKeyPrefix(pkey)
		g := &gcell{pkey: pkey, owner: -1}
		g.nd.Prefix, g.nd.Level = prefix, level
		g.nd.Size = rt.dom.Size / float64(uint64(1)<<level)
		g.nd.Center = rt.dom.CellCenter(prefix, level)
		for child := range childSet[pkey] {
			//lint:ignore determinism collection order is discarded by the sort on the next line
			g.children = append(g.children, child)
		}
		sort.Slice(g.children, func(a, b int) bool { return g.children[a] < g.children[b] })
		var kids []*tree.Node
		count := 0
		for _, ck := range g.children {
			c := rt.cells[ck]
			kids = append(kids, &c.nd)
			count += c.nd.Count
		}
		g.nd.Count = count
		switch rt.disc {
		case tree.Vortex:
			tree.MergeVortex(&g.nd, kids)
		case tree.Coulomb:
			tree.MergeCoulomb(&g.nd, kids)
		}
		rt.cells[pkey] = g
	}
	if _, ok := rt.cells[1]; !ok {
		// Single-rank (or single-branch-at-root) world: the root is a
		// branch itself and the map already holds it... if not, the
		// system was empty everywhere.
		if len(rt.cells) == 0 {
			rt.cells[1] = &gcell{pkey: 1, owner: -1}
		}
	}
}

// getCell looks up a cell, taking the read lock in hybrid mode.
func (rt *evalRT) getCell(pk uint64) *gcell {
	if !rt.hybrid {
		return rt.cells[pk]
	}
	rt.mu.RLock()
	g := rt.cells[pk]
	rt.mu.RUnlock()
	return g
}

// cellChildren returns the resolved children (nil when unresolved).
func (rt *evalRT) cellChildren(g *gcell) []uint64 {
	if !rt.hybrid {
		return g.children
	}
	rt.mu.RLock()
	ch := g.children
	rt.mu.RUnlock()
	return ch
}

// cellParts returns the inline particles of a remote leaf.
func (rt *evalRT) cellParts(g *gcell) []particle.Particle {
	if !rt.hybrid {
		return g.parts
	}
	rt.mu.RLock()
	ps := g.parts
	rt.mu.RUnlock()
	return ps
}

// accumVortexFar folds one MAC-accepted global cell into res.
func (rt *evalRT) accumVortexFar(res *tree.VortexResult, g *gcell, x vec.Vec3) {
	r := x.Sub(g.nd.Centroid)
	u, grad := rt.pw.VelocityGrad(r, g.nd.CircSum)
	res.U = res.U.Add(u)
	res.Grad = res.Grad.Add(grad)
	if rt.s.cfg.Dipole {
		res.U = res.U.Add(tree.DipoleVelocity(r, g.nd.Dipole))
	}
	res.Interactions++
	res.CellAccepts++
}

// accumVortexParts folds the inline particles of a fetched remote leaf
// into res.
func (rt *evalRT) accumVortexParts(res *tree.VortexResult, parts []particle.Particle, x vec.Vec3) {
	for i := range parts {
		u, grad := rt.pw.VelocityGrad(x.Sub(parts[i].Pos), parts[i].Alpha)
		res.U = res.U.Add(u)
		res.Grad = res.Grad.Add(grad)
		res.Interactions++
	}
}

// vortexWalk runs the per-particle global traversal from the cell with
// parent key startPk, accumulating into res (it does not reset res).
// Local branch cells delegate to the local tree; remote cells are
// fetched on demand. The list evaluator runs this walk for cells
// whose group-level MAC decision is ambiguous, so those cells see the
// exact per-particle decisions.
func (rt *evalRT) vortexWalk(res *tree.VortexResult, startPk uint64, x vec.Vec3, skipLocal int) {
	theta := rt.s.cfg.Theta
	theta2 := theta * theta
	ws := rt.getWalk(startPk)
	stack := ws.buf
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
			sub := rt.ltree.VortexAtNode(idx, x, theta, skipLocal, rt.pw, rt.s.cfg.Dipole)
			res.U = res.U.Add(sub.U)
			res.Grad = res.Grad.Add(sub.Grad)
			res.AddCounts(&sub)
			continue
		}
		if !g.nd.Leaf && tree.MACSq(theta2, g.nd.Size*g.nd.Size, x.Sub(g.nd.Centroid).Norm2()) {
			rt.accumVortexFar(res, g, x)
			continue
		}
		if g.nd.Leaf {
			parts := rt.cellParts(g)
			if parts == nil {
				rt.fetch(g)
				parts = rt.cellParts(g)
			}
			rt.accumVortexParts(res, parts, x)
			continue
		}
		res.Rejects++
		children := rt.cellChildren(g)
		if children == nil {
			rt.fetch(g)
			children = rt.cellChildren(g)
		}
		stack = append(stack, children...)
	}
	ws.buf = stack
	rt.walkPool.Put(ws)
}

// accumCoulombFar folds one MAC-accepted global cell into res.
func (rt *evalRT) accumCoulombFar(res *tree.CoulombResult, g *gcell, x vec.Vec3) {
	phi, e := tree.CoulombCell(x.Sub(g.nd.Centroid), &g.nd)
	res.Phi += phi
	res.E = res.E.Add(e)
	res.Interactions++
	res.CellAccepts++
}

// accumCoulombParts folds the inline particles of a fetched remote
// leaf into res.
func (rt *evalRT) accumCoulombParts(res *tree.CoulombResult, parts []particle.Particle, x vec.Vec3) {
	eps := rt.s.cfg.Eps
	for i := range parts {
		phi, e := kernel.Coulomb(x.Sub(parts[i].Pos), parts[i].Charge, eps)
		res.Phi += phi
		res.E = res.E.Add(e)
		res.Interactions++
	}
}

// coulombWalk is vortexWalk for the Coulomb discipline.
func (rt *evalRT) coulombWalk(res *tree.CoulombResult, startPk uint64, x vec.Vec3, skipLocal int) {
	theta := rt.s.cfg.Theta
	theta2 := theta * theta
	eps := rt.s.cfg.Eps
	ws := rt.getWalk(startPk)
	stack := ws.buf
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
			sub := rt.ltree.CoulombAtNode(idx, x, theta, eps, skipLocal)
			res.Phi += sub.Phi
			res.E = res.E.Add(sub.E)
			res.AddCounts(&sub)
			continue
		}
		if !g.nd.Leaf && tree.MACSq(theta2, g.nd.Size*g.nd.Size, x.Sub(g.nd.Centroid).Norm2()) {
			rt.accumCoulombFar(res, g, x)
			continue
		}
		if g.nd.Leaf {
			parts := rt.cellParts(g)
			if parts == nil {
				rt.fetch(g)
				parts = rt.cellParts(g)
			}
			rt.accumCoulombParts(res, parts, x)
			continue
		}
		res.Rejects++
		children := rt.cellChildren(g)
		if children == nil {
			rt.fetch(g)
			children = rt.cellChildren(g)
		}
		stack = append(stack, children...)
	}
	ws.buf = stack
	rt.walkPool.Put(ws)
}

// fetch asks the owner of g for its children (or, for leaves, its
// particles). In synchronous mode the calling goroutine services
// incoming requests while waiting; in hybrid mode the request is
// routed through the communication goroutine.
//
//lint:coldpath remote cell miss: each cell is fetched at most once per evaluation, amortized across all targets
func (rt *evalRT) fetch(g *gcell) {
	if rt.hybrid {
		rt.hybridFetch(g)
		return
	}
	rt.fetches.Add(1)
	var req [8]byte
	binary.LittleEndian.PutUint64(req[:], g.pkey)
	rt.comm.Send(g.owner, tagReq, req[:])
	for {
		data, src, tag := rt.comm.Recv(mpi.AnySource, mpi.AnyTag)
		switch tag {
		case tagReq:
			rt.serveReq(src, data)
		case tagReply:
			rt.applyReply(g, data)
			return
		case tagDone:
			rt.doneSeen++
		default:
			panic(fmt.Sprintf("hot: unexpected tag %d during fetch", tag))
		}
	}
}

// serveReq answers a remote-cell request from src against the local
// tree.
func (rt *evalRT) serveReq(src int, data []byte) {
	pkey := binary.LittleEndian.Uint64(data)
	idx := rt.ltree.FindCell(pkey)
	if idx < 0 {
		panic(fmt.Sprintf("hot: request for unknown cell %x", pkey))
	}
	rt.comm.Send(src, tagReply, rt.cellReply(idx))
}

// cellReply builds the fetch-reply record for local cell idx: header
// (pkey, child count), child cells, and the inline particles of leaf
// children (or of the cell itself when it is a leaf). The batched
// branch exchange ships these exact bytes ahead of time, which is what
// keeps BranchBatched bitwise identical to the on-demand path.
func (rt *evalRT) cellReply(idx int) []byte {
	nd := &rt.ltree.Nodes[idx]
	var out []byte
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], nd.PKey())
	if nd.Leaf {
		binary.LittleEndian.PutUint64(hdr[8:], 0) // zero children = leaf reply
		out = append(out, hdr[:]...)
		var cnt [8]byte
		binary.LittleEndian.PutUint64(cnt[:], uint64(nd.Count))
		out = append(out, cnt[:]...)
		for i := nd.First; i < nd.First+nd.Count; i++ {
			out = encodeParticle(out, rt.ltree.Particle(i), rt.me, -1, 1)
		}
	} else {
		var kids []*tree.Node
		for _, ci := range nd.Children {
			if ci >= 0 {
				kids = append(kids, &rt.ltree.Nodes[ci])
			}
		}
		binary.LittleEndian.PutUint64(hdr[8:], uint64(len(kids)))
		out = append(out, hdr[:]...)
		for _, k := range kids {
			out = encodeCell(out, k, rt.disc)
		}
		// Inline the particles of leaf children so the requester does
		// not need a second round trip for them.
		for _, k := range kids {
			if !k.Leaf {
				continue
			}
			for i := k.First; i < k.First+k.Count; i++ {
				out = encodeParticle(out, rt.ltree.Particle(i), rt.me, -1, 1)
			}
		}
	}
	return out
}

// applyReply installs the children (or inline particles) delivered for
// the requested cell g.
func (rt *evalRT) applyReply(g *gcell, data []byte) {
	pkey := binary.LittleEndian.Uint64(data[0:])
	if pkey != g.pkey {
		panic("hot: reply for unexpected cell")
	}
	nchild := binary.LittleEndian.Uint64(data[8:])
	off := 16
	if nchild == 0 {
		// Leaf reply: inline particles.
		cnt := int(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		g.parts = make([]particle.Particle, 0, cnt)
		for i := 0; i < cnt; i++ {
			pp, _, _, _ := decodeParticle(data[off:])
			g.parts = append(g.parts, pp)
			off += particleRecBytes
		}
		return
	}
	children := make([]uint64, 0, nchild)
	var leafCells []*gcell
	for i := uint64(0); i < nchild; i++ {
		nd, ck := decodeCell(data[off:], rt.disc, rt.dom)
		off += cellRecBytes
		child := &gcell{nd: nd, pkey: ck, owner: g.owner}
		rt.cells[ck] = child
		children = append(children, ck)
		if nd.Leaf {
			leafCells = append(leafCells, child)
		}
	}
	for _, lc := range leafCells {
		lc.parts = make([]particle.Particle, 0, lc.nd.Count)
		for i := 0; i < lc.nd.Count; i++ {
			pp, _, _, _ := decodeParticle(data[off:])
			lc.parts = append(lc.parts, pp)
			off += particleRecBytes
		}
	}
	g.children = children
}

// resolved reports whether a remote cell's payload has arrived. Must
// hold rt.mu (any mode).
func (g *gcell) resolved() bool {
	if g.nd.Leaf {
		return g.parts != nil
	}
	return g.children != nil
}

// hybridFetch resolves a remote cell through the communication
// goroutine, deduplicating concurrent requests for the same cell: each
// cell is requested at most once per evaluation, as in the synchronous
// path.
func (rt *evalRT) hybridFetch(g *gcell) {
	for {
		rt.pendMu.Lock()
		if wait, busy := rt.inflight[g.pkey]; busy {
			rt.pendMu.Unlock()
			<-wait // another worker is fetching this cell
			continue
		}
		// Checked under pendMu: a fetch that finished after the
		// caller saw g unresolved applied its reply before dropping
		// its inflight entry, so g reads resolved here and is not
		// requested a second time.
		rt.mu.RLock()
		done := g.resolved()
		rt.mu.RUnlock()
		if done {
			rt.pendMu.Unlock()
			return
		}
		wait := make(chan struct{})
		resp := make(chan []byte, 1)
		rt.inflight[g.pkey] = wait
		rt.pending[g.pkey] = resp
		rt.pendMu.Unlock()

		rt.fetches.Add(1)
		var req [8]byte
		binary.LittleEndian.PutUint64(req[:], g.pkey)
		rt.comm.Send(g.owner, tagReq, req[:])
		data := <-resp

		rt.mu.Lock()
		rt.applyReply(g, data)
		rt.mu.Unlock()

		rt.pendMu.Lock()
		delete(rt.inflight, g.pkey)
		rt.pendMu.Unlock()
		close(wait)
		return
	}
}

// commLoop is the communication goroutine of a hybrid rank.
func (rt *evalRT) commLoop(done chan struct{}) {
	defer close(done)
	p := rt.comm.Size()
	doneSeen := 0
	for {
		data, src, tag := rt.comm.RecvService(mpi.AnySource, mpi.AnyTag)
		switch tag {
		case tagReq:
			rt.serveReq(src, data)
		case tagReply:
			pkey := binary.LittleEndian.Uint64(data)
			rt.pendMu.Lock()
			resp := rt.pending[pkey]
			delete(rt.pending, pkey)
			rt.pendMu.Unlock()
			if resp == nil {
				panic("hot: reply without pending request")
			}
			resp <- data
		case tagDone:
			doneSeen++
			if doneSeen == p { // rank 0 only: all ranks (incl. itself) done
				for r := 0; r < p; r++ {
					rt.comm.Send(r, tagShutdown, nil)
				}
			}
		case tagShutdown:
			return
		default:
			panic(fmt.Sprintf("hot: unexpected tag %d in comm loop", tag))
		}
	}
}

// finish runs the termination protocol: every rank keeps serving
// remote-cell requests until all ranks have completed their traversal.
func (rt *evalRT) finish() {
	p := rt.comm.Size()
	if p == 1 {
		return
	}
	if rt.me != 0 {
		rt.comm.Send(0, tagDone, nil)
		for {
			data, src, tag := rt.comm.Recv(mpi.AnySource, mpi.AnyTag)
			switch tag {
			case tagReq:
				rt.serveReq(src, data)
			case tagShutdown:
				return
			default:
				panic(fmt.Sprintf("hot: unexpected tag %d during finish", tag))
			}
		}
	}
	for rt.doneSeen < p-1 {
		data, src, tag := rt.comm.Recv(mpi.AnySource, mpi.AnyTag)
		switch tag {
		case tagReq:
			rt.serveReq(src, data)
		case tagDone:
			rt.doneSeen++
		default:
			panic(fmt.Sprintf("hot: unexpected tag %d at root finish", tag))
		}
	}
	rt.doneSeen = 0
	for r := 1; r < p; r++ {
		rt.comm.Send(r, tagShutdown, nil)
	}
}
