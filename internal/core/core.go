// Package core couples the space-parallel Barnes-Hut tree code
// (package hot, the PEPC analog) with the parallel-in-time integrator
// PFASST — the paper's central contribution.
//
// A space-time run uses PT×PS ranks arranged as in Fig. 2 of the
// paper: the world communicator is split once by time slice (giving PT
// spatial "PEPC" communicators of PS ranks each) and once by
// intra-slice index (giving PS temporal "PFASST" communicators of PT
// ranks each). Every rank is a member of exactly one of each.
//
// Spatial coarsening for the coarse PFASST level is obtained through
// the multipole acceptance criterion: the fine propagator evaluates
// forces with θ_fine (accurate, slow), the coarse propagator with
// θ_coarse > θ_fine (cheap, inexact), exactly as in Section IV-B.
package core

import (
	"context"
	"fmt"

	"repro/internal/field"
	"repro/internal/guard"
	"repro/internal/hot"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/pfasst"
	"repro/internal/sdc"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// VortexSystem adapts any field.Evaluator (direct solver or serial
// tree) to the ode.System interface for single-process runs: the flat
// state holds positions and circulation vectors (particle.Pack layout)
// and the right-hand side is (u, dα/dt) from the evaluator.
type VortexSystem struct {
	template *particle.System
	eval     field.Evaluator
	work     *particle.System
	vel, str []vec.Vec3
}

// NewVortexSystem returns the ODE view of a particle system under the
// given evaluator. The template's volumes and σ are reused for every
// evaluation; positions and circulations come from the ODE state.
func NewVortexSystem(template *particle.System, eval field.Evaluator) *VortexSystem {
	return &VortexSystem{
		template: template,
		eval:     eval,
		work:     template.Clone(),
		vel:      make([]vec.Vec3, template.N()),
		str:      make([]vec.Vec3, template.N()),
	}
}

// Dim implements ode.System.
func (v *VortexSystem) Dim() int { return v.template.StateLen() }

// F implements ode.System.
func (v *VortexSystem) F(t float64, u, f []float64) {
	v.work.Unpack(u)
	v.eval.Eval(v.work, v.vel, v.str)
	for i := range v.vel {
		o := 6 * i
		f[o+0], f[o+1], f[o+2] = v.vel[i].X, v.vel[i].Y, v.vel[i].Z
		f[o+3], f[o+4], f[o+5] = v.str[i].X, v.str[i].Y, v.str[i].Z
	}
}

// Evaluator returns the wrapped evaluator (for statistics).
func (v *VortexSystem) Evaluator() field.Evaluator { return v.eval }

// DistVortexSystem is the distributed counterpart: the state holds the
// rank's local particles and the right-hand side is computed
// collectively by the parallel tree on the rank's spatial communicator.
type DistVortexSystem struct {
	local    *particle.System
	solver   *hot.Solver
	work     *particle.System
	vel, str []vec.Vec3
	// Evals counts collective force evaluations.
	Evals int64
	// Interactions accumulates this rank's interaction counts.
	Interactions int64

	// telemetry handles (nil = off), set by Instrument.
	telEvals, telInter *telemetry.Counter
}

// NewDistVortexSystem returns the distributed ODE view for the rank's
// local share of the particles.
func NewDistVortexSystem(local *particle.System, solver *hot.Solver) *DistVortexSystem {
	return &DistVortexSystem{
		local:  local,
		solver: solver,
		work:   local.Clone(),
		vel:    make([]vec.Vec3, local.N()),
		str:    make([]vec.Vec3, local.N()),
	}
}

// Instrument routes the system's evaluation counters to the registry
// under the names "core.evals.levelL" / "core.interactions.levelL",
// separating the fine and coarse force-evaluation work per time slice
// (the hot.* counters aggregate over all levels of the rank).
func (d *DistVortexSystem) Instrument(reg *telemetry.Registry, level int) {
	d.telEvals = reg.Counter(fmt.Sprintf("core.evals.level%d", level))
	d.telInter = reg.Counter(fmt.Sprintf("core.interactions.level%d", level))
}

// Dim implements ode.System.
func (d *DistVortexSystem) Dim() int { return d.local.StateLen() }

// F implements ode.System (collective over the spatial communicator).
func (d *DistVortexSystem) F(t float64, u, f []float64) {
	d.work.Unpack(u)
	d.solver.Eval(d.work, d.vel, d.str)
	d.Evals++
	d.Interactions += d.solver.Last.Interactions
	d.telEvals.Inc()
	d.telInter.Add(d.solver.Last.Interactions)
	for i := range d.vel {
		o := 6 * i
		f[o+0], f[o+1], f[o+2] = d.vel[i].X, d.vel[i].Y, d.vel[i].Z
		f[o+3], f[o+4], f[o+5] = d.str[i].X, d.str[i].Y, d.str[i].Z
	}
}

// Config parameterizes a space-time run.
type Config struct {
	// PT and PS are the temporal and spatial rank counts; the world
	// communicator must have exactly PT·PS ranks.
	PT, PS int
	// Sm and Scheme select the smoothing kernel and stretching form.
	Sm     kernel.Smoothing
	Scheme kernel.Scheme
	// ThetaFine and ThetaCoarse are the MAC parameters of the fine and
	// coarse PFASST levels (paper: 0.3 and 0.6).
	ThetaFine, ThetaCoarse float64
	// NodesFine and NodesCoarse are the collocation node counts
	// (paper: 3 and 2).
	NodesFine, NodesCoarse int
	// Levels, when non-empty, overrides the two-level configuration
	// with an arbitrary hierarchy (finest first): each entry gives the
	// MAC parameter and collocation node count of one PFASST level.
	// Node counts must be nested (e.g. 5/3/2).
	Levels []LevelTheta
	// Iterations and CoarseSweeps select PFASST(X, Y, ·).
	Iterations, CoarseSweeps int
	// Tol, when positive, lets PFASST stop iterating early once the
	// global slice-end update falls below it.
	Tol float64
	// LeafCap is the tree bucket size.
	LeafCap int
	// Dipole enables cluster dipole corrections.
	Dipole bool
	// Threads selects the per-rank traversal worker count (the
	// Pthreads analog of PEPC; ≤1 = synchronous).
	Threads int
	// StealGrain tunes the work-stealing chunk size (leaf groups) of
	// the hybrid traversal; ≤0 = automatic.
	StealGrain int
	// Balance enables cross-rank dynamic load balancing: every force
	// evaluation routes per-particle interaction counts back to the
	// particles' owners, and the next evaluation's sample-sort
	// splitters are placed at equal-work (not equal-count) quantiles —
	// the work-sharing rebalancing of Becciani et al., applied to the
	// Morton-range decomposition between steps. Off by default: the
	// interaction-count history is the only state carried across
	// evaluations, so disabling it keeps redo-after-rollback bitwise
	// reproducible for the guard layer.
	Balance bool
	// Branch selects the branch-node exchange algorithm of every
	// level's tree solver: hot.BranchRing (zero value) or
	// hot.BranchBatched (batched, MAC-pruned, overlapped — DESIGN.md
	// §15). Results are bitwise identical either way.
	Branch hot.BranchMode
	// Model, when non-nil, drives the virtual clocks.
	Model *machine.CostModel
	// Tel, when non-nil, collects this world rank's telemetry (tree
	// phases, message counts, sweep counts, per-level evaluation
	// counters). Each rank needs its own registry; merge the Snapshots
	// afterwards.
	Tel *telemetry.Registry
	// Resilience selects the fault-tolerant execution path
	// (checkpointed blocks, bounded-wait receives, shrink-and-redo
	// recovery). At PS = 1 the loop runs inside PFASST: the time
	// communicator shrinks and the survivors redo the block. At PS > 1
	// the grid-resilient loop in this package takes over: commit/abort
	// is agreed over the full PT×PS world, survivors shrink BOTH
	// communicator families, the committed state is re-decomposed onto
	// the smaller spatial width, and when a whole time slice dies out
	// every live rank falls back to redundant serial SDC (see
	// resilient.go and DESIGN.md §12).
	Resilience pfasst.Resilience
	// Guard configures the silent-data-corruption detectors and the
	// recovery ladder (package guard). When Enabled, every rank gets a
	// private guard wired into its tree builds (ABFT moment checks)
	// and its PFASST time loop (state checksum, block-end monitors).
	// Works at any PS: with PS > 1 the ladder's verdicts are agreed
	// collectively over the spatial communicator and the invariant
	// monitors compare global sums (DESIGN.md §15). Guard composes
	// with Resilience.Enabled at any PS: corruption verdicts and crash
	// verdicts fold into the same per-block agreement, so a bit-flip
	// redo and a concurrent rank crash interleave safely (DESIGN.md
	// §12).
	Guard guard.Policy
	// Ctx enables cooperative cancellation: the block loops poll it at
	// every block boundary (never mid-block) and the run returns an
	// error wrapping pfasst.ErrCanceled, identically on every rank. The
	// decision is collective — rank 0's observation of the Context is
	// broadcast (plain/guarded path) or folded into the block agreement
	// (resilient paths) — so no rank ever aborts asymmetrically out of
	// a deadline-less collective. Nil changes nothing.
	Ctx context.Context
	// OnBlock, when non-nil, is invoked with the index of the block
	// about to run, from exactly one world rank, before the Context is
	// polled: a hook that cancels the Context stops the run at that
	// block boundary deterministically (the server's chaos plan and
	// progress telemetry hang off this).
	OnBlock func(block int)
}

// Default returns the paper's configuration PFASST(2,2,·) with
// θ = 0.3/0.6 on 3/2 Lobatto nodes.
func Default(pt, ps int) Config {
	return Config{
		PT: pt, PS: ps,
		Sm:        kernel.Algebraic6(),
		Scheme:    kernel.Transpose,
		ThetaFine: 0.3, ThetaCoarse: 0.6,
		NodesFine: 3, NodesCoarse: 2,
		Iterations: 2, CoarseSweeps: 2,
		LeafCap: 8,
		Dipole:  true,
	}
}

// LevelTheta describes one level of a custom space-time hierarchy.
type LevelTheta struct {
	Theta  float64
	NNodes int
}

// Result is one world rank's view of a space-time run.
type Result struct {
	// Local holds the rank's local particles advanced to the final
	// time (every time slice ends with the same copy).
	Local *particle.System
	// SpatialIndex identifies which block of the initial particle
	// ordering Local corresponds to (−1 when the rank retired).
	SpatialIndex int
	// SpatialRanks is the spatial width of the FINAL decomposition:
	// cfg.PS normally, smaller after crash recovery shrank the grid.
	// Reassemble the full state from the ranks with Participated set,
	// slicing by SpatialIndex/SpatialRanks.
	SpatialRanks int
	// Participated reports whether Local holds a share of the final
	// state. False only for ranks the grid-resilient path retired after
	// a shrink (their Local is nil).
	Participated bool
	// TimeSlice is this rank's slice index.
	TimeSlice int
	// PFASST carries the per-block residual diagnostics.
	PFASST pfasst.Result
	// FineEvals / CoarseEvals count collective force evaluations of
	// the two levels on this rank.
	FineEvals, CoarseEvals int64
}

// RunSpaceTime advances the full particle system from t0 to t1 in
// nsteps steps using PT×PS-way space-time parallelism. Every world
// rank must call it with identical arguments; the world communicator
// must have PT·PS ranks and nsteps must be a multiple of PT.
func RunSpaceTime(world *mpi.Comm, cfg Config, full *particle.System, t0, t1 float64, nsteps int) (Result, error) {
	if world.Size() != cfg.PT*cfg.PS {
		return Result{}, fmt.Errorf("core: world has %d ranks, config wants PT×PS = %d×%d",
			world.Size(), cfg.PT, cfg.PS)
	}
	if cfg.Resilience.Enabled && cfg.PS > 1 {
		return runGridResilient(world, cfg, full, t0, t1, nsteps)
	}
	slice := world.Rank() / cfg.PS
	spatial := world.Rank() % cfg.PS
	spaceComm := world.Split(slice, spatial)
	timeComm := world.Split(spatial, slice)

	local := hot.BlockPartition(full, spatial, cfg.PS)
	var grd *guard.Guard
	if cfg.Guard.Enabled {
		grd = guard.New(cfg.Guard, world.Rank(), cfg.Tel)
		// With PS > 1 the ladder's redo/rollback/abort verdicts are
		// agreed over the spatial communicator and the invariant
		// monitors see global sums; with PS = 1 AttachSpace is a no-op
		// and the guard behaves exactly as before.
		grd.AttachSpace(spaceComm)
	}
	levels := cfg.Levels
	if len(levels) == 0 {
		levels = []LevelTheta{
			{Theta: cfg.ThetaFine, NNodes: cfg.NodesFine},
			{Theta: cfg.ThetaCoarse, NNodes: cfg.NodesCoarse},
		}
	}
	specs := make([]pfasst.LevelSpec, len(levels))
	systems := make([]*DistVortexSystem, len(levels))
	for i, l := range levels {
		hcfg := hot.Config{
			Sm: cfg.Sm, Scheme: cfg.Scheme, Theta: l.Theta,
			LeafCap: cfg.LeafCap, Dipole: cfg.Dipole, Model: cfg.Model, Threads: cfg.Threads,
			StealGrain: cfg.StealGrain, Balance: cfg.Balance,
			Branch: cfg.Branch, Tel: cfg.Tel,
		}
		if grd != nil {
			hcfg.Hook = grd
		}
		solver := hot.New(spaceComm, hcfg)
		systems[i] = NewDistVortexSystem(local, solver)
		systems[i].Instrument(cfg.Tel, i)
		specs[i] = pfasst.LevelSpec{Sys: systems[i], NNodes: l.NNodes}
	}
	fineSys := systems[0]
	coarseSys := systems[len(systems)-1]

	pcfg := pfasst.Config{
		Levels:       specs,
		Iterations:   cfg.Iterations,
		CoarseSweeps: cfg.CoarseSweeps,
		Tol:          cfg.Tol,
		Tel:          cfg.Tel,
		Resilience:   cfg.Resilience,
		Guard:        grd,
		Ctx:          cfg.Ctx,
	}
	if spatial == 0 {
		// The resilient PS=1 loop calls the hook from time rank 0; with
		// one spatial column that is exactly one world rank per block.
		pcfg.OnBlock = cfg.OnBlock
	}
	if cfg.Ctx != nil || cfg.OnBlock != nil {
		pcfg.CancelCheck = cancelCheck(world, cfg.Ctx, cfg.OnBlock)
	}
	u0 := local.PackNew()
	pres, err := pfasst.Run(timeComm, pcfg, t0, t1, nsteps, u0)
	if err != nil {
		return Result{}, err
	}
	out := local.Clone()
	out.Unpack(pres.U)
	return Result{
		Local:        out,
		SpatialIndex: spatial,
		SpatialRanks: cfg.PS,
		Participated: true,
		TimeSlice:    slice,
		PFASST:       pres,
		FineEvals:    fineSys.Evals,
		CoarseEvals:  coarseSys.Evals,
	}, nil
}

// cancelCheck returns the collective block-boundary cancellation
// predicate used by the plain and guarded time loops: world rank 0
// invokes the OnBlock hook, polls the Context, and broadcasts the
// verdict, so every rank of every spatial column aborts the same block
// together (an asymmetric local return would strand peers in
// deadline-less spatial collectives).
func cancelCheck(world *mpi.Comm, ctx context.Context, onBlock func(int)) func(int) error {
	return func(block int) error {
		flag := []byte{0}
		if world.Rank() == 0 {
			if onBlock != nil {
				onBlock(block)
			}
			if ctx != nil && ctx.Err() != nil {
				flag[0] = 1
			}
		}
		if got := world.Bcast(0, flag); len(got) == 1 && got[0] != 0 {
			if err := pfasst.CancelErr(ctx, block); err != nil {
				return err
			}
			return fmt.Errorf("core: block %d: %w: canceled at root", block, pfasst.ErrCanceled)
		}
		return nil
	}
}

// RunSpaceSerialSDC is the purely space-parallel baseline: time-serial
// SDC(sweeps) on the spatial communicator, using the parallel tree
// with θ_fine for every force evaluation. It advances the rank's local
// particles in place and returns the per-step collocation residuals.
func RunSpaceSerialSDC(spaceComm *mpi.Comm, cfg Config, local *particle.System,
	t0, t1 float64, nsteps, nnodes, sweeps int) ([]float64, error) {
	if nsteps < 1 {
		return nil, fmt.Errorf("core: nsteps %d < 1", nsteps)
	}
	solver := hot.New(spaceComm, hot.Config{
		Sm: cfg.Sm, Scheme: cfg.Scheme, Theta: cfg.ThetaFine,
		LeafCap: cfg.LeafCap, Dipole: cfg.Dipole, Model: cfg.Model, Threads: cfg.Threads,
		StealGrain: cfg.StealGrain, Balance: cfg.Balance,
		Branch: cfg.Branch, Tel: cfg.Tel,
	})
	sys := NewDistVortexSystem(local, solver)
	sys.Instrument(cfg.Tel, 0)
	in := sdc.NewIntegrator(sys, nnodes, sweeps)
	u := local.PackNew()
	residuals := make([]float64, 0, nsteps)
	dt := (t1 - t0) / float64(nsteps)
	for n := 0; n < nsteps; n++ {
		residuals = append(residuals, in.StepResidual(t0+float64(n)*dt, dt, u))
	}
	local.Unpack(u)
	return residuals, nil
}
