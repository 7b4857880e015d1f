package core

// Full-grid fault tolerance (ISSUE 8): crash recovery on the complete
// PT×PS communicator grid. The PS=1 resilient loop lives in
// pfasst.runResilient, where a block abort only ever involves the one
// time communicator. At PS>1 the failure surface is two-dimensional —
// a dead rank breaks its temporal column AND its spatial slice — so
// the recovery protocol moves up to the layer that owns the spatial
// decomposition:
//
//  1. Every block ends in ONE agreement over the original world
//     communicator (retired ranks included), so commit/abort/fatal is
//     decided identically everywhere. Agreement values: 2 commit,
//     1 retryable abort, 0 fatal.
//  2. On abort, survivors agree on the dead set (mpi.AgreeDeadRanks),
//     chain-shrink onto it, and rebuild both communicator families
//     from scratch. The new spatial width is PS' = min over time
//     slices of that slice's live-rank count; each slice's first PS'
//     live ranks are active, the rest retire into a control skeleton
//     that keeps voting (and can be reactivated by a later shrink).
//  3. The committed block-start state is redistributed: every previous
//     holder contributes its column share, the full state is
//     reassembled (falling back to the on-disk grid checkpoint when a
//     whole column died out), and re-partitioned onto PS'. Resume from
//     a checkpoint takes exactly this path, which is why a checkpoint
//     written at one PS restores onto any other.
//  4. When some slice has no survivors at all (PS' = 0), parallel-in-
//     time execution is impossible and every live rank redundantly
//     integrates the full state with serial SDC — deterministic,
//     identical output on every rank, the degraded-completion
//     guarantee of the PS=1 serial tail lifted to the grid.
//
// Wake-up cascade: a rank whose attempt hits a transport failure
// revokes its spatial and temporal communicators, so peers blocked in
// plain collectives (tree builds, guard allreduces — which have no
// deadlines) fail fast and join the agreement instead of waiting for
// the world-level deadlock detector. Guard corruption verdicts do NOT
// revoke: the slice agrees collectively after the time block
// completed, so every rank reaches the world agreement on its own.
//
// The grid path forces single-threaded tree traversals: comm-failure
// panics must only ever unwind rank-main goroutines, and the hybrid
// traversal's service goroutines would turn one into a process crash.
// Traversal results are schedule-invariant, so this changes cost, not
// numerics (DESIGN.md §12).

import (
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/checkpoint"
	"repro/internal/guard"
	"repro/internal/hot"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/pfasst"
	"repro/internal/sdc"
)

// ErrStateLost is returned, identically on every live rank, when a
// crash destroys every replica of some spatial column's committed
// state and no restorable grid checkpoint covers it. With PT time
// ranks each column is held PT-fold redundantly, so this requires a
// whole temporal column to die inside one block.
var ErrStateLost = errors.New("core: committed state lost (no surviving replica, no checkpoint)")

// Recovery-phase telemetry of the grid-resilient loop: the timers
// split one recovery round into its phases (the BENCH_PR8 per-phase
// recovery cost columns), the counter tallies rounds.
const (
	PhaseRecoveryAgree        = "core.recovery.agree"
	PhaseRecoveryRebuild      = "core.recovery.rebuild"
	PhaseRecoveryRedistribute = "core.recovery.redistribute"
	PhaseRecoveryCheckpoint   = "core.recovery.checkpoint"
	CounterRecoveryRounds     = "core.recovery.rounds"
	CounterRecoveryRetired    = "core.recovery.retired_ranks"
)

// levelPlan expands the two-level default into the explicit hierarchy.
func levelPlan(cfg Config) []LevelTheta {
	if len(cfg.Levels) > 0 {
		return cfg.Levels
	}
	return []LevelTheta{
		{Theta: cfg.ThetaFine, NNodes: cfg.NodesFine},
		{Theta: cfg.ThetaCoarse, NNodes: cfg.NodesCoarse},
	}
}

// gridHotConfig is the tree-solver configuration of the grid-resilient
// path: identical to the plain path except that traversals are forced
// synchronous (see the package comment above).
func gridHotConfig(cfg Config, theta float64, grd *guard.Guard) hot.Config {
	hcfg := hot.Config{
		Sm: cfg.Sm, Scheme: cfg.Scheme, Theta: theta,
		LeafCap: cfg.LeafCap, Dipole: cfg.Dipole, Model: cfg.Model, Threads: 1,
		StealGrain: cfg.StealGrain, Balance: cfg.Balance,
		Branch: cfg.Branch, Tel: cfg.Tel,
	}
	if grd != nil {
		hcfg.Hook = grd
	}
	return hcfg
}

// runGridResilient is the fault-tolerant space-time loop for PS > 1.
// Every world rank calls it with identical arguments.
func runGridResilient(world *mpi.Comm, cfg Config, full *particle.System, t0, t1 float64, nsteps int) (Result, error) {
	rz := cfg.Resilience
	ps0, pt := cfg.PS, cfg.PT
	slice := world.Rank() / ps0 // fixed for the rank's lifetime
	dt := (t1 - t0) / float64(nsteps)
	n := full.N()
	maxRetries := rz.MaxBlockRetries
	if maxRetries <= 0 {
		maxRetries = pfasst.DefaultMaxBlockRetries
	}
	fallbackSweeps := rz.FallbackSweeps
	if fallbackSweeps <= 0 {
		fallbackSweeps = pfasst.DefaultFallbackSweeps
	}

	tAgree := cfg.Tel.Timer(PhaseRecoveryAgree)
	tRebuild := cfg.Tel.Timer(PhaseRecoveryRebuild)
	tRedist := cfg.Tel.Timer(PhaseRecoveryRedistribute)
	tCkpt := cfg.Tel.Timer(PhaseRecoveryCheckpoint)
	cRounds := cfg.Tel.Counter(CounterRecoveryRounds)
	cRetired := cfg.Tel.Counter(CounterRecoveryRetired)

	var grd *guard.Guard
	if cfg.Guard.Enabled {
		grd = guard.New(cfg.Guard, world.Rank(), cfg.Tel)
	}
	levels := levelPlan(cfg)

	// Run state, identical on every live rank wherever it is not
	// explicitly per-rank (u, col, active).
	var (
		pres      pfasst.Result // accumulates across solver rebuilds
		u         []float64     // active: local share of committed block-start state
		stepsDone int
		block     int
		gen       int   // block-attempt generation (message tag namespace)
		rgen      int   // recovery generation (communicator labels)
		oldPS     int   // partition width of the committed state; 0 = undistributed
		psNew     int   // current active spatial width
		retries   int   // consecutive retries without a new death
		lastAbort error // cause of the most recent aborted attempt (per-rank)
		gpending  int   // guard corruptions pending a committed redo
		prevDead  = -1  // size of the last agreed dead set; -1 = none yet
		col       = -1  // my spatial column, -1 = retired
		active    bool
		// fullU holds the full committed state whenever this rank does
		// not hold a distributed share of it: before the first recovery
		// round distributes anything (oldPS == 0), and on retired ranks
		// or in degraded-all mode afterwards.
		fullU []float64
	)
	surv := world
	var spaceComm, timeComm *mpi.Comm
	var solver *pfasst.GridSolver
	var local *particle.System
	var fineSys, coarseSys *DistVortexSystem
	var fineEvals, coarseEvals int64

	// Resume shares the shrink path: load the full state, let the first
	// recovery round partition it onto whatever PS this run has. Every
	// rank reads and validates its own copy of the checkpoint, so the
	// accept-or-reject decision must be agreed world-wide before anyone
	// returns: a rank-local read or validation failure that bailed out
	// directly would strand the surviving ranks in the block-loop
	// collectives below (the PR 8 deadlock class; nbodylint's
	// collective rule flags the bare early returns).
	if rz.Resume && rz.CheckpointDir != "" {
		gl, err := checkpoint.LoadGrid(rz.CheckpointDir)
		var rerr error
		loaded := false
		switch {
		case err == nil:
			switch {
			case len(gl.U) != 6*n:
				rerr = fmt.Errorf("core: resume: checkpoint dim %d does not match problem dim %d", len(gl.U), 6*n)
			case gl.StepsDone > nsteps:
				rerr = fmt.Errorf("core: checkpoint has %d steps done, run wants %d", gl.StepsDone, nsteps)
			default:
				if v := grd.ValidateCheckpoint(gl.U, gl.Diag, gl.Block); v != nil {
					rerr = fmt.Errorf("core: resume rejected: %w", v)
				} else {
					loaded = true
				}
			}
		case errors.Is(err, fs.ErrNotExist):
			// Missing checkpoint: start from the beginning.
		default:
			rerr = fmt.Errorf("core: resume: %w", err)
		}
		av := int64(1)
		if rerr != nil {
			av = 0
		}
		if world.Agree(av) == 0 {
			if rerr == nil {
				rerr = fmt.Errorf("core: resume rejected on a peer rank")
			}
			return Result{}, rerr
		}
		if loaded {
			stepsDone, block = gl.StepsDone, gl.Block
			fullU = gl.U
		}
	}
	if fullU == nil {
		fullU = full.PackNew()
	}

	// bankEvals folds the current systems' force-evaluation counters
	// into the run totals before they are replaced.
	bankEvals := func() {
		if fineSys != nil {
			fineEvals += fineSys.Evals
			coarseEvals += coarseSys.Evals
		}
		fineSys, coarseSys = nil, nil
	}

	// recoverGrid is one full recovery round: agree on the dead, chain-
	// shrink, rebuild communicators and solvers, redistribute state.
	// It loops internally until a round completes without a transport
	// failure, and returns only errors that are identical on every live
	// rank (lost state, corrupt checkpoint, exhausted retry budget).
	recoverGrid := func() error {
		for {
			cRounds.Inc()
			spanA := tAgree.Start()
			dead := world.AgreeDeadRanks()
			spanA.Stop()

			// Retry accounting is a pure function of agreed data, so
			// every rank takes the give-up branch together (no extra
			// agreement needed). The first round and rounds that found a
			// new death are free, mirroring the PS=1 rule that shrinks
			// do not consume the retry budget.
			if prevDead >= 0 {
				if len(dead) > prevDead {
					retries = 0
				} else {
					retries++
					if retries > maxRetries {
						// Wrap this rank's last abort cause so callers
						// keep a typed handle on WHY the budget ran out
						// (e.g. a recurring guard violation).
						if lastAbort != nil {
							return fmt.Errorf("core: block %d failed %d attempts without a new rank death: %w", block, retries, lastAbort)
						}
						return fmt.Errorf("core: block %d failed %d attempts without a new rank death (aborts raised by peers)", block, retries)
					}
				}
			}
			prevDead = len(dead)

			var lost error
			err := func() (rerr error) {
				defer func() {
					if p := recover(); p != nil {
						cerr, ok := mpi.AsCommFailure(p)
						if !ok {
							panic(p)
						}
						rerr = cerr
					}
				}()

				spanB := tRebuild.Start()
				rgen++
				surv = surv.ShrinkTo(dead)
				surv.SetLabel(fmt.Sprintf("surv[gen=%d]", rgen))
				surv.FailFast(true)

				// Active set: a pure function of the agreed dead list.
				deadSet := make(map[int]bool, len(dead))
				for _, wr := range dead {
					deadSet[wr] = true
				}
				liveOf := make([][]int, pt)
				for wr := 0; wr < pt*ps0; wr++ {
					if !deadSet[wr] {
						s := wr / ps0
						liveOf[s] = append(liveOf[s], wr)
					}
				}
				psNew = len(liveOf[0])
				for _, lv := range liveOf[1:] {
					if len(lv) < psNew {
						psNew = len(lv)
					}
				}
				myIdx := -1
				for i, wr := range liveOf[slice] {
					if wr == world.Rank() {
						myIdx = i
					}
				}
				wasActive, oldCol := active, col
				active = psNew > 0 && myIdx < psNew
				col = -1
				if active {
					col = myIdx
				} else {
					cRetired.Inc()
				}

				// Rebuild both communicator families. Retired ranks pass
				// color −1 and get comms they never use; what matters is
				// that every surviving rank participates in both splits.
				colorS, colorT := -1, -1
				if active {
					colorS, colorT = slice, col
				}
				spaceComm = surv.Split(colorS, myIdx)
				timeComm = surv.Split(colorT, slice)
				if active {
					spaceComm.SetLabel(fmt.Sprintf("space[slice=%d,gen=%d]", slice, rgen))
					spaceComm.FailFast(true)
					timeComm.SetLabel(fmt.Sprintf("time[col=%d,gen=%d]", col, rgen))
					timeComm.FailFast(true)
					timeComm.AttachTelemetry(cfg.Tel)
				}
				spanB.Stop()

				// Redistribute the committed block-start state. Every
				// rank that held a column share contributes it; the full
				// state is reassembled identically everywhere (retired
				// ranks included, so reactivation needs no extra path).
				spanR := tRedist.Start()
				if oldPS == 0 {
					// Nothing distributed yet: every live rank already
					// holds the full committed state in fullU.
				} else {
					msg := make([]float64, 2, 2+len(u))
					if wasActive {
						msg[0], msg[1] = 1, float64(oldCol)
						msg = append(msg, u...)
					}
					all := surv.Allgather(mpi.Float64sToBytes(msg))
					shares := make([][]float64, oldPS)
					for _, raw := range all {
						x := mpi.BytesToFloat64s(raw)
						if len(x) >= 2 && x[0] > 0.5 {
							if j := int(x[1]); j >= 0 && j < oldPS && shares[j] == nil {
								shares[j] = x[2:]
							}
						}
					}
					fullU = fullU[:0]
					for j, s := range shares {
						if s == nil {
							// A whole temporal column died: the share
							// survives only on disk.
							if rz.CheckpointDir == "" {
								lost = fmt.Errorf("%w: column %d/%d has no live holder", ErrStateLost, j, oldPS)
								spanR.Stop()
								return nil
							}
							gl, err := checkpoint.LoadGrid(rz.CheckpointDir)
							if err != nil || gl.StepsDone != stepsDone || len(gl.U) != 6*n {
								lost = fmt.Errorf("%w: column %d/%d has no live holder and no matching checkpoint", ErrStateLost, j, oldPS)
								spanR.Stop()
								return nil
							}
							if v := grd.ValidateCheckpoint(gl.U, gl.Diag, gl.Block); v != nil {
								lost = fmt.Errorf("%w: checkpoint rejected: %w", ErrStateLost, v)
								spanR.Stop()
								return nil
							}
							fullU = gl.U
							break
						}
						fullU = append(fullU, s...)
					}
					if len(fullU) != 6*n {
						lost = fmt.Errorf("%w: reassembled %d floats, want %d", ErrStateLost, len(fullU), 6*n)
						spanR.Stop()
						return nil
					}
				}

				// Re-partition onto the new width and rebuild solvers.
				bankEvals()
				solver = nil
				if active {
					fullSys := full.Clone()
					fullSys.Unpack(fullU)
					local = hot.BlockPartition(fullSys, col, psNew)
					u = local.PackNew()
					specs := make([]pfasst.LevelSpec, len(levels))
					systems := make([]*DistVortexSystem, len(levels))
					for i, l := range levels {
						hs := hot.New(spaceComm, gridHotConfig(cfg, l.Theta, grd))
						systems[i] = NewDistVortexSystem(local, hs)
						systems[i].Instrument(cfg.Tel, i)
						specs[i] = pfasst.LevelSpec{Sys: systems[i], NNodes: l.NNodes}
					}
					fineSys, coarseSys = systems[0], systems[len(systems)-1]
					gs, err := pfasst.NewGridSolver(pfasst.Config{
						Levels:       specs,
						Iterations:   cfg.Iterations,
						CoarseSweeps: cfg.CoarseSweeps,
						Tol:          cfg.Tol,
						Tel:          cfg.Tel,
						Resilience:   rz,
						Guard:        grd,
					}, &pres)
					if err != nil {
						return err
					}
					solver = gs
					grd.AttachSpace(spaceComm)
					grd.CommitState(u, block)
				} else {
					u, local = nil, nil
					grd.AttachSpace(nil)
				}
				oldPS = psNew
				spanR.Stop()
				return nil
			}()

			// Recovery verdict: any fatal (0) outranks any transport
			// failure (1) outranks success (2). Transport failures mean
			// a rank died mid-recovery — loop, the next round's dead set
			// includes it.
			v := int64(2)
			if err != nil {
				v = 1
			}
			if lost != nil {
				v = 0
			}
			switch world.Agree(v) {
			case 2:
				return nil
			case 1:
				continue
			default:
				if lost != nil {
					return lost
				}
				return fmt.Errorf("%w: detected by a peer during recovery", ErrStateLost)
			}
		}
	}

	// attemptOnce runs one guarded block attempt on this active rank.
	// fatal marks failures no retry can fix (scrub-ladder exhaustion).
	attemptOnce := func() (be []float64, aerr error, fatal bool) {
		defer func() {
			if p := recover(); p != nil {
				cerr, ok := mpi.AsCommFailure(p)
				if !ok {
					panic(p)
				}
				// Transport failure: wake peers blocked in deadline-less
				// spatial collectives, then vote to abort.
				spaceComm.Revoke()
				timeComm.Revoke()
				be, aerr, fatal = nil, cerr, false
			}
		}()
		if v := grd.ScrubState(u); v != nil {
			return nil, v, true
		}
		tn := t0 + (float64(stepsDone)+float64(timeComm.Rank()))*dt
		end, err := solver.BlockAttempt(timeComm, tn, dt, u, block, gen)
		if err != nil {
			spaceComm.Revoke()
			timeComm.Revoke()
			return nil, err, false
		}
		// Guard block-end fold, exactly as on the PS=1 path: flips are
		// hashed rank-independently, the detectors see the identical
		// post-broadcast end state, and Agree (spatial) makes the
		// verdict uniform before it enters the world agreement.
		ginj := grd.InjectBlockEnd(end, block, retries)
		if v := grd.CheckBlockEnd(end, block, ginj); v != nil {
			if ginj > 0 {
				gpending += ginj
			} else {
				gpending++
			}
			return nil, v, false
		}
		return end, nil, false
	}

	// commitCheckpoint persists the committed block under the grid
	// manifest: slice 0's active ranks write the shards, column 0
	// gathers the full state for the manifest invariants, and one world
	// agreement decides done (2) / skip after a death (1) / fatal write
	// error (0).
	commitCheckpoint := func() (redo bool, err error) {
		span := tCkpt.Start()
		defer span.Stop()
		v := int64(2)
		werr := func() (werr error) {
			defer func() {
				if p := recover(); p != nil {
					cerr, ok := mpi.AsCommFailure(p)
					if !ok {
						panic(p)
					}
					v = 1
					werr = cerr
				}
			}()
			if !active || slice != 0 {
				return nil
			}
			st := &checkpoint.LevelState{
				Block:     block,
				StepsDone: stepsDone,
				TimeRanks: pt,
				T:         t0 + float64(stepsDone)*dt,
				U:         [][]float64{u},
			}
			if err := checkpoint.SaveGridShard(rz.CheckpointDir, col, st); err != nil {
				return err
			}
			// The Allgather doubles as the shard barrier: each column
			// contributes only after its own shard is durable, so when
			// column 0 has every share, every shard is on disk.
			all := spaceComm.Allgather(mpi.Float64sToBytes(u))
			if col != 0 {
				return nil
			}
			dims := make([]int, len(all))
			var fu []float64
			for j, raw := range all {
				x := mpi.BytesToFloat64s(raw)
				dims[j] = len(x)
				fu = append(fu, x...)
			}
			return checkpoint.CommitGridManifest(rz.CheckpointDir, &checkpoint.GridState{
				Block:      block,
				StepsDone:  stepsDone,
				TimeRanks:  pt,
				SpaceRanks: psNew,
				T:          t0 + float64(stepsDone)*dt,
				Dims:       dims,
				Diag:       grd.CheckpointDiag(fu),
			})
		}()
		if werr != nil && v == 2 {
			v = 0
		}
		switch world.Agree(v) {
		case 2:
			return false, nil
		case 1:
			// A rank died during the checkpoint phase. The block is
			// committed in memory; skip this checkpoint (the previous
			// manifest stays valid) and recover before the next block.
			return true, nil
		default:
			if werr != nil {
				return false, fmt.Errorf("core: block %d grid checkpoint: %w", block, werr)
			}
			return false, fmt.Errorf("core: block %d grid checkpoint failed on a peer", block)
		}
	}

	// runDegradedAll: no slice has enough survivors for parallel-in-time
	// work, so every live rank redundantly integrates the full remaining
	// interval with serial SDC. Output is deterministic and identical on
	// every rank; comm failures during setup report back for another
	// recovery round.
	runDegradedAll := func() (Result, error, bool) {
		ok := true
		var res Result
		var rerr error
		func() {
			defer func() {
				if p := recover(); p != nil {
					if _, is := mpi.AsCommFailure(p); !is {
						panic(p)
					}
					ok = false
				}
			}()
			world.FaultPoint("degraded", stepsDone)
			single := surv.Split(surv.Rank(), 0)
			fullSys := full.Clone()
			fullSys.Unpack(fullU)
			hs := hot.New(single, gridHotConfig(cfg, levels[0].Theta, nil))
			sys := NewDistVortexSystem(fullSys, hs)
			sys.Instrument(cfg.Tel, 0)
			in := sdc.NewIntegrator(sys, levels[0].NNodes, fallbackSweeps)
			uu := fullSys.PackNew()
			remaining := nsteps - stepsDone
			tn := t0 + float64(stepsDone)*dt
			in.Integrate(tn, tn+float64(remaining)*dt, remaining, uu)
			pres.SweepsFine += remaining * fallbackSweeps
			pres.DegradedBlocks++
			cfg.Tel.Counter(pfasst.CounterDegradedBlocks).Inc()
			pres.U = uu
			pres.FinalRanks = 1
			fullSys.Unpack(uu)
			bankEvals()
			res = Result{
				Local:        fullSys,
				SpatialIndex: 0,
				TimeSlice:    slice,
				SpatialRanks: 1,
				Participated: true,
				PFASST:       pres,
				FineEvals:    fineEvals + sys.Evals,
				CoarseEvals:  coarseEvals,
			}
		}()
		return res, rerr, ok
	}

	// The first "recovery" round is the initial decomposition (empty
	// dead set). It runs even when a resumed checkpoint already covers
	// every step, so the final Result always holds distributed state.
	needRecovery := true
	for {
		if needRecovery {
			if err := recoverGrid(); err != nil {
				return Result{}, err
			}
			needRecovery = false
			if psNew == 0 {
				res, err, ok := runDegradedAll()
				if !ok {
					needRecovery = true
					continue
				}
				return res, err
			}
		}
		if stepsDone >= nsteps {
			break
		}

		// Cancellation folds into an extra world agreement (gated on
		// Ctx/OnBlock, so ctx-free runs are untouched): every rank —
		// active or retired — takes the identical abort-or-continue
		// decision, and a cancel lands only on the committed block-start
		// state, which the grid checkpoint already covers.
		if cfg.Ctx != nil || cfg.OnBlock != nil {
			if cfg.OnBlock != nil && active && col == 0 && timeComm.Rank() == 0 {
				cfg.OnBlock(block)
			}
			cerr := pfasst.CancelErr(cfg.Ctx, block)
			av := int64(2)
			if cerr != nil {
				av = 0
			}
			if world.Agree(av) == 0 {
				if cerr == nil {
					cerr = pfasst.CancelErr(cfg.Ctx, block)
				}
				if cerr == nil {
					cerr = fmt.Errorf("core: block %d: %w: canceled on a peer", block, pfasst.ErrCanceled)
				}
				return Result{}, cerr
			}
		}

		world.FaultPoint("block", stepsDone)
		var blockEnd []float64
		var aerr error
		fatal := false
		if active {
			blockEnd, aerr, fatal = attemptOnce()
		}
		v := int64(2)
		if aerr != nil {
			v = 1
		}
		if fatal {
			v = 0
		}
		switch world.Agree(v) {
		case 2:
			stepsDone += pt
			block++
			gen++
			retries = 0
			lastAbort = nil
			if active {
				u = blockEnd
				grd.RecordRecovered(gpending)
				gpending = 0
				grd.CommitState(u, block)
			}
			if psNew < ps0 {
				if solver != nil {
					solver.RecordDegraded()
				} else {
					pres.DegradedBlocks++
				}
			}
			if rz.CheckpointDir != "" {
				redo, err := commitCheckpoint()
				if err != nil {
					return Result{}, err
				}
				if redo {
					needRecovery = true
				}
			}
		case 1:
			gen++
			if aerr != nil {
				lastAbort = aerr
			}
			if solver != nil {
				solver.RecordRestart()
			} else {
				pres.BlockRestarts++
			}
			needRecovery = true
		default:
			if aerr != nil {
				return Result{}, aerr
			}
			return Result{}, grd.PeerViolation("state-checksum", block)
		}
	}

	bankEvals()
	pres.FinalRanks = pt
	if !active {
		return Result{
			SpatialIndex: -1,
			TimeSlice:    slice,
			SpatialRanks: psNew,
			Participated: false,
			PFASST:       pres,
			FineEvals:    fineEvals,
			CoarseEvals:  coarseEvals,
		}, nil
	}
	pres.U = u
	out := local.Clone()
	out.Unpack(u)
	return Result{
		Local:        out,
		SpatialIndex: col,
		TimeSlice:    slice,
		SpatialRanks: psNew,
		Participated: true,
		PFASST:       pres,
		FineEvals:    fineEvals,
		CoarseEvals:  coarseEvals,
	}, nil
}
