package experiments

import (
	"sync"

	"repro/internal/core"
	"repro/internal/hot"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/pfasst"
	"repro/internal/telemetry"
)

// PhasesConfig parameterizes the space-time phase-breakdown run.
type PhasesConfig struct {
	PT, PS int // space-time grid
	N      int // particles
	NSteps int // must be a multiple of PT
	Seed   int64
	// StealGrain tunes the work-stealing chunk size.
	StealGrain int
	// Threads > 1 selects the hybrid per-rank traversal (worker pool +
	// communication goroutine), the path where hot.steals and
	// hot.worker_busy are recorded.
	Threads int
	// Branch selects the branch-node exchange (hot.BranchBatched makes
	// hot.prefetched visible and zeroes hot.fetches); Balance enables
	// the work-weighted decomposition.
	Branch  hot.BranchMode
	Balance bool
}

// DefaultPhases returns a small PFASST(2,2,2)×2 run.
func DefaultPhases() PhasesConfig {
	return PhasesConfig{PT: 2, PS: 2, N: 512, NSteps: 4, Seed: 1}
}

// SpaceTimePhases runs one instrumented space-time solve and reports
// the merged telemetry as a per-phase table: tree build, branch
// exchange, traversal, and the fine/coarse sweep counts of the PFASST
// iteration — the observability counterpart of the paper's per-phase
// timing discussion. The returned snapshot is the raw merged data
// (counters summed over ranks, timer maxima across them) for JSON/CSV
// export.
func SpaceTimePhases(cfg PhasesConfig) (telemetry.Snapshot, *Table) {
	full := particle.RandomVortexBlob(cfg.N, 0.05, cfg.Seed)
	ccfg := core.Default(cfg.PT, cfg.PS)
	ccfg.StealGrain = cfg.StealGrain
	if cfg.Threads > 0 {
		ccfg.Threads = cfg.Threads
	}
	ccfg.Branch = cfg.Branch
	ccfg.Balance = cfg.Balance
	var merged telemetry.Snapshot
	var mu sync.Mutex
	err := mpi.Run(cfg.PT*cfg.PS, func(w *mpi.Comm) error {
		rcfg := ccfg
		rcfg.Tel = telemetry.New()
		_, err := core.RunSpaceTime(w, rcfg, full, 0, 0.1, cfg.NSteps)
		mu.Lock()
		merged.Merge(rcfg.Tel.Snapshot())
		mu.Unlock()
		return err
	})
	if err != nil {
		panic(err)
	}

	tb := &Table{
		Title:  "Space-time phases — instrumented PFASST(2,2)×tree run",
		Header: []string{"phase", "count", "total(s)", "max(s)"},
	}
	for _, name := range []string{
		hot.PhaseDecomp, hot.PhaseBuild, hot.PhaseBranch, hot.PhaseTraverse,
		hot.TimerWorkerBusy, pfasst.PhasePredictor, pfasst.PhaseIteration,
	} {
		ts := merged.Timer(name)
		tb.AddRow(name, f("%d", ts.Count), f("%.4f", ts.Total), f("%.4f", ts.Max))
	}
	for _, name := range []string{
		pfasst.CounterFineSweeps, pfasst.CounterCoarseSweeps,
		"core.evals.level0", "core.evals.level1",
		hot.CounterInteractions, hot.CounterMACAccepts, hot.CounterMACRejects,
		hot.CounterFetches, hot.CounterPrefetched, hot.CounterSteals,
		mpi.CounterSends, mpi.CounterSendBytes,
	} {
		tb.AddRow(name, f("%d", merged.Counter(name)), "", "")
	}
	tb.AddNote("PT=%d PS=%d N=%d nsteps=%d; unmodeled run: phase times are host", cfg.PT, cfg.PS, cfg.N, cfg.NSteps)
	tb.AddNote("wall-clock seconds, counters sum over all %d ranks", cfg.PT*cfg.PS)
	return merged, tb
}
