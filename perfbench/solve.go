package main

import (
	"fmt"
	"runtime"
	"time"

	nbody "repro"
	"repro/internal/hot"
	"repro/internal/kernel"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/pfasst"
	"repro/internal/tree"
)

const (
	// setupReps is how often a run repeats its set-up, each time after
	// a forced GC; setup_s is the median.
	setupReps = 31
	// minSolves is the least number of untraced solves per run,
	// however short --seconds is.
	minSolves = 3
	// refSweeps is the sweep count of the serial-SDC reference (the
	// paper's baseline SDC(4) on three Lobatto nodes).
	refSweeps = 4
)

// outcome is what a workload run measured.
type outcome struct {
	ms        *metricSet
	procs     int // GOMAXPROCS during the measurement
	attempted int
	failed    int
	gates     []string
	tr        *tracer
}

// recordFailures reports ok_frac and fail_frac from the run's counts.
func (o *outcome) recordFailures() {
	f := float64(o.failed) / float64(o.attempted)
	o.ms.value("ok_frac", 1-f)
	o.ms.value("fail_frac", f)
}

// fail records a failed correctness gate.
func (o *outcome) fail(format string, args ...any) {
	o.gates = append(o.gates, fmt.Sprintf(format, args...))
}

// serialReference integrates sys with serial SDC on one rank and one
// worker, using the tree solver at theta with the façade's settings
// (sixth-order algebraic kernel, transpose scheme, LeafCap 8, dipoles,
// SoA lanes).
func serialReference(sys *nbody.System, theta, t1 float64, steps int) (*nbody.System, error) {
	ev := tree.NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
	ev.Workers = 1
	sim := &nbody.Simulation{Sys: sys.Clone(), Solver: ev, Integrator: nbody.SDC(3, refSweeps)}
	if err := sim.Run(0, t1, steps); err != nil {
		return nil, err
	}
	return sim.Sys, nil
}

// runSolve measures one direct-solve workload. Untraced, it times
// back-to-back RunSpaceTime calls (telemetry off) for opt.seconds; traced,
// it alternates untraced and telemetry-on solves and adds the layer
// replays and a small daemon probe.
func runSolve(w solveWorkload, opt runOpts) (*outcome, error) {
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	out := &outcome{ms: newMetricSet(), procs: runtime.GOMAXPROCS(0)}
	if opt.trace {
		out.tr = newTracer()
	}
	tr := out.tr

	var sys *nbody.System
	var setups []float64
	for i := 0; i < setupReps; i++ {
		quiesce()
		setups = append(setups, tr.timed("setup", 0, func() { sys = w.system(opt.seed) }))
	}
	cfg := w.config()

	var walls, cpus, twalls []float64
	var layers []map[string]float64
	var first *nbody.System
	var firstHash string
	var residual float64
	need := minSolves
	if opt.trace {
		need = 2 * minSolves
	}
	rss := startRSS()
	start := time.Now()
	for i := 0; i < need || time.Since(start).Seconds() < opt.seconds; i++ {
		traced := opt.trace && i%2 == 1
		c := cfg
		c.Telemetry = traced
		name := "solve"
		if traced {
			name = "solve.traced"
		}
		var res *nbody.System
		var st nbody.SpaceTimeStats
		var err error
		c0 := cpuSeconds()
		wall := tr.timed(name, 0, func() { res, st, err = nbody.RunSpaceTime(c, sys, 0, w.t1(), w.steps) })
		cpu := cpuSeconds() - c0
		out.attempted++
		switch {
		case err != nil:
			out.failed++
			out.fail("solve %d: %v", i, err)
			continue
		case !finite(res):
			out.failed++
			out.fail("solve %d: non-finite coordinates", i)
			continue
		}
		h := stateHash(res)
		if first == nil {
			first, firstHash, residual = res, h, st.LastSliceResidual
		} else if h != firstHash {
			out.failed++
			out.fail("solve %d: state hash %s differs from solve 0 (%s)", i, h, firstHash)
			continue
		}
		if traced {
			twalls = append(twalls, wall)
			layers = append(layers, snapshotLayers(st, w.pt*w.ps, wall))
		} else {
			walls = append(walls, wall)
			cpus = append(cpus, cpu)
		}
	}
	peakRSS := rss.peak()
	if first == nil || len(walls) == 0 {
		return nil, fmt.Errorf("%s: no solve succeeded: %v", w.name, out.gates)
	}

	// The reference runs after the timed window, outside setup_s.
	var ref *nbody.System
	var refErr error
	refWall := tr.timed("reference.serial_sdc", 0, func() {
		ref, refErr = serialReference(sys, cfg.ThetaFine, w.t1(), w.steps)
	})
	if refErr != nil {
		return nil, fmt.Errorf("%s: serial reference: %w", w.name, refErr)
	}
	relErr := particle.RelMaxPositionError(first, ref)
	if !(relErr <= w.relTol) {
		out.fail("rel_err %.3g exceeds tolerance %.3g", relErr, w.relTol)
		out.failed = out.attempted
	}

	ms := out.ms
	ms.samples("setup_s", setups)
	ms.samples("solve_s", walls)
	ms.samples("solve_cpu_s", cpus)
	ms.value("rel_err", relErr)
	ms.value("job_p90_s", percentile(walls, 0.9))
	out.recordFailures()

	if opt.trace {
		for _, name := range layerSnapshotNames {
			xs := make([]float64, len(layers))
			for i, l := range layers {
				xs[i] = l[name]
			}
			ms.samples(name, xs)
		}
		ms.value("pfasst.residual", residual)
		ms.value("core.parallel_efficiency", refWall/(float64(w.pt*w.ps)*median(walls)))
		ms.value("core.tracing_overhead_frac", median(twalls)/median(walls)-1)
		if err := replayLayers(ms, tr, sys, cfg.ThetaFine, w.dt, opt.work, probeSpec(w)); err != nil {
			return nil, err
		}
		if err := runProbe(ms, out, opt); err != nil {
			return nil, err
		}
	}
	ms.value("peak_rss_mb", peakRSS)
	return out, nil
}

// layerSnapshotNames are the per-layer metrics read from one traced
// solve's merged telemetry snapshot.
var layerSnapshotNames = []string{
	"kernel.interactions", "tree.mac_accept_frac",
	"hot.decomp_s", "hot.tree_build_s", "hot.branch_s", "hot.traverse_s",
	"hot.fetches", "hot.prefetched", "hot.work_imbalance", "hot.interactions_per_cpu_s",
	"mpi.sends", "mpi.send_bytes", "mpi.collective_s", "mpi.bcast_s",
	"pfasst.predictor_s", "pfasst.iteration_s",
	"pfasst.fine_sweeps", "pfasst.coarse_sweeps", "pfasst.iterations",
	"core.unattributed_frac",
}

// snapshotLayers turns one solve's merged telemetry into per-layer
// values. The façade merges the ranks' registries, summing counters
// and timer totals, so phase seconds are reported as the mean over the
// ranks (total / ranks) per solve.
func snapshotLayers(st nbody.SpaceTimeStats, ranks int, wall float64) map[string]float64 {
	s := st.Run
	r := float64(ranks)
	perRank := func(timer string) float64 { return s.Timer(timer).Total / r }
	count := func(name string) float64 { return float64(s.Counter(name)) }
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	acc, rej := count(hot.CounterMACAccepts), count(hot.CounterMACRejects)
	inter := count(hot.CounterInteractions)
	pfTime := s.Timer(pfasst.PhasePredictor).Total + s.Timer(pfasst.PhaseIteration).Total
	collective := 0.0
	for _, name := range []string{mpi.TimerBarrier, mpi.TimerBcast, mpi.TimerGather, mpi.TimerAllgather, mpi.TimerAlltoall, mpi.TimerAllreduce} {
		collective += s.Timer(name).Total
	}
	return map[string]float64{
		"kernel.interactions":        inter,
		"tree.mac_accept_frac":       ratio(acc, acc+rej),
		"hot.decomp_s":               perRank(hot.PhaseDecomp),
		"hot.tree_build_s":           perRank(hot.PhaseBuild),
		"hot.branch_s":               perRank(hot.PhaseBranch),
		"hot.traverse_s":             perRank(hot.PhaseTraverse),
		"hot.fetches":                count(hot.CounterFetches),
		"hot.prefetched":             count(hot.CounterPrefetched),
		"hot.work_imbalance":         s.Gauges[hot.GaugeImbalance],
		"hot.interactions_per_cpu_s": ratio(inter, s.Timer(hot.PhaseTraverse).Total),
		"mpi.sends":                  count(mpi.CounterSends),
		"mpi.send_bytes":             count(mpi.CounterSendBytes),
		"mpi.collective_s":           collective / r,
		"mpi.bcast_s":                perRank(mpi.TimerBcast),
		"pfasst.predictor_s":         perRank(pfasst.PhasePredictor),
		"pfasst.iteration_s":         perRank(pfasst.PhaseIteration),
		"pfasst.fine_sweeps":         count(pfasst.CounterFineSweeps),
		"pfasst.coarse_sweeps":       count(pfasst.CounterCoarseSweeps),
		"pfasst.iterations":          count(pfasst.CounterIterations),
		"core.unattributed_frac":     1 - ratio(pfTime, r*wall),
	}
}
