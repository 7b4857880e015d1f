package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	nbody "repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/sdc"
	"repro/internal/server"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Replay settings: the configuration RunSpaceTime builds for every
// level's tree (core.Default: LeafCap 8, dipoles, SoA lanes, list
// traversal with groups of max(LeafCap, 8), one worker per rank since
// Threads ≤ 1). The zero values of the internal configs differ (AoS
// layout), so the replays spell every setting out.
const (
	replayLeafCap  = 8
	replayGroupCap = 8
	replayMAC      = tree.MACBarnesHut
	replayDipole   = true
	replayLayout   = particle.LayoutSoA
)

// repeat calls fn, which returns one measurement, at least minReps
// times and until minSec seconds of measurements have accumulated
// (at most maxReps times).
func repeat(minReps, maxReps int, minSec float64, fn func() float64) []float64 {
	var xs []float64
	total := 0.0
	for len(xs) < maxReps && (len(xs) < minReps || total < minSec) {
		x := fn()
		xs = append(xs, x)
		total += x
	}
	return xs
}

// sink keeps replay results observable so the compiler cannot drop the
// replayed calls.
var sink float64

// replayLayers times the program's public per-layer functions on the
// workload's own state and records the replay metrics.
func replayLayers(ms *metricSet, tr *tracer, sys *nbody.System, theta, dt float64, dir string, spec *server.JobSpec) error {
	root := tr.begin("replay", 0, 0)
	defer tr.end(root)
	bcfg := tree.BuildConfig{LeafCap: replayLeafCap, Discipline: tree.Vortex, Layout: replayLayout}
	pw := kernel.Pairwise{Sm: kernel.Algebraic6(), Sigma: sys.Sigma}

	// tree: build into a reused arena, as the solvers do.
	var arena tree.Arena
	tree.BuildInto(&arena, sys, bcfg)
	ms.samples("tree.build_s", repeat(5, 200, 0.3, func() float64 {
		return tr.timed("tree.BuildInto", root, func() { tree.BuildInto(&arena, sys, bcfg) })
	}))

	// tree: interaction lists per target group, then their evaluation.
	t := tree.BuildInto(new(tree.Arena), sys, bcfg)
	groups := t.Groups(replayGroupCap)
	lists := make([]tree.InteractionList, len(groups))
	buildLists := func() {
		for gi, g := range groups {
			nd := &t.Nodes[g]
			lists[gi].Reset()
			gc, ge := t.GroupBounds(nd.First, nd.Count)
			t.AppendInteractionList(&lists[gi], replayMAC, theta, int32(t.Root), gc, ge)
		}
	}
	ms.samples("tree.list_build_s", repeat(3, 100, 0.3, func() float64 {
		return tr.timed("tree.AppendInteractionList", root, buildLists)
	}))
	ms.samples("tree.list_eval_s", repeat(3, 100, 0.5, func() float64 {
		return tr.timed("tree.EvalVortexList", root, func() {
			for gi, g := range groups {
				nd := &t.Nodes[g]
				for i := nd.First; i < nd.First+nd.Count; i++ {
					orig := t.Order[i]
					res := t.EvalVortexList(&lists[gi], replayMAC, theta, sys.Particles[orig].Pos, orig, pw, replayDipole)
					sink += res.U.X
				}
			}
		})
	}))

	// kernel: the batched near-field kernel over every (target, leaf)
	// range of the lists just built.
	var pairs int64
	batch := kernel.NewVortexBatch(pw)
	l := t.Lanes
	kernelPass := func() {
		pairs = 0
		for gi, g := range groups {
			nd := &t.Nodes[g]
			for i := nd.First; i < nd.First+nd.Count; i++ {
				var acc kernel.VortexAcc
				for _, it := range lists[gi].Items {
					if it.Kind != tree.ItemNear {
						continue
					}
					leaf := &t.Nodes[it.Node]
					lo, hi := leaf.First, leaf.First+leaf.Count
					skip := -1
					if i >= lo && i < hi {
						skip = i - lo
						pairs--
					}
					batch.AccumGradRange(&acc, l.X[i], l.Y[i], l.Z[i],
						l.X[lo:hi], l.Y[lo:hi], l.Z[lo:hi], l.AX[lo:hi], l.AY[lo:hi], l.AZ[lo:hi], skip)
					pairs += int64(hi - lo)
				}
				sink += acc.UX
			}
		}
	}
	ms.samples("kernel.ns_per_interaction", repeat(3, 200, 0.3, func() float64 {
		d := tr.timed("kernel.AccumGradRange", root, kernelPass)
		if pairs < 1 {
			return 0
		}
		return d / float64(pairs) * 1e9
	}))

	// tree: one full synchronous Eval and its heap allocations.
	ev := tree.NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
	ev.Workers = 1
	vel := make([]vec.Vec3, sys.N())
	str := make([]vec.Vec3, sys.N())
	ev.Eval(sys, vel, str)
	var allocs []float64
	ms.samples("tree.eval_s", repeat(3, 50, 0.5, func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := tr.timed("tree.Solver.Eval", root, func() { ev.Eval(sys, vel, str) })
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		return d
	}))
	ms.samples("tree.allocs_per_eval", allocs)

	// sdc: one explicit sweep on the serial vortex ODE at θ_fine.
	sw := sdc.NewSweeper(core.NewVortexSystem(sys, ev), 3)
	sw.Setup(0, dt)
	sw.SetU0(sys.PackNew())
	sw.Spread()
	ms.samples("sdc.sweep_s", repeat(2, 20, 0.5, func() float64 {
		return tr.timed("sdc.Sweeper.Sweep", root, sw.Sweep)
	}))

	// checkpoint: atomic NBLV save of the workload state.
	ckpt := filepath.Join(dir, "replay.nblv")
	var saveErr error
	ms.samples("checkpoint.write_s", repeat(5, 100, 0.1, func() float64 {
		return tr.timed("checkpoint.Save", root, func() {
			if err := checkpoint.Save(ckpt, sys); err != nil {
				saveErr = err
			}
		})
	}))
	if saveErr != nil {
		return fmt.Errorf("checkpoint replay: %w", saveErr)
	}
	fi, err := os.Stat(ckpt)
	if err != nil {
		return fmt.Errorf("checkpoint replay: %w", err)
	}
	ms.value("checkpoint.bytes", float64(fi.Size()))

	// server: fsynced appends to the benchmark's own journal.
	j, _, err := server.OpenJournal(filepath.Join(dir, "replay.nblj"))
	if err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	defer j.Close()
	data := spec.Canonical()
	var appendErr error
	seq := uint64(0)
	ms.samples("server.journal_append_s", repeat(10, 200, 0.1, func() float64 {
		seq++
		return tr.timed("server.Journal.Append", root, func() {
			if err := j.Append(server.Record{Kind: server.RecSubmit, Job: seq, Data: data}); err != nil {
				appendErr = err
			}
		})
	}))
	if appendErr != nil {
		return fmt.Errorf("journal replay: %w", appendErr)
	}
	return nil
}

// probeSpec is a job spec of the solve workload's shape; its canonical
// bytes are the payload of the journal replay.
func probeSpec(w solveWorkload) *server.JobSpec {
	return &server.JobSpec{
		Tenant: "bench",
		System: server.SystemSpec{Kind: "scaled", N: w.n},
		T1:     w.t1(), Steps: w.steps, PT: w.pt, PS: w.ps,
	}
}

// probeLoad is the small daemon load a solve workload's traced run
// drives, so the server layer's metrics exist on every workload.
var probeLoad = daemonWorkload{
	name: "probe",
	rate: 8,
	pool: []server.JobSpec{blobJob("t0", 32, 2, 21), blobJob("t1", 32, 2, 22)},
}

// probeSeconds is the length of the probe's arrival schedule.
const probeSeconds = 1.5

// runProbe drives the probe load against a fresh daemon and records
// the server and load-generator metrics; its jobs join the run's
// attempted and failed counts.
func runProbe(ms *metricSet, out *outcome, opt runOpts) error {
	id := out.tr.begin("probe", 0, 0)
	defer out.tr.end(id)
	in, err := probeLoad.inputs(opt.seed, probeSeconds)
	if err != nil {
		return err
	}
	d, err := newDaemon(filepath.Join(opt.work, "probe"))
	if err != nil {
		return err
	}
	lr := runLoad(in, d, out.tr)
	d.Close()
	refs, err := references(in.pool, filepath.Join(opt.work, "probe-ref"), out.tr, false)
	if err != nil {
		return err
	}
	lr.check(probeLoad.name, refs, out)
	lr.serverMetrics(ms)
	return nil
}
