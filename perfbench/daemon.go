package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	nbody "repro"
	"repro/internal/checkpoint"
	"repro/internal/particle"
	"repro/internal/server"
)

// waitTimeout bounds the wait for one job; a job not done by then is a
// failed operation.
const waitTimeout = 60 * time.Second

// newDaemon starts a daemon with one worker: PT=2 jobs then keep at
// most two rank goroutines in flight, one per core of a 2-core host.
// Every other setting is the daemon's default.
func newDaemon(dir string) (*server.Daemon, error) {
	return server.New(server.Config{Dir: dir, Workers: 1})
}

// jobOutcome is one submitted job as the load generator saw it.
type jobOutcome struct {
	id        uint64
	spec      int
	status    server.JobStatus
	err       error
	due, done time.Time
}

// latency is the job's time from due to done, in seconds.
func (j jobOutcome) latency() float64 { return j.done.Sub(j.due).Seconds() }

// loadResult is what one open-loop load measured.
type loadResult struct {
	cpu       float64 // process CPU seconds over the load
	attempted int
	rejected  []error
	jobs      []jobOutcome
	submits   []float64
	lags      []float64
	metrics   nbody.RunStats
}

// runLoad submits the schedule open-loop: each job is sent at its due
// time whatever the daemon's state, and its latency runs from that due
// time, so a stall also charges the jobs queued behind it. One waiter
// goroutine per admitted job records its completion.
func runLoad(in daemonInputs, d *server.Daemon, tr *tracer) loadResult {
	var lr loadResult
	load := tr.begin("load", 0, 1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	c0 := cpuSeconds()
	start := time.Now()
	for _, jd := range in.schedule {
		due := start.Add(jd.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		lr.lags = append(lr.lags, sent.Sub(due).Seconds())
		sp := tr.begin("server.Daemon.Submit", load, 1)
		id, err := d.Submit(in.pool[jd.spec])
		tr.end(sp)
		lr.submits = append(lr.submits, time.Since(sent).Seconds())
		lr.attempted++
		if err != nil {
			lr.rejected = append(lr.rejected, err)
			continue
		}
		wg.Add(1)
		go func(id uint64, spec int, due time.Time) {
			defer wg.Done()
			st, err := d.WaitJob(id, waitTimeout)
			done := time.Now()
			tr.add("job", load, 2, due, done)
			mu.Lock()
			lr.jobs = append(lr.jobs, jobOutcome{id: id, spec: spec, status: st, err: err, due: due, done: done})
			mu.Unlock()
		}(id, jd.spec, due)
	}
	wg.Wait()
	lr.cpu = cpuSeconds() - c0
	tr.end(load)
	lr.metrics = d.Metrics()
	sort.Slice(lr.jobs, func(a, b int) bool { return lr.jobs[a].due.Before(lr.jobs[b].due) })
	return lr
}

// serviceTimes returns the latencies of the good jobs that arrived to
// an idle daemon (every earlier job already done): with no queue ahead
// of them, their due-to-done time is the daemon's service time.
func (lr *loadResult) serviceTimes(refs []specRef) []float64 {
	var out []float64
	var busyUntil time.Time
	for _, j := range lr.jobs {
		if !busyUntil.After(j.due) && j.good(refs) {
			out = append(out, j.latency())
		}
		if j.done.After(busyUntil) {
			busyUntil = j.done
		}
	}
	return out
}

// specRef is the reference outcome of one pool spec.
type specRef struct {
	hash      string
	wall, cpu float64
	stats     nbody.SpaceTimeStats
}

// references solves every pool spec directly with the exact solver
// configuration the daemon builds for it (resilient loop, block
// checkpoints into a fresh directory, a cancelable context), giving
// the hash each daemon job must reproduce. With telemetry on, the
// solves also carry the per-layer snapshot.
func references(pool []*server.JobSpec, dir string, tr *tracer, telemetry bool) ([]specRef, error) {
	refs := make([]specRef, len(pool))
	for i, spec := range pool {
		sys, err := spec.BuildSystem()
		if err != nil {
			return nil, err
		}
		ckpt := filepath.Join(dir, fmt.Sprintf("spec%02d", i))
		if err := os.MkdirAll(ckpt, 0o755); err != nil {
			return nil, err
		}
		cfg := spec.SolverConfig(ckpt)
		cfg.Telemetry = telemetry
		ctx, cancel := context.WithCancel(context.Background())
		var res *nbody.System
		var st nbody.SpaceTimeStats
		c0 := cpuSeconds()
		name := "reference.job"
		if telemetry {
			name = "reference.job.traced"
		}
		wall := tr.timed(name, 0, func() { res, st, err = nbody.RunSpaceTimeCtx(ctx, cfg, sys, spec.T0, spec.T1, spec.Steps) })
		cpu := cpuSeconds() - c0
		cancel()
		if err != nil {
			return nil, fmt.Errorf("reference solve of spec %d: %w", i, err)
		}
		refs[i] = specRef{hash: stateHash(res), wall: wall, cpu: cpu, stats: st}
	}
	return refs, nil
}

// check applies the daemon correctness gates: every attempted job must
// be admitted, finish done within the wait, and carry the reference
// hash of its spec. Violations count as failed operations.
func (lr *loadResult) check(name string, refs []specRef, out *outcome) {
	out.attempted += lr.attempted
	out.failed += len(lr.rejected)
	for _, err := range lr.rejected {
		out.fail("%s: submit rejected: %v", name, err)
	}
	for _, j := range lr.jobs {
		switch {
		case j.err != nil:
			out.failed++
			out.fail("%s: job %d: %v", name, j.id, j.err)
		case j.status.State != server.StateDone:
			out.failed++
			out.fail("%s: job %d ended %s: %s", name, j.id, j.status.State, j.status.Error)
		case j.status.Hash != refs[j.spec].hash:
			out.failed++
			out.fail("%s: job %d hash %s, reference %s", name, j.id, j.status.Hash, refs[j.spec].hash)
		}
	}
}

// good reports whether job j passed every gate.
func (j jobOutcome) good(refs []specRef) bool {
	return j.err == nil && j.status.State == server.StateDone && j.status.Hash == refs[j.spec].hash
}

// serverMetrics records the server and load-generator metrics.
func (lr *loadResult) serverMetrics(ms *metricSet) {
	ms.value("server.submit_p50_s", median(lr.submits))
	ms.value("server.submit_p90_s", percentile(lr.submits, 0.9))
	ms.value("server.retried", float64(lr.metrics.Counter("server.jobs.retried")))
	ms.value("server.rejected", float64(lr.metrics.Counter("server.rejected.quota")+
		lr.metrics.Counter("server.rejected.queue_full")+lr.metrics.Counter("server.rejected.draining")))
	var lat []float64
	for _, j := range lr.jobs {
		lat = append(lat, j.latency())
	}
	ms.value("loadgen.jobs", float64(len(lr.jobs)))
	ms.value("loadgen.job_p90_s", percentile(lat, 0.9))
	ms.value("loadgen.lag_p90_s", percentile(lr.lags, 0.9))
}

// runDaemon measures the open-loop daemon workload.
func runDaemon(w daemonWorkload, opt runOpts) (*outcome, error) {
	out := &outcome{ms: newMetricSet()}
	if opt.trace {
		out.tr = newTracer()
	}
	tr := out.tr
	ms := out.ms

	// Set-up: input generation, daemon start and journal open, each
	// time into a fresh state directory; the last daemon serves.
	var in daemonInputs
	var d *server.Daemon
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.Close()
		}
		dir := filepath.Join(opt.work, fmt.Sprintf("daemon%d", i))
		quiesce()
		var err error
		setups = append(setups, tr.timed("setup", 0, func() {
			if in, err = w.inputs(opt.seed, opt.seconds); err != nil {
				return
			}
			d, err = newDaemon(dir)
		}))
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	// Reference solves of every pool spec, outside setup_s and the timed
	// window: the hashes every job must reproduce. Run before the load,
	// they also take the process past its first PT=2 solves, whose rank
	// goroutines often share one core.
	refs, err := references(in.pool, filepath.Join(opt.work, "ref"), tr, false)
	if err != nil {
		return nil, err
	}
	rss := startRSS()
	lr := runLoad(in, d, tr)
	peakRSS := rss.peak()
	d.Close()
	lr.check(w.name, refs, out)

	// rel_err: one completed job per spec against serial SDC.
	var rels []float64
	seen := make(map[int]bool)
	for _, j := range lr.jobs {
		if seen[j.spec] || !j.good(refs) {
			continue
		}
		seen[j.spec] = true
		rel, err := jobRelErr(d, j, in.pool[j.spec], tr)
		if err != nil {
			return nil, err
		}
		if !(rel <= w.relTol) {
			out.fail("%s: job %d rel_err %.3g exceeds tolerance %.3g", w.name, j.id, rel, w.relTol)
			out.failed++
		}
		rels = append(rels, rel)
	}
	if len(rels) == 0 {
		return nil, fmt.Errorf("%s: no job completed correctly: %v", w.name, out.gates)
	}

	var lat []float64
	inSLO := 0
	for _, j := range lr.jobs {
		if !j.good(refs) {
			continue
		}
		lat = append(lat, j.latency())
		if j.latency() <= w.slo {
			inSLO++
		}
	}
	ms.samples("setup_s", setups)
	service := lr.serviceTimes(refs)
	if len(service) == 0 {
		return nil, fmt.Errorf("%s: no job found the daemon idle", w.name)
	}
	ms.samples("solve_s", service)
	ms.value("solve_cpu_s", lr.cpu/float64(len(lr.jobs)))
	ms.samples("rel_err", rels)
	ms.samples("job_p50_s", lat)
	ms.value("job_p90_s", percentile(lat, 0.9))
	ms.value("slo_frac", float64(inSLO)/float64(out.attempted))
	out.recordFailures()

	if opt.trace {
		if err := daemonLayers(w, in, refs, ms, out, opt); err != nil {
			return nil, err
		}
		lr.serverMetrics(ms)
	}
	ms.value("peak_rss_mb", peakRSS)
	return out, nil
}

// jobRelErr compares a job's result checkpoint with the serial-SDC
// reference of its spec.
func jobRelErr(d *server.Daemon, j jobOutcome, spec *server.JobSpec, tr *tracer) (float64, error) {
	got, err := checkpoint.Load(d.ResultPath(j.id))
	if err != nil {
		return 0, fmt.Errorf("job %d result: %w", j.id, err)
	}
	sys, err := spec.BuildSystem()
	if err != nil {
		return 0, err
	}
	var ref *nbody.System
	tr.timed("reference.serial_sdc", 0, func() {
		ref, err = serialReference(sys, spec.SolverConfig("").ThetaFine, spec.T1-spec.T0, spec.Steps)
	})
	if err != nil {
		return 0, err
	}
	if !finite(got) {
		return 0, errors.New("non-finite job result")
	}
	return particle.RelMaxPositionError(got, ref), nil
}

// daemonLayers gives the daemon workload its per-layer numbers: the
// pool specs solved directly with telemetry on (the daemon itself runs
// them with telemetry off), the layer replays on the largest spec's
// state, and the serial reference time of that spec.
func daemonLayers(w daemonWorkload, in daemonInputs, refs []specRef, ms *metricSet, out *outcome, opt runOpts) error {
	tr := out.tr
	traced, err := references(in.pool, filepath.Join(opt.work, "traced"), tr, true)
	if err != nil {
		return err
	}
	var layers []map[string]float64
	var residuals []float64
	twall, wall := 0.0, 0.0
	for i, r := range traced {
		if r.hash != refs[i].hash {
			out.fail("%s: telemetry changed the result of spec %d", w.name, i)
			out.failed++
		}
		layers = append(layers, snapshotLayers(r.stats, in.pool[i].PT*in.pool[i].PS, r.wall))
		twall += r.wall
		wall += refs[i].wall
		residuals = append(residuals, r.stats.LastSliceResidual)
	}
	for _, name := range layerSnapshotNames {
		xs := make([]float64, len(layers))
		for i, l := range layers {
			xs[i] = l[name]
		}
		ms.samples(name, xs)
	}
	ms.samples("pfasst.residual", residuals)
	ms.value("core.tracing_overhead_frac", twall/wall-1)

	big := 0
	for i, s := range in.pool {
		if s.System.N*s.Steps > in.pool[big].System.N*in.pool[big].Steps {
			big = i
		}
	}
	spec := in.pool[big]
	sys, err := spec.BuildSystem()
	if err != nil {
		return err
	}
	var refErr error
	serial := tr.timed("reference.serial_sdc", 0, func() {
		_, refErr = serialReference(sys, spec.SolverConfig("").ThetaFine, spec.T1-spec.T0, spec.Steps)
	})
	if refErr != nil {
		return refErr
	}
	ms.value("core.parallel_efficiency", serial/(float64(spec.PT*spec.PS)*refs[big].wall))
	dir := filepath.Join(opt.work, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return replayLayers(ms, tr, sys, spec.SolverConfig("").ThetaFine, (spec.T1-spec.T0)/float64(spec.Steps), dir, spec)
}
