package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	nbody "repro"
	"repro/internal/particle"
	"repro/internal/server"
)

// alphaJitter is the relative amplitude of the seeded perturbation of
// every circulation component. Positions stay on the deterministic
// lattice: the lattices put particles exactly on Morton cell
// boundaries, so any position jitter reshuffles the tree from seed to
// seed and with it the work of a solve and its error. Perturbing only
// the circulations poses a different vorticity field per seed on the
// same tree.
const alphaJitter = 1e-6

// solveWorkload is a direct RunSpaceTime workload.
type solveWorkload struct {
	name   string
	why    string
	pt, ps int
	n      int
	steps  int
	dt     float64
	// lattice builds the unperturbed system of n particles.
	lattice func(n int) *nbody.System
	// relTol bounds rel_err against the serial-SDC reference.
	relTol float64
	// procs, when positive, is the GOMAXPROCS the run uses instead of
	// the default (one per CPU).
	procs int
}

// daemonWorkload is the open-loop nbodyd workload.
type daemonWorkload struct {
	name string
	why  string
	// rate is the Poisson arrival rate in jobs per second, fixed below
	// the daemon's capacity (one worker, PT=2).
	rate float64
	// pool is the fixed catalog of job specs; the seed decides when
	// jobs arrive and which pool entry each one is.
	pool []server.JobSpec
	// slo is the due-to-done latency limit of one job (seconds).
	slo float64
	// relTol bounds a job result's rel_err against serial SDC.
	relTol float64
}

// blobJob and sheetJob build the daemon mix's job specs: PT=2, PS=1,
// the paper's PFASST(2,2) defaults, dt = 0.125.
func blobJob(tenant string, n, steps int, seed int64) server.JobSpec {
	return server.JobSpec{Tenant: tenant, System: server.SystemSpec{Kind: "blob", N: n, Seed: seed, Sigma: 0.3},
		T1: 0.125 * float64(steps), Steps: steps, PT: 2, PS: 1}
}

func sheetJob(tenant string, n, steps int) server.JobSpec {
	return server.JobSpec{Tenant: tenant, System: server.SystemSpec{Kind: "scaled", N: n},
		T1: 0.125 * float64(steps), Steps: steps, PT: 2, PS: 1}
}

var timeparCluster = solveWorkload{
	name: "timepar-cluster",
	why:  "PT=2 PFASST on a clustered sheet (N=4000): list traversal and batched kernels dominate; no branch exchange, fetches or checkpoints",
	pt:   2, ps: 1, n: 4000, steps: 2, dt: 0.25,
	lattice: particle.ClusteredVortexSheet,
	relTol:  1e-3,
}

var spaceparSheet = solveWorkload{
	name: "spacepar-sheet",
	why:  "PT=1 PS=2 PEPC space-only baseline on a uniform sheet (N=2000): hot decomposition, ring branch exchange, fetches and mpi collectives, both ranks on one thread",
	pt:   1, ps: 2, n: 2000, steps: 1, dt: 0.25,
	lattice: nbody.ScaledVortexSheet,
	relTol:  1e-4,
	// The ring exchange fetches synchronously: a rank serves its
	// peer's requests only while it waits for a reply itself, so the
	// two ranks take turns (CPU seconds per solve exceed wall seconds).
	// On two OS threads every one of the ~8000 hand-offs per solve
	// wakes the other thread, and on a shared host that wake-up waits
	// for the other vCPU: solve_s spread 0.34 between runs of the same
	// code. On one P the hand-offs are goroutine switches, and solve_s
	// measures the ranks' work and message passing.
	procs: 1,
}

var daemonOpenLoop = daemonWorkload{
	name: "daemon-openloop",
	why:  "in-process nbodyd under seeded Poisson arrivals of small PT=2 jobs: resilient loop, per-block checkpoints, journal fsyncs, fixed per-eval costs",
	rate: 2.5,
	// Every spec has N = 96 and three blocks, so the service times form
	// one narrow band (about 0.1 s on a 2-vCPU host): with specs of
	// different cost, the latency median would jump between them as the
	// seeded mix changes.
	pool: []server.JobSpec{
		blobJob("t0", 96, 6, 11), blobJob("t1", 96, 6, 12), blobJob("t0", 96, 6, 13), blobJob("t1", 96, 6, 14),
		sheetJob("t0", 96, 6), sheetJob("t1", 96, 6),
	},
	slo:    1,
	relTol: 1e-5,
}

// system builds the workload's seeded input: the deterministic lattice
// with every circulation component scaled by a seeded factor in
// [1-alphaJitter, 1+alphaJitter].
func (w solveWorkload) system(seed int64) *nbody.System {
	sys := w.lattice(w.n)
	rng := rand.New(rand.NewSource(seed))
	for i := range sys.Particles {
		a := &sys.Particles[i].Alpha
		a.X *= 1 + alphaJitter*(2*rng.Float64()-1)
		a.Y *= 1 + alphaJitter*(2*rng.Float64()-1)
		a.Z *= 1 + alphaJitter*(2*rng.Float64()-1)
	}
	return sys
}

// config is the façade configuration of one solve, telemetry off.
func (w solveWorkload) config() nbody.SpaceTimeConfig {
	return nbody.DefaultSpaceTime(w.pt, w.ps)
}

func (w solveWorkload) t1() float64 { return w.dt * float64(w.steps) }

// jobDue is one scheduled submission of the open loop.
type jobDue struct {
	due  time.Duration // offset from the start of the load
	spec int           // index into the pool
}

// daemonInputs are the job specs and arrival schedule of a run.
type daemonInputs struct {
	pool     []*server.JobSpec
	schedule []jobDue
}

// inputs builds a Poisson arrival schedule covering seconds of load,
// each arrival drawing its spec uniformly from the pool.
func (w daemonWorkload) inputs(seed int64, seconds float64) (daemonInputs, error) {
	in := daemonInputs{pool: make([]*server.JobSpec, len(w.pool))}
	for i := range w.pool {
		spec := w.pool[i]
		if err := spec.Validate(); err != nil {
			return daemonInputs{}, err
		}
		in.pool[i] = &spec
	}
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	for {
		t += rng.ExpFloat64() / w.rate
		if t >= seconds {
			break
		}
		in.schedule = append(in.schedule, jobDue{
			due:  time.Duration(t * float64(time.Second)),
			spec: rng.Intn(len(in.pool)),
		})
	}
	if len(in.schedule) == 0 {
		in.schedule = append(in.schedule, jobDue{spec: rng.Intn(len(in.pool))})
	}
	return in, nil
}

// finite reports whether every coordinate and circulation is finite.
func finite(sys *nbody.System) bool {
	for _, p := range sys.Particles {
		for _, v := range []float64{p.Pos.X, p.Pos.Y, p.Pos.Z, p.Alpha.X, p.Alpha.Y, p.Alpha.Z} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// stateHash is the daemon's job fingerprint (JobStatus.Hash): FNV-1a
// over σ and the packed state, printed as 16 hex digits.
func stateHash(sys *nbody.System) string {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(math.Float64bits(sys.Sigma))
	for _, v := range sys.PackNew() {
		mix(math.Float64bits(v))
	}
	return fmt.Sprintf("%016x", h)
}
