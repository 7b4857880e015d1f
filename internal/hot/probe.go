package hot

import (
	"repro/internal/telemetry"
)

// Telemetry names of the parallel tree code. The four phase timers
// mirror the per-phase columns of the paper's Fig. 5 timing tables;
// the counters are the diagnostic set of Valdarnini's and Dubinski's
// treecode performance studies (interactions per rank, MAC balance,
// communication volume, load imbalance).
const (
	PhaseDecomp   = "hot.decomp"          // domain decomposition (sort + alltoall)
	PhaseBuild    = "hot.tree_build"      // local tree construction
	PhaseBranch   = "hot.branch_exchange" // branch allgather + shared top tree
	PhaseTraverse = "hot.traverse"        // tree traversal incl. remote fetches

	CounterEvals        = "hot.evals"
	CounterInteractions = "hot.interactions"
	CounterMACAccepts   = "hot.mac_accepts"
	CounterMACRejects   = "hot.mac_rejects"
	CounterP2P          = "hot.p2p"
	CounterFetches      = "hot.fetches"
	// CounterPrefetched counts remote cells resolved up front by the
	// batched branch exchange (BranchBatched); each one is a fetch
	// round-trip the traversal did not pay.
	CounterPrefetched = "hot.prefetched"
	// CounterSteals counts successful work-stealing operations of the
	// hybrid traversal's scheduler (zero in synchronous mode).
	// Deliberately NOT part of the determinism regression: the steal
	// count depends on OS scheduling, the results do not.
	CounterSteals = "hot.steals"

	GaugeNLocal        = "hot.nlocal"
	GaugeBranchesTotal = "hot.branches_total"
	GaugeImbalance     = "hot.work_imbalance"

	// TimerWorkerBusy accumulates per-worker busy seconds of the
	// traversal scheduler (one observation per worker per evaluation);
	// Max/mean of its spans is the residual node-level imbalance.
	TimerWorkerBusy = "hot.worker_busy"
)

// probe holds the solver's pre-resolved metric handles. With a nil
// registry every handle is nil and each record call is a no-op — the
// zero-allocation disabled path.
type probe struct {
	decomp, build, branch, traverse *telemetry.Timer
	workerBusy                      *telemetry.Timer

	evals, interactions, macAccepts, macRejects, p2p, fetches, prefetched, steals *telemetry.Counter

	nlocal, branchesTotal, imbalance *telemetry.Gauge
}

func newProbe(reg *telemetry.Registry) probe {
	return probe{
		decomp:        reg.Timer(PhaseDecomp),
		build:         reg.Timer(PhaseBuild),
		branch:        reg.Timer(PhaseBranch),
		traverse:      reg.Timer(PhaseTraverse),
		workerBusy:    reg.Timer(TimerWorkerBusy).WithoutPprofLabel(),
		evals:         reg.Counter(CounterEvals),
		interactions:  reg.Counter(CounterInteractions),
		macAccepts:    reg.Counter(CounterMACAccepts),
		macRejects:    reg.Counter(CounterMACRejects),
		p2p:           reg.Counter(CounterP2P),
		fetches:       reg.Counter(CounterFetches),
		prefetched:    reg.Counter(CounterPrefetched),
		steals:        reg.Counter(CounterSteals),
		nlocal:        reg.Gauge(GaugeNLocal),
		branchesTotal: reg.Gauge(GaugeBranchesTotal),
		imbalance:     reg.Gauge(GaugeImbalance),
	}
}

// record publishes the per-evaluation statistics. The phase timers are
// recorded separately (at phase boundaries inside run).
func (pb *probe) record(st *Stats) {
	pb.evals.Inc()
	pb.interactions.Add(st.Interactions)
	pb.macAccepts.Add(st.MACAccepts)
	pb.macRejects.Add(st.MACRejects)
	pb.p2p.Add(st.Interactions - st.MACAccepts)
	pb.fetches.Add(st.Fetches)
	pb.prefetched.Add(st.Prefetched)
	pb.steals.Add(st.Steals)
	pb.nlocal.Set(float64(st.NLocal))
	pb.branchesTotal.Set(float64(st.TotalBranches))
	pb.imbalance.Set(st.WorkImbalance)
}
