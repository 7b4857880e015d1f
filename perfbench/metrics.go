package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef is one entry of the benchmark's metric catalog. The
// catalog is the single source of BENCHMARK.json's end_to_end and
// per_layer lists (TestCatalogMatchesBenchmarkJSON keeps them equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd lists the metrics a user of the solver or the daemon sees.
// Every workload reports every one of them (README.md defines each per
// workload). Bound is the regression budget of the compare mode.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"solve_s", "s", "lower", 0.25},
	{"solve_cpu_s", "s", "lower", 0.25},
	{"rel_err", "1", "lower", 0.10},
	{"ok_frac", "1", "higher", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// reported lists the end-to-end metrics an untraced run prints and
// records but that BENCHMARK.json does not gate and the result line
// omits (README.md, "End-to-end metrics"). Job latency and the latency
// limit are the ungated daemon workload's own; a solve workload
// reports only the last two. A failure fraction reads 0 on every
// healthy run (ok_frac is its gated form), and a closed-loop 90th
// percentile is about the slowest of ten solves.
var reported = []metricDef{
	{"job_p50_s", "s", "lower", 0},
	{"slo_frac", "1", "higher", 0},
	{"job_p90_s", "s", "lower", 0},
	{"fail_frac", "1", "lower", 0},
}

// perLayer lists the traced run's metrics, named by module. README.md
// states which end-to-end metric each should move on which workload.
var perLayer = []metricDef{
	{"kernel.ns_per_interaction", "ns", "lower", 0},
	{"kernel.interactions", "count", "lower", 0},
	{"tree.build_s", "s", "lower", 0},
	{"tree.list_build_s", "s", "lower", 0},
	{"tree.list_eval_s", "s", "lower", 0},
	{"tree.eval_s", "s", "lower", 0},
	{"tree.allocs_per_eval", "count", "lower", 0},
	{"tree.mac_accept_frac", "1", "higher", 0},
	{"hot.decomp_s", "s", "lower", 0},
	{"hot.tree_build_s", "s", "lower", 0},
	{"hot.branch_s", "s", "lower", 0},
	{"hot.traverse_s", "s", "lower", 0},
	{"hot.fetches", "count", "lower", 0},
	{"hot.prefetched", "count", "lower", 0},
	{"hot.work_imbalance", "1", "lower", 0},
	{"hot.interactions_per_cpu_s", "1/s", "higher", 0},
	{"mpi.sends", "count", "lower", 0},
	{"mpi.send_bytes", "B", "lower", 0},
	{"mpi.collective_s", "s", "lower", 0},
	{"mpi.bcast_s", "s", "lower", 0},
	{"sdc.sweep_s", "s", "lower", 0},
	{"pfasst.predictor_s", "s", "lower", 0},
	{"pfasst.iteration_s", "s", "lower", 0},
	{"pfasst.fine_sweeps", "count", "lower", 0},
	{"pfasst.coarse_sweeps", "count", "lower", 0},
	{"pfasst.iterations", "count", "lower", 0},
	{"pfasst.residual", "1", "lower", 0},
	{"core.unattributed_frac", "1", "lower", 0},
	{"core.parallel_efficiency", "1", "higher", 0},
	{"core.tracing_overhead_frac", "1", "lower", 0},
	{"checkpoint.write_s", "s", "lower", 0},
	{"checkpoint.bytes", "B", "lower", 0},
	{"server.submit_p50_s", "s", "lower", 0},
	{"server.submit_p90_s", "s", "lower", 0},
	{"server.journal_append_s", "s", "lower", 0},
	{"server.retried", "count", "lower", 0},
	{"server.rejected", "count", "lower", 0},
	{"loadgen.jobs", "count", "higher", 0},
	{"loadgen.job_p90_s", "s", "lower", 0},
	{"loadgen.lag_p90_s", "s", "lower", 0},
}

// metricName is the benchmark's metric-name grammar.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the object printed as the last line of standard output:
// exactly these four keys.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Summary describes the samples behind one reported metric: the value
// reported is Median; Q1 and Q3 are the exclusive-method quartiles
// (Python's statistics.quantiles default), N the sample count.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// Record is the full result of one run, written as JSON next to the
// printed Result: the environment, the run's settings, every metric's
// sample summary, and the correctness gates that failed.
type Record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Env       Env                `json:"env"`
	Result    Result             `json:"result"`
	Summaries map[string]Summary `json:"summaries"`
	Gates     []string           `json:"gate_failures"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// metricSet accumulates a run's metrics with their samples.
type metricSet struct {
	sums map[string]Summary
}

func newMetricSet() *metricSet { return &metricSet{sums: make(map[string]Summary)} }

// samples reports the median of xs under name.
func (ms *metricSet) samples(name string, xs []float64) {
	ms.sums[name] = summarize(xs)
}

// value reports a single measured value under name.
func (ms *metricSet) value(name string, v float64) {
	ms.sums[name] = Summary{Median: v, Q1: v, Q3: v, N: 1}
}

// result builds the printed Result for the given catalog list. A
// catalog metric the run did not measure is a bug, reported as an
// error rather than printed as a made-up value.
func (ms *metricSet) result(list []metricDef, attempted, failed int, correct bool) (Result, error) {
	r := Result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]Metric, len(list))}
	for _, m := range list {
		s, ok := ms.sums[m.Name]
		if !ok {
			return Result{}, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			return Result{}, fmt.Errorf("metric %s is not finite (%v)", m.Name, s.Median)
		}
		r.Metrics[m.Name] = Metric{Value: s.Median, Unit: m.Unit}
	}
	return r, nil
}

// summaries returns the summaries of the metrics in list.
func (ms *metricSet) summaries(list []metricDef) map[string]Summary {
	out := make(map[string]Summary, len(list))
	for _, m := range list {
		if s, ok := ms.sums[m.Name]; ok {
			out[m.Name] = s
		}
	}
	return out
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middle values for even
// counts); NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive
// method of Python's statistics.quantiles(data, n=4), the rule the
// benchmark's spread checks are defined with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) by linear
// interpolation between closest ranks. Unlike the exclusive quartiles
// it never extrapolates past the largest sample, which matters for
// tail latencies of small samples.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func summarize(xs []float64) Summary {
	q1, q3 := quartiles(xs)
	return Summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}
