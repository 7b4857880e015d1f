package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	nbody "repro"
	"repro/internal/particle"
	"repro/internal/server"
)

func TestMetricNameGrammar(t *testing.T) {
	grammar := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, list := range [][]metricDef{endToEnd, reported, perLayer} {
		for _, m := range list {
			if !grammar.MatchString(m.Name) || !metricName.MatchString(m.Name) {
				t.Errorf("metric %q breaks the name grammar", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q listed twice", m.Name)
			}
			seen[m.Name] = true
			if !unit.MatchString(m.Unit) {
				t.Errorf("metric %q: unit %q breaks the unit grammar", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %q: better = %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range endToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m := endToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower is better", m)
	}
	for _, m := range endToEnd[1:] {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a wider bound than setup_s", m.Name)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("grammar accepts %q", bad)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalog the runs print from in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var bj struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef                           `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the catalog:\n%+v\n%+v", bj.EndToEnd, endToEnd)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, catalog %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if c := perLayer[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, m, c)
		}
	}
	if len(bj.Workloads) < 2 {
		t.Errorf("BENCHMARK.json gates %d workloads, want at least 2", len(bj.Workloads))
	}
	for _, w := range bj.Workloads {
		if w.Why != workloadWhy(w.Name) {
			t.Errorf("workload %s: why %q, runner prints %q", w.Name, w.Why, workloadWhy(w.Name))
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	ms := newMetricSet()
	for i, m := range endToEnd {
		ms.samples(m.Name, []float64{float64(i) + 0.5, float64(i) + 1.25, float64(i) + 2})
	}
	res, err := ms.result(endToEnd, 7, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(line, []byte("\n")) {
		t.Fatal("result spans several lines")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("result keys %v", keys)
	}
	var back Result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Fatalf("round trip changed the result:\n%+v\n%+v", back, res)
	}

	rec := Record{Workload: "w", Seed: 3, Seconds: 1.5, Env: captureEnv(".."), Result: res,
		Summaries: ms.summaries(endToEnd), Gates: []string{"g"}}
	path := t.TempDir() + "/r.json"
	if err := writeRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	recs, err := readRecords([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs[0], rec) {
		t.Fatalf("record round trip:\n%+v\n%+v", recs[0], rec)
	}

	// A metric the run did not measure, or a non-finite one, is an
	// error, never a printed placeholder.
	if _, err := newMetricSet().result(endToEnd, 1, 0, true); err == nil {
		t.Error("missing metrics accepted")
	}
	bad := newMetricSet()
	for _, m := range endToEnd {
		bad.value(m.Name, math.NaN())
	}
	if _, err := bad.result(endToEnd, 1, 0, true); err == nil {
		t.Error("NaN metric accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 2.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5}, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v", got)
	}
	if got := percentile([]float64{1, 2}, 1); got != 2 {
		t.Errorf("p100 = %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.15}
	higher := metricDef{Name: "slo_frac", Unit: "1", Better: "higher", Bound: 0.05}
	parent := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.08, 9.92, 10.0}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	cases := []struct {
		name    string
		m       metricDef
		p, c    []float64
		more    bool
		verdict string
	}{
		{"clear gain", lower, parent, shift(parent, -1), false, verdictGain},
		{"gain voided by failures", lower, parent, shift(parent, -1), true, verdictVoid},
		{"no change", lower, parent, parent, false, verdictSame},
		{"small worsening within bound", lower, parent, shift(parent, 1), false, verdictSame},
		{"regression", lower, parent, shift(parent, 2), false, verdictRegression},
		{"8 of 10 wins is no gain", lower, parent,
			[]float64{9, 9.1, 8.9, 9.05, 8.95, 9.02, 8.98, 9.08, 11, 11}, false, verdictSame},
		{"gap inside the parent spread is no gain", lower,
			[]float64{10, 10.5, 9.5, 10.8, 9.2, 10.3, 9.7, 10.6, 9.4, 10},
			[]float64{9.9, 10.4, 9.4, 10.7, 9.1, 10.2, 9.6, 10.5, 9.3, 9.9}, false, verdictSame},
		{"noisy parent is unresolved", lower,
			[]float64{5, 15, 6, 14, 7, 13, 8, 12, 9, 11},
			[]float64{6, 16, 7, 15, 8, 14, 9, 13, 10, 12}, false, verdictUnresolved},
		{"noisy but every change run better", lower,
			[]float64{5, 15, 6, 14, 7, 13, 8, 12, 9, 11},
			[]float64{1, 2, 1.5, 2.5, 1, 2, 1, 2, 1, 2}, false, verdictAllBetter},
		{"higher is better: gain", higher,
			[]float64{0.8, 0.81, 0.79, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8},
			[]float64{0.9, 0.91, 0.89, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}, false, verdictGain},
		{"higher is better: regression", higher,
			[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
			[]float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}, false, verdictRegression},
		{"ties count for neither side", higher,
			[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
			[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, false, verdictSame},
	}
	for _, c := range cases {
		j := judge(c.m, c.p, c.c, c.more)
		if j.Verdict != c.verdict {
			t.Errorf("%s: verdict %s (wins %d/%d, spread %.3f), want %s", c.name, j.Verdict, j.Wins, j.Pairs, j.Spread, c.verdict)
		}
	}
}

func TestCompareRecordsPairsBySeed(t *testing.T) {
	mk := func(wl string, seed int64, solve float64, failed int) Record {
		ms := newMetricSet()
		for _, m := range endToEnd {
			ms.value(m.Name, 1)
		}
		ms.value("solve_s", solve)
		res, err := ms.result(endToEnd, 10, failed, failed == 0)
		if err != nil {
			t.Fatal(err)
		}
		return Record{Workload: wl, Seed: seed, Result: res}
	}
	var parent, change []Record
	for s := int64(1); s <= 10; s++ {
		parent = append(parent, mk("a", s, 10+0.01*float64(s), 0), mk("b", s, 5, 0))
		change = append(change, mk("a", s, 9+0.01*float64(s), 0), mk("b", s, 5, 0))
	}
	parent = append(parent, mk("a", 99, 1, 0)) // unpaired: ignored
	res := compareRecords(parent, change)
	if len(res) != 2 || len(res["a"]) != len(endToEnd) {
		t.Fatalf("rows %v", res)
	}
	for _, j := range res["a"] {
		want := verdictSame
		if j.Metric == "solve_s" {
			want = verdictGain
		}
		if j.Verdict != want || j.Pairs != 10 {
			t.Errorf("a/%s: %s over %d pairs, want %s over 10", j.Metric, j.Verdict, j.Pairs, want)
		}
	}
}

func TestSeededInputs(t *testing.T) {
	for _, w := range []solveWorkload{timeparCluster, spaceparSheet} {
		w.n = 256
		a, b, c := w.system(7), w.system(7), w.system(8)
		if stateHash(a) != stateHash(b) {
			t.Errorf("%s: same seed, different inputs", w.name)
		}
		if stateHash(a) == stateHash(c) {
			t.Errorf("%s: different seeds, same inputs", w.name)
		}
		// Positions stay on the lattice; circulations move by at most
		// alphaJitter relative.
		ref := w.lattice(w.n)
		if d := particle.RelMaxPositionError(a, ref); d != 0 {
			t.Errorf("%s: positions moved by %g", w.name, d)
		}
		for i, p := range a.Particles {
			r := ref.Particles[i].Alpha
			if d := p.Alpha.Sub(r).NormInf(); d > alphaJitter*r.NormInf() {
				t.Errorf("%s: particle %d circulation moved by %g", w.name, i, d)
				break
			}
		}
	}
	a, err := daemonOpenLoop.inputs(7, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := daemonOpenLoop.inputs(7, 20)
	c, _ := daemonOpenLoop.inputs(8, 20)
	if !reflect.DeepEqual(a, b) {
		t.Error("daemon: same seed, different schedule")
	}
	if reflect.DeepEqual(a.schedule, c.schedule) {
		t.Error("daemon: different seeds, same schedule")
	}
	if n := len(a.schedule); n < 40 || n > 120 {
		t.Errorf("daemon: %d arrivals in 20 s at rate %g", n, daemonOpenLoop.rate)
	}
	for _, s := range a.pool {
		if err := s.Validate(); err != nil {
			t.Error(err)
		}
		if s.PT*s.PS > 2 {
			t.Errorf("job %+v runs more than two ranks", s)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and requires every catalog metric and every correctness gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short mode")
	}
	tinyTime := timeparCluster
	tinyTime.n = 300
	tinySpace := spaceparSheet
	tinySpace.n = 300
	tinyDaemon := daemonOpenLoop
	tinyDaemon.rate = 20
	tinyDaemon.pool = []server.JobSpec{blobJob("t0", 24, 2, 5), sheetJob("t1", 32, 2)}
	for _, trace := range []bool{false, true} {
		list := endToEnd
		if trace {
			list = perLayer
		}
		runs := map[string]func(runOpts) (*outcome, error){
			tinyTime.name:   func(o runOpts) (*outcome, error) { return runSolve(tinyTime, o) },
			tinySpace.name:  func(o runOpts) (*outcome, error) { return runSolve(tinySpace, o) },
			tinyDaemon.name: func(o runOpts) (*outcome, error) { return runDaemon(tinyDaemon, o) },
		}
		for name, run := range runs {
			opt := runOpts{seed: 3, seconds: 0.2, trace: trace, work: t.TempDir()}
			procs := runtime.GOMAXPROCS(0)
			out, err := run(opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if got := runtime.GOMAXPROCS(0); got != procs {
				t.Errorf("%s: GOMAXPROCS %d after the run, %d before", name, got, procs)
			}
			if name == tinySpace.name && out.procs != 1 {
				t.Errorf("%s measured with GOMAXPROCS %d, want 1", name, out.procs)
			}
			res, err := out.ms.result(list, out.attempted, out.failed, len(out.gates) == 0)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !trace {
				want := reported
				if name != tinyDaemon.name {
					want = reported[2:] // job_p50_s and slo_frac are the daemon's
				}
				if _, err := out.ms.result(want, out.attempted, out.failed, true); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d gates=%v",
					name, trace, res.Correct, res.Attempted, res.Failed, out.gates)
			}
			if trace {
				path := opt.work + "/trace.json"
				if err := out.tr.write(path); err != nil {
					t.Fatal(err)
				}
				var tf struct{ TraceEvents []traceEvent }
				data, _ := os.ReadFile(path)
				if err := json.Unmarshal(data, &tf); err != nil || len(tf.TraceEvents) == 0 {
					t.Errorf("%s: trace file unreadable or empty: %v", name, err)
				}
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100},
		{name: "a", parent: 1, start: 10, end: 40},
		{name: "b", parent: 1, start: 30, end: 50},  // overlaps a
		{name: "c", parent: 1, start: 90, end: 120}, // runs past the parent
		{name: "a.child", parent: 2, start: 15, end: 20},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 5, 20, 30, 5}
	for i := range want {
		if int64(got[i]) != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestGatesCountFailures(t *testing.T) {
	refs := []specRef{{hash: "aa"}}
	lr := loadResult{
		attempted: 4,
		rejected:  []error{server.ErrQueueFull},
		jobs: []jobOutcome{
			{id: 1, status: server.JobStatus{State: server.StateDone, Hash: "aa"}},
			{id: 2, status: server.JobStatus{State: server.StateDone, Hash: "bb"}},
			{id: 3, status: server.JobStatus{State: server.StateFailed}},
		},
	}
	out := &outcome{ms: newMetricSet()}
	lr.check("w", refs, out)
	if out.attempted != 4 || out.failed != 3 || len(out.gates) != 3 {
		t.Errorf("attempted %d failed %d gates %v", out.attempted, out.failed, out.gates)
	}
	if !finite(nbody.ScaledVortexSheet(8)) {
		t.Error("finite sheet reported non-finite")
	}
	bad := nbody.ScaledVortexSheet(8)
	bad.Particles[3].Pos.Y = math.Inf(1)
	if finite(bad) {
		t.Error("infinite coordinate passed the finiteness gate")
	}
}
