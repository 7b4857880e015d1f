package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Verdicts of the compare mode.
const (
	verdictGain       = "gain"       // ≥ 9/10 pair wins and a median gap wider than the parent's IQR
	verdictRegression = "regression" // median worse than the parent's by more than the bound
	verdictUnresolved = "unresolved" // parent spread wider than the bound, runs overlap
	verdictAllBetter  = "better-all" // spread wider than the bound, yet every change run beats every parent run
	verdictSame       = "within-bound"
	verdictVoid       = "gain-void" // a gain, but more operations failed than at the parent
)

// judgement is the compare mode's finding for one metric on one
// workload.
type judgement struct {
	Metric      string
	Parent      Summary
	Change      Summary
	Wins, Pairs int
	Spread      float64 // the parent's IQR over its median
	Verdict     string
}

// judge applies the benchmark's comparison rules to paired runs
// (parent[i] and change[i] share a seed). moreFailures voids a gain.
func judge(m metricDef, parent, change []float64, moreFailures bool) judgement {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	j := judgement{Metric: m.Name, Parent: summarize(parent), Change: summarize(change), Pairs: n}
	better := func(c, p float64) bool {
		if m.Better == "higher" {
			return c > p
		}
		return c < p
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			j.Wins++
		}
	}
	iqr := j.Parent.Q3 - j.Parent.Q1
	if m := math.Abs(j.Parent.Median); m > 0 {
		j.Spread = iqr / m
	}
	gap := math.Abs(j.Change.Median - j.Parent.Median)
	gain := n > 0 && 10*j.Wins >= 9*n && gap > iqr && better(j.Change.Median, j.Parent.Median)
	worse := j.Change.Median > j.Parent.Median*(1+m.Bound)
	if m.Better == "higher" {
		worse = j.Change.Median < j.Parent.Median*(1-m.Bound)
	}
	switch {
	case m.Bound > 0 && j.Spread > m.Bound:
		j.Verdict = verdictUnresolved
		if allBetter(parent, change, better) {
			j.Verdict = verdictAllBetter
		}
	case gain && moreFailures:
		j.Verdict = verdictVoid
	case gain:
		j.Verdict = verdictGain
	case worse:
		j.Verdict = verdictRegression
	default:
		j.Verdict = verdictSame
	}
	return j
}

// allBetter reports whether every change run beats every parent run.
func allBetter(parent, change []float64, better func(c, p float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return len(change) > 0
}

// pairKey identifies one run of a pair.
type pairKey struct {
	workload string
	seed     int64
}

// compareRecords pairs parent and change records by workload and seed
// and judges every end-to-end metric, one row per workload.
func compareRecords(parent, change []Record) map[string][]judgement {
	index := func(recs []Record) map[pairKey]Record {
		m := make(map[pairKey]Record)
		for _, r := range recs {
			if !r.Trace {
				m[pairKey{r.Workload, r.Seed}] = r
			}
		}
		return m
	}
	pi, ci := index(parent), index(change)
	var keys []pairKey
	for k := range pi {
		if _, ok := ci[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].workload != keys[b].workload {
			return keys[a].workload < keys[b].workload
		}
		return keys[a].seed < keys[b].seed
	})
	out := make(map[string][]judgement)
	byWorkload := make(map[string][]pairKey)
	for _, k := range keys {
		byWorkload[k.workload] = append(byWorkload[k.workload], k)
	}
	for wl, ks := range byWorkload {
		pf, cf := 0, 0
		for _, k := range ks {
			pf += pi[k].Result.Failed
			cf += ci[k].Result.Failed
		}
		for _, m := range endToEnd {
			var p, c []float64
			for _, k := range ks {
				pm, pok := pi[k].Result.Metrics[m.Name]
				cm, cok := ci[k].Result.Metrics[m.Name]
				if pok && cok {
					p = append(p, pm.Value)
					c = append(c, cm.Value)
				}
			}
			if len(p) > 0 {
				out[wl] = append(out[wl], judge(m, p, c, cf > pf))
			}
		}
	}
	return out
}

// compareMain implements `perfbench compare --parent DIR --change DIR`.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parentDir := fs.String("parent", "", "records of the parent commit (directory or file)")
	changeDir := fs.String("change", "", "records of the change (directory or file)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parentDir == "" || *changeDir == "" {
		return fmt.Errorf("compare needs --parent and --change")
	}
	parent, err := readRecords([]string{*parentDir})
	if err != nil {
		return fmt.Errorf("parent: %w", err)
	}
	change, err := readRecords([]string{*changeDir})
	if err != nil {
		return fmt.Errorf("change: %w", err)
	}
	res := compareRecords(parent, change)
	if len(res) == 0 {
		return fmt.Errorf("no (workload, seed) pair appears on both sides")
	}
	var wls []string
	for wl := range res {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	fmt.Fprintln(w, "one row per workload; each cell: metric parent-median[q1,q3] -> change-median[q1,q3] wins/pairs verdict")
	for _, wl := range wls {
		var cells []string
		for _, j := range res[wl] {
			cells = append(cells, fmt.Sprintf("%s %.4g[%.4g,%.4g] -> %.4g[%.4g,%.4g] %d/%d %s",
				j.Metric, j.Parent.Median, j.Parent.Q1, j.Parent.Q3,
				j.Change.Median, j.Change.Q1, j.Change.Q3, j.Wins, j.Pairs, j.Verdict))
		}
		fmt.Fprintf(w, "%s | %s\n", wl, strings.Join(cells, " | "))
	}
	return nil
}

// workloadSummary is one workload's entry of `perfbench summarize`.
type workloadSummary struct {
	Runs       int                `json:"runs"`
	Seeds      []int64            `json:"seeds"`
	GOMAXPROCS int                `json:"gomaxprocs"` // of the workload's runs
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]Summary `json:"metrics"`
	// Spread is each metric's interquartile range over its median.
	Spread map[string]float64 `json:"spread"`
}

// summarizeMain implements `perfbench summarize RECORD...`: per
// workload and mode, the median, quartiles and spread of every metric
// over the runs given — the form of a benchmark trajectory point.
func summarizeMain(args []string, w io.Writer) error {
	recs, err := readRecords(args)
	if err != nil {
		return err
	}
	out := struct {
		Env       Env                         `json:"env"`
		Workloads map[string]*workloadSummary `json:"workloads"`
	}{Env: recs[0].Env, Workloads: make(map[string]*workloadSummary)}
	values := make(map[string]map[string][]float64)
	for _, r := range recs {
		key := r.Workload
		if r.Trace {
			key += "/trace"
		}
		s := out.Workloads[key]
		if s == nil {
			s = &workloadSummary{Metrics: make(map[string]Summary), Spread: make(map[string]float64)}
			out.Workloads[key] = s
			values[key] = make(map[string][]float64)
		}
		s.Runs++
		s.Seeds = append(s.Seeds, r.Seed)
		s.GOMAXPROCS = r.Env.GOMAXPROCS
		s.Attempted += r.Result.Attempted
		s.Failed += r.Result.Failed
		for name, m := range r.Summaries {
			values[key][name] = append(values[key][name], m.Median)
		}
	}
	for key, vs := range values {
		for name, xs := range vs {
			s := summarize(xs)
			out.Workloads[key].Metrics[name] = s
			if m := math.Abs(s.Median); m > 0 {
				out.Workloads[key].Spread[name] = (s.Q3 - s.Q1) / m
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
