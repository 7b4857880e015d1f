// Command perfbench is the repository's benchmark: seeded workloads
// driven through the public solver and daemon APIs, with
// correctness gates on every run, end-to-end metrics from untraced
// runs and per-layer metrics from a separate traced run. See
// README.md for the workloads, the metrics and how to compare two
// commits.
//
// Run (from the repository root, via perfbench/run.sh, which builds
// this command first):
//
//	perfbench --workload timepar-cluster --seed 1 --seconds 40 --trace 0
//	perfbench compare --parent DIR --change DIR
//	perfbench summarize RECORD.json...
//
// The last line of standard output of a run is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// runOpts are the settings of one run.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	work    string // scratch directory, removed when the run ends
}

// workloadNames lists every workload the command runs. BENCHMARK.json
// gates the first two; daemon-openloop is reported but not gated
// (README.md, "Gated and reported workloads").
var workloadNames = []string{timeparCluster.name, spaceparSheet.name, daemonOpenLoop.name}

// workloadWhy returns the one-line rationale of a workload.
func workloadWhy(name string) string {
	switch name {
	case timeparCluster.name:
		return timeparCluster.why
	case spaceparSheet.name:
		return spaceparSheet.why
	case daemonOpenLoop.name:
		return daemonOpenLoop.why
	}
	return ""
}

// runWorkload dispatches one run by workload name.
func runWorkload(name string, opt runOpts) (*outcome, error) {
	switch name {
	case timeparCluster.name:
		return runSolve(timeparCluster, opt)
	case spaceparSheet.name:
		return runSolve(spaceparSheet, opt)
	case daemonOpenLoop.name:
		return runDaemon(daemonOpenLoop, opt)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareMain(os.Args[2:], os.Stdout)
	case len(os.Args) > 1 && os.Args[1] == "summarize":
		err = summarizeMain(os.Args[2:], os.Stdout)
	default:
		err = runMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runMain runs one workload and prints its report, ending with the
// Result line. Nothing is printed to w unless the run succeeds.
func runMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 40, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	record := fs.String("record", "", "where to write the full JSON record (default .bench_build/results/)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("--seconds must be positive")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "work"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(build, "work"), *workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	env := captureEnv(root)

	opt := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, work: work}
	out, err := runWorkload(*workload, opt)
	if err != nil {
		return err
	}
	if out.procs > 0 {
		env.GOMAXPROCS = out.procs
	}
	list, extra := endToEnd, reported
	if opt.trace {
		list, extra = perLayer, nil
	}
	res, err := out.ms.result(list, out.attempted, out.failed, len(out.gates) == 0)
	if err != nil {
		return err
	}
	rec := Record{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: opt.trace,
		Env: env, Result: res, Summaries: out.ms.summaries(slices.Concat(list, extra)), Gates: out.gates,
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace)
	if opt.trace {
		rec.TraceFile = filepath.Join(build, "traces", tag+".json")
		if err := os.MkdirAll(filepath.Dir(rec.TraceFile), 0o755); err != nil {
			return err
		}
		if err := out.tr.write(rec.TraceFile); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	path := *record
	if path == "" {
		path = filepath.Join(build, "results", tag+".json")
	}
	if err := writeRecord(path, rec); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	report(w, rec, list, extra)
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// report prints the human-readable part of a run's output: the
// metrics of list, then those of extra the run measured, which are not
// gated.
func report(w io.Writer, rec Record, list, extra []metricDef) {
	e := rec.Env
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "  why: %s\n", workloadWhy(rec.Workload))
	fmt.Fprintf(w, "  host=%s cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s\n",
		e.Host, e.CPU, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.SourceDigest)
	fmt.Fprintf(w, "  %-28s %-6s %14s %14s %14s %5s\n", "metric", "unit", "median", "q1", "q3", "n")
	row := func(m metricDef, note string) {
		s := rec.Summaries[m.Name]
		fmt.Fprintf(w, "  %-28s %-6s %14.6g %14.6g %14.6g %5d%s\n", m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N, note)
	}
	for _, m := range list {
		row(m, "")
	}
	for _, m := range extra {
		if _, ok := rec.Summaries[m.Name]; ok {
			row(m, "  (not gated)")
		}
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
	for _, g := range rec.Gates {
		fmt.Fprintf(w, "  gate failed: %s\n", g)
	}
	if rec.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", rec.TraceFile)
	}
}

func writeRecord(path string, rec Record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readRecords loads every record file named, expanding directories to
// the *.json files in them.
func readRecords(paths []string) ([]Record, error) {
	var files []string
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			files = append(files, p)
			continue
		}
		m, err := filepath.Glob(filepath.Join(p, "*.json"))
		if err != nil {
			return nil, err
		}
		files = append(files, m...)
	}
	sort.Strings(files)
	var recs []Record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r Record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, errors.New("no records found")
	}
	return recs, nil
}
