// Command experiments regenerates the tables and figures of the
// paper's evaluation section (see DESIGN.md for the experiment index
// and EXPERIMENTS.md for the paper-vs-measured record).
//
// Usage:
//
//	experiments                 # run everything (scaled defaults)
//	experiments -fig 7a         # a single figure: 1, 5, 7a, 7b, 8
//	experiments -exp theta-ratio|residuals|speedup-model|phases
//	experiments -exp chaos      # fault-injection matrix (writes BENCH_PR3.json; not part of "all")
//	experiments -exp chaos -faultseed 7 -faultplan "drop=0.1,crash=2@iter:1"  # custom crash plan
//	experiments -exp sdcguard   # bit-flip guard matrix (writes BENCH_PR4.json; not part of "all")
//	experiments -exp sdcguard -flipseed 7 -fliprate 1e-3  # custom sweep seed and per-word rate
//	experiments -exp gridfault  # PS×PT grid fault tolerance (writes BENCH_PR8.json; not part of "all")
//	experiments -exp serverchaos  # job-daemon chaos benchmark (writes BENCH_PR9.json; not part of "all")
//	experiments -exp fig5-xt    # joint space-time scaling study (writes BENCH_PR7.json; not part of "all")
//	experiments -branch batched -exp phases       # batched branch exchange (prefetch visible)
//	experiments -balance -exp phases              # work-weighted domain decomposition
//	experiments -list           # validate -fig/-exp and list the known names, run nothing
//	experiments -stealgrain 4 -exp phases         # work-stealing chunk size (leaf groups)
//	experiments -threads 4 -exp phases            # hybrid per-rank worker pool (steals visible)
//	experiments -csv out/       # additionally write CSV files
//	experiments -json out/      # write telemetry snapshots as JSON
//	experiments -pproflabels -cpuprofile cpu.out  # label profile samples by phase
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/hot"
	"repro/internal/serverbench"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		fig        = flag.String("fig", "", "figure to regenerate: 1, 5, 7a, 7b, 8 (empty = all)")
		exp        = flag.String("exp", "", "extra experiment: theta-ratio, residuals, speedup-model, ablations, phases, chaos, sdcguard, gridfault, fig5-xt, serverchaos")
		faultSeed  = flag.Int64("faultseed", 42, "fault-plan seed of the chaos experiment")
		faultPlan  = flag.String("faultplan", "", "override the chaos experiment's crash plan (fault.Parse spec)")
		chaosOut   = flag.String("chaosout", "BENCH_PR3.json", "output path of the chaos record")
		flipSeed   = flag.Int64("flipseed", 42, "base flip seed of the sdcguard experiment")
		flipRate   = flag.Float64("fliprate", 2e-4, "per-word flip rate of the sdcguard sweep plan")
		guardOut   = flag.String("guardout", "BENCH_PR4.json", "output path of the sdcguard record")
		gridOut    = flag.String("gridout", "BENCH_PR8.json", "output path of the gridfault record")
		serverOut  = flag.String("server-out", "BENCH_PR9.json", "output path of the serverchaos record")
		stealGrain = flag.Int("stealgrain", 0, "work-stealing chunk size in leaf groups (0 = automatic)")
		threads    = flag.Int("threads", 0, "traversal worker goroutines per rank (>1 = hybrid scheduler; phases experiment)")
		branch     = flag.String("branch", "", `branch exchange mode: "ring" (default) or "batched" (phases experiment)`)
		balance    = flag.Bool("balance", false, "work-weighted domain decomposition (phases experiment)")
		list       = flag.Bool("list", false, "validate -fig/-exp, list the known names, and exit without running")
		xtOut      = flag.String("xt-out", "BENCH_PR7.json", "output path of the fig5-xt record")
		csvDir     = flag.String("csv", "", "directory for CSV output")
		jsonDir    = flag.String("json", "", "directory for telemetry snapshot JSON output")
		paper      = flag.Bool("paper", false, "use the paper's exact sizes where implemented (very slow)")
		labels     = flag.Bool("pproflabels", false, "label profile samples with telemetry phase names")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	)
	flag.Parse()

	brm, err := hot.ParseBranchMode(*branch)
	if err != nil {
		log.Fatal(err)
	}

	// Known names: every -fig/-exp value must be one of these. Unknown
	// names are configuration errors, not silent no-ops; -list performs
	// only this validation (the CI docs gate appends it to every command
	// quoted in SCALING.md to keep the handbook honest).
	figs := []string{"1", "5", "7a", "7b", "8"}
	exps := []string{"theta-ratio", "residuals", "speedup-model", "ablations",
		"phases", "chaos", "sdcguard", "gridfault", "fig5-xt",
		"serverchaos"}
	known := func(name string, set []string) bool {
		for _, s := range set {
			if strings.EqualFold(name, s) {
				return true
			}
		}
		return false
	}
	if *fig != "" && !known(*fig, figs) {
		log.Fatalf("unknown -fig %q (known: %s)", *fig, strings.Join(figs, ", "))
	}
	if *exp != "" && !known(*exp, exps) {
		log.Fatalf("unknown -exp %q (known: %s)", *exp, strings.Join(exps, ", "))
	}
	if *list {
		fmt.Printf("figures: %s\n", strings.Join(figs, ", "))
		fmt.Printf("experiments: %s\n", strings.Join(exps, ", "))
		return
	}

	telemetry.SetPprofLabels(*labels)
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	emitJSON := func(name string, s telemetry.Snapshot) {
		if *jsonDir == "" {
			return
		}
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			log.Fatal(err)
		}
		fpath := filepath.Join(*jsonDir, name+".json")
		jf, err := os.Create(fpath)
		if err != nil {
			log.Fatal(err)
		}
		if err := s.WriteJSON(jf); err != nil {
			log.Fatal(err)
		}
		if err := jf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n\n", fpath)
	}

	emit := func(name string, tb *experiments.Table) {
		tb.Fprint(os.Stdout)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				log.Fatal(err)
			}
			fpath := filepath.Join(*csvDir, name+".csv")
			f, err := os.Create(fpath)
			if err != nil {
				log.Fatal(err)
			}
			tb.CSV(f)
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n\n", fpath)
		}
	}

	all := *fig == "" && *exp == ""
	want := func(name string) bool {
		return all || strings.EqualFold(*fig, name) || strings.EqualFold(*exp, name)
	}

	if want("1") {
		_, tb := experiments.Fig1VortexSheet(experiments.DefaultFig1())
		emit("fig1", tb)
	}
	if want("5") {
		cfg := experiments.DefaultFig5()
		points, tb, ptb := experiments.Fig5Executed(cfg)
		emit("fig5_executed", tb)
		emit("fig5_phases", ptb)
		if len(points) > 0 {
			emitJSON("fig5_telemetry", points[len(points)-1].Telemetry)
		}
		fit := experiments.FitBranches(points)
		_, tbm := experiments.Fig5Model(cfg, fit)
		emit("fig5_model", tbm)
	}
	if want("phases") || all {
		pcfg := experiments.DefaultPhases()
		pcfg.StealGrain = *stealGrain
		pcfg.Threads = *threads
		pcfg.Branch = brm
		pcfg.Balance = *balance
		snap, tb := experiments.SpaceTimePhases(pcfg)
		emit("spacetime_phases", tb)
		emitJSON("spacetime_phases", snap)
	}
	// fig5-xt is opt-in only (minutes of wall time): the joint space-time
	// scaling study — executed branch-exchange before/after, the executed
	// PS×PT grid, and the modeled extrapolation to 262,144 cores — and
	// records BENCH_PR7.json (see SCALING.md).
	if strings.EqualFold(*exp, "fig5-xt") {
		res, tbs := experiments.BenchPR7(experiments.DefaultFig5XT())
		names := []string{"fig5xt_branch", "fig5xt_grid", "fig5xt_model", "fig5xt_crossover"}
		for i, tb := range tbs {
			emit(names[i], tb)
		}
		if err := res.WriteJSON(*xtOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n\n", *xtOut)
	}
	// chaos is opt-in only: it runs the space-time solver through a
	// seeded fault matrix (clean, transient chaos, rank crash) on the
	// resilient PFASST loop and records BENCH_PR3.json.
	if strings.EqualFold(*exp, "chaos") {
		ccfg := experiments.DefaultBenchPR3()
		ccfg.Seed = *faultSeed
		if *faultPlan != "" {
			ccfg.CrashPlan = *faultPlan
		}
		res, tb, err := experiments.BenchPR3(ccfg)
		if err != nil {
			log.Fatal(err)
		}
		emit("bench_pr3", tb)
		if err := res.WriteJSON(*chaosOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n\n", *chaosOut)
	}
	// sdcguard is opt-in only: it measures the numerical guardrails —
	// clean-run overhead, seeded bit-flip detection/recovery, sticky
	// abort, block-domain monitors — and records BENCH_PR4.json.
	if strings.EqualFold(*exp, "sdcguard") {
		gcfg := experiments.DefaultBenchPR4()
		gcfg.Seed = *flipSeed
		gcfg.Rate = *flipRate
		res, tb, err := experiments.BenchPR4(gcfg)
		if err != nil {
			log.Fatal(err)
		}
		emit("bench_pr4", tb)
		if err := res.WriteJSON(*guardOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n\n", *guardOut)
	}
	// gridfault is opt-in only: it drives full PT×PS grids through the
	// grid-resilient loop — clean overhead, transient chaos, rank-crash
	// recovery with per-phase costs — and records BENCH_PR8.json.
	if strings.EqualFold(*exp, "gridfault") {
		res, tbs, err := experiments.BenchPR8(experiments.DefaultBenchPR8())
		if err != nil {
			log.Fatal(err)
		}
		for i, tb := range tbs {
			emit(fmt.Sprintf("bench_pr8_grid%d", i), tb)
		}
		if err := res.WriteJSON(*gridOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n\n", *gridOut)
	}
	// serverchaos is opt-in only: it drives a job-daemon fleet clean,
	// under the server chaos plan, and through a drain+restart cycle,
	// and records BENCH_PR9.json (jobs/sec, p50/p99 latency, bitwise
	// agreement after crash retries and resume).
	if strings.EqualFold(*exp, "serverchaos") {
		res, tb, err := serverbench.BenchPR9(serverbench.DefaultBenchPR9())
		if err != nil {
			log.Fatal(err)
		}
		emit("bench_pr9", tb)
		if err := res.WriteJSON(*serverOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n\n", *serverOut)
	}
	fig7cfg := experiments.DefaultFig7()
	if *paper {
		fig7cfg = experiments.PaperFig7()
	}
	if want("7a") {
		_, tb := experiments.Fig7aSDCConvergence(fig7cfg)
		emit("fig7a", tb)
	}
	if want("7b") {
		_, _, tb := experiments.Fig7bPFASSTConvergence(fig7cfg)
		emit("fig7b", tb)
	}
	if want("theta-ratio") || all {
		_, tb := experiments.ThetaCoarseningRatio(20000, 0.3, 0.6)
		emit("theta_ratio", tb)
	}
	if want("residuals") || all {
		_, tb := experiments.PFASSTResiduals(experiments.DefaultResiduals())
		emit("residuals", tb)
	}
	if want("8") {
		fig8 := []experiments.Fig8Config{
			experiments.DefaultFig8Small(), experiments.DefaultFig8Large(),
		}
		if *paper {
			fig8 = []experiments.Fig8Config{experiments.PaperFig8Small()}
		}
		for _, cfg := range fig8 {
			_, tb := experiments.Fig8Speedup(cfg)
			emit("fig8_"+cfg.Name, tb)
		}
	}
	if want("ablations") || all {
		emit("ablation_dipole", experiments.AblationDipole(1000, 0.6))
		emit("ablation_stretching", experiments.AblationStretching(500, 3))
		emit("ablation_parareal", experiments.AblationPararealVsPFASST(128, 4))
		emit("ablation_farfield", experiments.AblationFarFieldRefresh(1000, []int{1, 2, 4, 8}))
		emit("ablation_leafcap", experiments.AblationLeafCap(2000, []int{1, 4, 8, 16, 32}))
	}
	if want("speedup-model") || all {
		alphaS, _ := experiments.MeasureAlpha(4000, 0.3, 0.6)
		// β ≈ 2 covers Algorithm 1's per-iteration re-evaluations
		// (NUMERICS.md §6), matching the Fig. 8 theory curves.
		tb := experiments.SpeedupModelTable(4, 2, 2, []float64{alphaS, 2.0 / (3.23 * 3)}, 2.0,
			[]int{1, 2, 4, 8, 16, 32, 64})
		emit("speedup_model", tb)
	}
}
