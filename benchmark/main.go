// Command benchmark is the repository's benchmark: four workloads through the
// real apiserver → encoder pool → engine → docstore → oplog → replica path,
// ten end-to-end metrics, and a traced outside-in ladder that attributes a
// synchronous insert's time to layers. README.md in this directory explains
// every metric and workload; BENCHMARK.json at the repository root lists them
// with their regression bounds.
//
// The driver runs one workload per process:
//
//	bash benchmark/run.sh --workload ingest_versioned --seed 1 --seconds 10 --trace 0
//
// and reads the JSON object on the last line of standard output. Without
// --workload the program runs every workload, untraced then traced, each in a
// child process of its own so that heap state and VmHWM do not leak between
// them, and writes one report:
//
//	bash benchmark/run.sh -seed 1 -out baseline.json
//
// -compare a.json b.json checks two such reports against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	quick     bool
	out       string
	reps      int
	compare   bool
	verifyAll bool
	detail    string
	spans     string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's result line (empty: run all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measured phase (0: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1: traced run, report the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.quick, "quick", false, "tiny op counts (smoke tests)")
	flag.StringVar(&o.out, "out", "", "all-workloads mode: write the report here (spans go to <out>.<workload>.spans.jsonl)")
	flag.IntVar(&o.reps, "reps", 1, "all-workloads mode: untraced runs per workload, each with the next seed")
	flag.BoolVar(&o.compare, "compare", false, "compare two reports: -compare a.json b.json")
	flag.BoolVar(&o.verifyAll, "verify-all", false, "also scrub every stored record with node.VerifyAll (slow)")
	flag.StringVar(&o.detail, "detail", "", "one-workload mode: also write the detailed report here")
	flag.StringVar(&o.spans, "spans", "", "one-workload traced mode: dump spans here as JSON lines")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		return compareReports(flag.Arg(0), flag.Arg(1))
	}
	if err := refuseTuningEnv(); err != nil {
		return err
	}
	spec, err := loadBenchSpec()
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.workload == "" {
		return runAll(spec, o)
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == o.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	cfg := runCfg{workload: o.workload, seed: o.seed, seconds: o.seconds, trace: o.trace, sz: fullSizes,
		root: dataRoot(), verifyAll: o.verifyAll, spansPath: o.spans}
	if o.quick {
		cfg.sz = quickSizes
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	if err := checkNames(spec, o.trace, rep.Result.Metrics); err != nil {
		return err
	}
	if o.trace {
		printCostTable(os.Stderr, rep.CostTable)
	}
	for _, note := range rep.Notes {
		fmt.Fprintln(os.Stderr, "benchmark:", note)
	}
	if o.detail != "" {
		if err := writeJSON(o.detail, rep); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		return fmt.Errorf("%s: %d of %d ops failed, %d lost and %d corrupt on verification", o.workload,
			rep.Result.Failed, rep.Result.Attempted, rep.Lost, rep.Corrupt)
	}
	return nil
}

// dataRoot is where runs create their data directories.
func dataRoot() string { return filepath.Join(repoRoot(), ".bench_build", "data") }

// checkNames makes sure a run reports exactly the metrics BENCHMARK.json
// lists for its mode.
func checkNames(spec benchSpec, trace bool, got map[string]metric) error {
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	var missing, extra []string
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		if g, ok := got[m.Name]; !ok {
			missing = append(missing, m.Name)
		} else if g.Unit != m.Unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return fmt.Errorf("metrics differ from BENCHMARK.json: missing %v, unlisted %v", missing, extra)
	}
	return nil
}

// fullReport is what all-workloads mode writes: every child's detailed
// report, untraced runs first.
type fullReport struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Host    hostFacts `json:"host"`
	Runs    []*report `json:"runs"`
}

// runAll runs every workload in a child process of its own: o.reps untraced
// runs (seed, seed+1, …) and one traced run.
func runAll(spec benchSpec, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := workDir(dataRoot(), "report")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	full := fullReport{Seed: o.seed, Seconds: o.seconds, Host: readHostFacts()}
	failed := false
	for _, w := range spec.Workloads {
		for i := 0; i <= o.reps; i++ {
			detail := filepath.Join(tmp, "detail.json")
			args := []string{"-workload", w.Name, "-seconds", fmt.Sprint(o.seconds), "-detail", detail}
			if traced := i == o.reps; traced {
				args = append(args, "-seed", fmt.Sprint(o.seed), "-trace", "1")
				if o.out != "" {
					args = append(args, "-spans", fmt.Sprintf("%s.%s.spans.jsonl", o.out, w.Name))
				}
			} else {
				args = append(args, "-seed", fmt.Sprint(o.seed+int64(i)))
			}
			if o.quick {
				args = append(args, "-quick")
			}
			if o.verifyAll {
				args = append(args, "-verify-all")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			fmt.Fprintf(os.Stderr, "== %s\n", strings.Join(args, " "))
			if err := cmd.Run(); err != nil {
				failed = true
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			}
			var rep report
			raw, err := os.ReadFile(detail)
			if err != nil {
				continue // the child failed before it had a report
			}
			os.Remove(detail)
			if err := json.Unmarshal(raw, &rep); err != nil {
				return err
			}
			full.Runs = append(full.Runs, &rep)
		}
	}
	printSummary(os.Stdout, &full)
	if o.out != "" {
		if err := writeJSON(o.out, &full); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
