package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// printCostTable prints the per-insert cost table of a traced run: time,
// payload bytes and allocations per call for every rung, and each rung's self
// time per insert.
func printCostTable(w io.Writer, rows []costRow) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "rung\tparent\tcalls\tns/call\tns/insert\tself ns/insert\tB/call\tallocs/call\talloc B/call\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.1f\t%.0f\t\n", r.Rung, r.Parent, r.Calls,
			r.NsPerCall, r.NsPerInsert, r.SelfNs, r.BytesPerCall, r.AllocsPerCall, r.AllocBPerCall)
	}
	tw.Flush()
}

// printSummary prints every metric of every run by name with its unit.
func printSummary(w io.Writer, full *fullReport) {
	for _, rep := range full.Runs {
		mode := "end to end"
		if rep.Trace {
			mode = "per layer"
		}
		fmt.Fprintf(w, "%s seed %d (%s): correct=%v attempted=%d failed=%d\n", rep.Workload, rep.Seed, mode,
			rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed)
		names := make([]string, 0, len(rep.Result.Metrics))
		for name := range rep.Result.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := rep.Result.Metrics[name]
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them, which is what the driver
// uses for a metric's spread.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

func loadFull(path string) (*fullReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var full fullReport
	if err := json.Unmarshal(raw, &full); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &full, nil
}

// values collects one end-to-end metric of one workload over a report's
// untraced runs.
func (f *fullReport) values(workload, name string) []float64 {
	var v []float64
	for _, rep := range f.Runs {
		if rep.Workload == workload && !rep.Trace {
			if m, ok := rep.Result.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// compareReports prints, for every (workload, end-to-end metric) pair, both
// medians, how much worse the second is, and the bound. A pair whose
// run-to-run spread in the first report exceeds the bound is unresolved: the
// data cannot tell a regression from noise. Any pair worse than its bound
// makes the comparison fail.
func compareReports(pathA, pathB string) error {
	spec, err := loadBenchSpec()
	if err != nil {
		return err
	}
	a, err := loadFull(pathA)
	if err != nil {
		return err
	}
	b, err := loadFull(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian a\tmedian b\tworse by\tspread a\tbound\tverdict\t")
	bad := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t%.3f\tmissing\t\n", w.Name, m.Name, m.Bound)
				bad++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			spread, spreadText := 0.0, "n/a"
			if len(va) >= 2 {
				q1, q3 := quartiles(va)
				spread = ratio(q3-q1, ma)
				spreadText = fmt.Sprintf("%.4f", spread)
			}
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "OUT OF BOUND"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.4f\t%s\t%.3f\t%s\t\n", w.Name, m.Name, ma, mb, worse, spreadText, m.Bound, verdict)
		}
	}
	tw.Flush()
	if bad > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are out of bound or missing", bad)
	}
	return nil
}
