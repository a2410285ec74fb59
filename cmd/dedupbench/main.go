// Command dedupbench regenerates the paper's tables and figures (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results).
//
//	dedupbench -experiment all
//	dedupbench -experiment fig10 -bytes 33554432
//	dedupbench -experiment fig14
//	dedupbench -experiment fig12 -dataset wikipedia
//
// Experiments: fig1, fig7, fig10, fig11, fig12, fig13a, fig13b, fig14,
// fig15, table2, governor, tieredidx, all.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dbdedup/internal/experiments"
	"dbdedup/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run")
		bytesN     = flag.Int64("bytes", int64(experiments.DefaultScale.InsertBytes), "ingest volume per dataset/configuration")
		seed       = flag.Int64("seed", experiments.DefaultScale.Seed, "trace seed")
		dataset    = flag.String("dataset", "", "restrict to one dataset: wikipedia | enron | stackexchange | messageboards")
		csvDir     = flag.String("csv", "", "also write the figure's plot data as CSV files into this directory")
	)
	flag.Parse()

	sc := experiments.Scale{InsertBytes: *bytesN, Seed: *seed}
	kinds := workload.Kinds
	if *dataset != "" {
		k, err := workload.ParseKind(*dataset)
		if err != nil {
			log.Fatal(err)
		}
		kinds = []workload.Kind{k}
	}

	run := func(name string) {
		switch name {
		case "fig1":
			// Fig. 1 is the Wikipedia panel of Fig. 10.
			res, err := experiments.RunFig10(sc, workload.Wikipedia)
			check(err)
			fmt.Println(res)
		case "fig7":
			res, err := experiments.RunFig7(sc, kinds...)
			check(err)
			fmt.Println(res)
			writeCSV(*csvDir, res)
		case "fig10":
			res, err := experiments.RunFig10(sc, kinds...)
			check(err)
			fmt.Println(res)
			writeCSV(*csvDir, res)
		case "fig11":
			res, err := experiments.RunFig11(sc, kinds...)
			check(err)
			fmt.Println(res)
		case "fig12":
			res, err := experiments.RunFig12(sc, kinds...)
			check(err)
			fmt.Println(res)
			writeCSV(*csvDir, res)
		case "fig13a":
			res, err := experiments.RunFig13a(sc)
			check(err)
			fmt.Println(res)
		case "fig13b":
			res, err := experiments.RunFig13b(sc)
			check(err)
			fmt.Println(res)
			writeCSV(*csvDir, res)
		case "fig14":
			res, err := experiments.RunFig14(sc)
			check(err)
			fmt.Println(res)
			writeCSV(*csvDir, res)
		case "fig15":
			res, err := experiments.RunFig15(sc)
			check(err)
			fmt.Println(res)
			writeCSV(*csvDir, res)
		case "governor":
			res, err := experiments.RunGovernor(sc)
			check(err)
			fmt.Println(res)
		case "table2":
			fmt.Println(experiments.RunTable2(200, 16))
		case "tieredidx":
			res, err := experiments.RunTieredIdx(sc)
			check(err)
			fmt.Println(res)
			writeCSV(*csvDir, res)
		default:
			log.Fatalf("unknown experiment %q", name)
		}
	}

	if *experiment == "all" {
		for _, name := range []string{"table2", "fig10", "fig7", "fig11", "fig13a", "fig14", "fig15", "governor", "fig13b", "fig12", "tieredidx"} {
			fmt.Printf("==== %s ====\n\n", name)
			run(name)
			fmt.Println()
		}
		return
	}
	run(*experiment)
}

// csvWriter is implemented by results that can export their plot data.
type csvWriter interface{ WriteCSV(dir string) error }

func writeCSV(dir string, res csvWriter) {
	if dir == "" {
		return
	}
	if err := res.WriteCSV(dir); err != nil {
		fmt.Fprintln(os.Stderr, "writing CSV:", err)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
