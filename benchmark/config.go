package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Workload names, fixed by BENCHMARK.json.
const (
	wIngestVersioned = "ingest_versioned"
	wIngestUnique    = "ingest_unique"
	wReadZipf        = "read_zipf"
	wMixedReplicated = "mixed_replicated"
)

// sizes holds every op count of a run. They are frozen here, not
// flags, so both sides of a later comparison do the same work; -quick swaps in
// the tiny set the smoke tests use.
type sizes struct {
	// warmupOps is the inserts each connection sends during set-up, before
	// the measured phase.
	warmupOps int
	// preloadOps is read_zipf's corpus, inserted during set-up: more raw bytes
	// than the 32 MiB source cache holds, stored in several times the 2 MiB
	// block cache (README.md, "Workloads", gives the measured sizes).
	preloadOps int
	// warmReads is the reads each connection sends after read_zipf's preload
	// to fill the block cache.
	warmReads int
	// setupReps and preloadSetupReps are how many times set-up runs; setup_s
	// is their median.
	setupReps, preloadSetupReps int
	// ladderWarm and ladderOps size the traced ladder's replayed sample.
	ladderWarm, ladderOps int
	// traceSlice is how long tracing stays on, then off, during the traced
	// end-to-end pass.
	traceSliceMS int
}

var fullSizes = sizes{
	warmupOps:        500,
	preloadOps:       10240,
	warmReads:        1000,
	setupReps:        9,
	preloadSetupReps: 3,
	ladderWarm:       1000,
	ladderOps:        5000,
	traceSliceMS:     1000,
}

var quickSizes = sizes{
	warmupOps:        40,
	preloadOps:       600,
	warmReads:        50,
	setupReps:        2,
	preloadSetupReps: 2,
	ladderWarm:       100,
	ladderOps:        400,
	traceSliceMS:     100,
}

// numConns is the load-generating connection count: min(nproc, 4).
func numConns() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// refuseTuningEnv rejects a run whose environment would silently change the
// system under test (DBDEDUP_CHUNKER, DBDEDUP_INDEX_BUDGET, DBDEDUP_NO_MMAP…).
func refuseTuningEnv() error {
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "DBDEDUP_") {
			return fmt.Errorf("refusing to run with %s set: the benchmark's configuration is fixed", strings.SplitN(kv, "=", 2)[0])
		}
	}
	return nil
}

// hostFacts is the provenance block of a detailed report.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	SingleCore bool   `json:"single_core"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Conns      int    `json:"connections"`
}

func readHostFacts() hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SingleCore: runtime.NumCPU() == 1,
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		Conns:      numConns(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitCommit reads HEAD from the enclosing repository without running git (a
// driver checkout is not a repository; then the commit is "unknown").
func gitCommit() string {
	root := repoRoot()
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	sha, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

// repoRoot is the directory holding BENCHMARK.json: the working directory when
// run as the driver runs it, its parent when run from benchmark/.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

// benchSpec is the part of BENCHMARK.json the program itself reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchSpec() (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}
