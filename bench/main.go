// Command bench measures emserve from the outside: it builds
// cmd/emserve, starts it on a fresh -persist directory with default
// flags, drives it over loopback HTTP with generated requests, kills
// it, reopens it and checks that every acknowledged answer survived.
//
//	bash bench/run.sh                                   # all four workloads
//	bash bench/run.sh --trace 1                         # and a traced rerun of each
//	bash bench/run.sh --workload repeat --seed 7        # one workload, contract output
//	bash bench/run.sh --runs 5 --out a.json             # five seeds per workload
//	bash bench/run.sh --compare a.json b.json           # apply the bounds
//
// BENCHMARK.json at the repository root names every metric, its unit,
// direction and regression bound; README.md in this directory explains
// the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and bounds are written down.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// findRoot locates the repository checkout: the directory that holds
// cmd/emserve, which is the working directory or its parent.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "emserve", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cmd/emserve not found here or one level up: run from the repository root or from bench/")
}

// envInfo records where and how a document was measured.
type envInfo struct {
	NProc        int      `json:"nproc"`
	Go           string   `json:"go"`
	CPU          string   `json:"cpu"`
	EmserveFlags []string `json:"emserve_flags"`
	FlushPolicy  string   `json:"flush_policy"`
	Seconds      float64  `json:"seconds"`
	Conns        int      `json:"conns"`
	Sizes        sizes    `json:"sizes"`
}

// document is what a full run prints and what -compare reads.
type document struct {
	Env  envInfo      `json:"env"`
	Runs []*runResult `json:"runs"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func main() {
	os.Exit(realMain())
}

// These are fixed: two sender goroutines on two keep-alive connections,
// the nproc of the box the benchmark was sized on; three kill-and-reopen
// cycles at the end of a run; two timed reopens of each spare set-up.
const (
	conns        = 2
	crashes      = 3
	spareReopens = 2
)

func realMain() int {
	workload := flag.String("workload", "all", "workload to run: fresh, repeat, steady, ingest or all")
	seed := flag.Int64("seed", 1, "seed of the generated corpus and request stream")
	seconds := flag.Float64("seconds", 0, "length of the timed phase (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics; with -workload all, both runs are made")
	runs := flag.Int("runs", 1, "with -workload all: runs per workload, on seeds seed, seed+1, ...")
	out := flag.String("out", "", "also write the full JSON document to this file")
	compare := flag.Bool("compare", false, "compare two documents given as arguments: apply each metric's bound per workload")
	scratch := flag.String("scratch", "", "directory for persist dirs, logs and span files (default <root>/.bench_build/tmp)")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fatal(errors.New("-compare takes two documents: a.json b.json"))
		}
		regressed, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fatal(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}

	// Every exit path below runs the deferred clean-up: Ctrl-C cancels
	// the context, the run returns, and its server and directories go.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	build := filepath.Join(root, ".bench_build")
	if *scratch == "" {
		*scratch = filepath.Join(build, "tmp")
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return fatal(err)
	}
	bin, err := buildEmserve(ctx, root, filepath.Join(build, "bin"))
	if err != nil {
		return fatal(err)
	}
	r := &runner{bin: bin, scratch: *scratch, sizes: fullSizes, seconds: *seconds,
		conns: conns, crashes: crashes, spareReopens: spareReopens, perLayer: spec.PerLayer}
	doc := document{Env: envInfo{NProc: runtime.NumCPU(), Go: runtime.Version(), CPU: cpuModel(),
		EmserveFlags: emserveFlags("127.0.0.1:<port from the OS>", "<tmpdir>"),
		FlushPolicy:  "-sync-every 0, -snapshot-every 4096: the WAL is written per append and fsynced only at a checkpoint",
		Seconds:      *seconds, Conns: conns, Sizes: fullSizes}}

	fmt.Fprintf(os.Stderr, "bench: nproc %d, %s, %s, emserve %v\n", doc.Env.NProc, doc.Env.Go, doc.Env.CPU, doc.Env.EmserveFlags)

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	// End-to-end metrics always come from an untraced run; -trace 1
	// adds the traced run beside it, or replaces it for one workload.
	modes := []bool{*trace == 1}
	if *workload == "all" && *trace == 1 {
		modes = []bool{false, true}
	}
	ok := true
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			for _, traced := range modes {
				t0 := time.Now()
				res, err := r.run(ctx, name, *seed+int64(i), traced)
				if err != nil {
					return fatal(err)
				}
				fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %v took %.1fs\n", name, *seed+int64(i), traced, time.Since(t0).Seconds())
				for _, f := range res.Failures {
					fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
				}
				ok = ok && res.Correct
				doc.Runs = append(doc.Runs, res)
			}
		}
	}
	if *out != "" {
		b, _ := json.MarshalIndent(doc, "", "  ") // plain structs: cannot fail
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return fatal(err)
		}
	}
	if *workload == "all" {
		b, _ := json.MarshalIndent(doc, "", "  ")
		fmt.Println(string(b))
	} else {
		// The contract line: the last line of standard output, with the
		// metrics BENCHMARK.json names and no other. The document of
		// -workload all keeps what a run measures beside them.
		res := doc.Runs[len(doc.Runs)-1]
		named := spec.EndToEnd
		if res.Trace {
			named = spec.PerLayer
		}
		metrics := make(map[string]metricValue, len(named))
		for _, def := range named {
			metrics[def.Name] = res.Metrics[def.Name]
		}
		line, _ := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, metrics})
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}
