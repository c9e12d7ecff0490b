// Command emexperiments regenerates the tables and figures of the
// paper's evaluation section.
//
// Usage:
//
//	emexperiments -table 3            # print one table
//	emexperiments -table all          # print every table (1-13)
//	emexperiments -figure 4           # print one figure
//	emexperiments -maxtest 200        # scale down the test splits
//	emexperiments -robustness         # dirty-data corruption sweep
//	emexperiments -crossdomain        # leave-one-dataset-out transfer
//	emexperiments -strategies         # prompt-strategy × band-width ablation
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"llm4em/internal/datasets"
	"llm4em/internal/experiments"
	"llm4em/internal/llm"
)

var renderMarkdown bool

func main() {
	table := flag.String("table", "", "table number 1-13, or 'all'")
	figure := flag.Int("figure", 0, "figure number 1-6")
	ablations := flag.Bool("ablations", false, "run the ablation studies")
	pr := flag.Bool("pr", false, "print zero-shot precision/recall instead of F1 tables")
	futurework := flag.Bool("futurework", false, "run the Section 7.2 future-work error-profile comparison")
	maxTest := flag.Int("maxtest", 0, "cap test pairs per dataset (0 = full)")
	epochs := flag.Int("epochs", 10, "fine-tuning epochs")
	workers := flag.Int("workers", 0, "pairs in flight per pairwise evaluation, candidate groups in flight for -robustness/-crossdomain/-strategies (0 = pipeline default); batched-prompt rows submit all pairs at once")
	format := flag.String("format", "text", "output format: text or md")
	report := flag.String("report", "", "write the complete markdown report to this file")
	diagnostics := flag.Bool("diagnostics", false, "print the benchmark difficulty diagnostics")
	robustness := flag.Bool("robustness", false, "run the dirty-data corruption sweep")
	crossdomain := flag.Bool("crossdomain", false, "run the leave-one-dataset-out threshold transfer eval")
	seed := flag.String("seed", "", "sweep seed for -robustness/-strategies (defaults per harness)")
	kinds := flag.String("kinds", "", "comma-separated corruption kinds for -robustness (default all)")
	levels := flag.String("levels", "", "comma-separated corruption levels for -robustness (default 1,2,3)")
	model := flag.String("model", llm.GPTMini, "model answering the uncertain band for -robustness/-crossdomain")
	robustOut := flag.String("robust-out", "", "write the full robustness markdown report to this file")
	strategies := flag.Bool("strategies", false, "run the prompt-strategy × band-width ablation")
	strategiesOut := flag.String("strategies-out", "", "write the full strategy ablation markdown report to this file")
	flag.Parse()

	if *table == "" && *figure == 0 && !*ablations && !*pr && !*futurework && *report == "" &&
		!*diagnostics && !*robustness && !*crossdomain && *robustOut == "" &&
		!*strategies && *strategiesOut == "" {
		flag.Usage()
		os.Exit(2)
	}

	renderMarkdown = *format == "md"
	cfg := experiments.Default()
	cfg.MaxTest = *maxTest
	cfg.FTEpochs = *epochs
	cfg.Workers = *workers
	s := experiments.NewSession(cfg)

	if *strategies || *strategiesOut != "" {
		scfg := experiments.StrategiesConfig{
			Model:   *model,
			Seed:    *seed,
			Workers: *workers,
		}
		if *strategiesOut != "" {
			f, err := os.Create(*strategiesOut)
			fail(err)
			fail(experiments.WriteStrategiesReport(f, scfg))
			fail(f.Close())
			fmt.Println("wrote", *strategiesOut)
			return
		}
		cells, err := experiments.Strategies(scfg)
		fail(err)
		renderOne(experiments.StrategiesTable(cells))
		return
	}

	if *robustness || *crossdomain || *robustOut != "" {
		rcfg := experiments.RobustnessConfig{
			Model:    *model,
			Seed:     *seed,
			MaxPairs: *maxTest,
			Workers:  *workers,
		}
		fail(parseKinds(*kinds, &rcfg))
		fail(parseLevels(*levels, &rcfg))
		if *robustOut != "" {
			f, err := os.Create(*robustOut)
			fail(err)
			fail(experiments.WriteRobustnessReport(f, rcfg))
			fail(f.Close())
			fmt.Println("wrote", *robustOut)
			return
		}
		if *robustness {
			cells, err := experiments.Robustness(rcfg)
			fail(err)
			renderOne(experiments.RobustnessTable(cells))
		}
		if *crossdomain {
			rows, err := experiments.CrossDomain(experiments.CrossDomainConfig{
				Model:          *model,
				MaxCalibration: *maxTest,
				MaxTest:        *maxTest,
				Workers:        *workers,
			})
			fail(err)
			renderOne(experiments.CrossDomainTable(rows))
		}
		return
	}

	if *diagnostics {
		t := experiments.DatasetDiagnostics(cfg)
		if renderMarkdown {
			fmt.Println(t.Markdown())
		} else {
			t.Fprint(os.Stdout)
		}
		return
	}

	if *report != "" {
		f, err := os.Create(*report)
		fail(err)
		fail(experiments.WriteReport(f, s))
		fail(f.Close())
		fmt.Println("wrote", *report)
		return
	}

	name := *table
	switch {
	case *futurework:
		name = "futurework"
	case *pr:
		ts, err := experiments.PrecisionRecall(s)
		fail(err)
		for _, t := range ts {
			renderOne(t)
		}
		return
	case *ablations:
		name = "ablations"
	case *figure != 0:
		out, err := experiments.Figure(s, *figure)
		fail(err)
		fmt.Println(out)
		return
	}
	printed := false
	for _, sec := range experiments.Sections() {
		// "all" selects the numbered sections, the paper's Tables 1–13.
		_, notNumbered := strconv.Atoi(sec.Name)
		if sec.Name == name || name == "all" && notNumbered == nil {
			ts, err := sec.Run(s)
			fail(err)
			for _, t := range ts {
				renderOne(t)
			}
			printed = true
		}
	}
	if !printed {
		fail(fmt.Errorf("unknown table %s (tables 1-13 exist)", name))
	}
}

// renderOne prints a table in the selected format.
func renderOne(t *experiments.Table) {
	if renderMarkdown {
		fmt.Println(t.Markdown())
		return
	}
	t.Fprint(os.Stdout)
	fmt.Println()
}

// parseKinds fills the corruption kinds of a robustness config from a
// comma-separated flag value.
func parseKinds(list string, cfg *experiments.RobustnessConfig) error {
	if list == "" {
		return nil
	}
	for _, part := range strings.Split(list, ",") {
		kind, err := datasets.ParseCorruptionKind(part)
		if err != nil {
			return err
		}
		cfg.Kinds = append(cfg.Kinds, kind)
	}
	return nil
}

// parseLevels fills the corruption levels of a robustness config from
// a comma-separated flag value.
func parseLevels(list string, cfg *experiments.RobustnessConfig) error {
	if list == "" {
		return nil
	}
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return fmt.Errorf("bad corruption level %q", part)
		}
		cfg.Levels = append(cfg.Levels, n)
	}
	return nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "emexperiments:", err)
		os.Exit(1)
	}
}
