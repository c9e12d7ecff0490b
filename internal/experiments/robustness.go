package experiments

import (
	"fmt"
	"io"

	"llm4em/internal/datasets"
	"llm4em/internal/llm"
	"llm4em/internal/resolve"
)

// This file is the dirty-data robustness harness: it sweeps
// corruption kind × level (internal/datasets.Corruptor) against the
// resolve cascade and reports, per cell, the quality and cost axes
// the clean benchmarks never stress — F1, decided-locally fraction,
// LLM pairs and estimated cents. Every cell is reproducible from the
// corruption seed: the corruptor keys all noise on it and the
// simulated models are deterministic.

// RobustDomain names one generator family and the dataset standing in
// for it.
type RobustDomain struct {
	// Name is the generator-family label used in reports.
	Name string
	// Key is the dataset key evaluated for the family.
	Key string
}

// RobustDomains returns the three generator families of
// internal/datasets with their representative benchmarks: products
// (productgen via WDC), software offers (softwaregen via
// Amazon-Google) and bibliographic records (bibgen via DBLP-Scholar).
func RobustDomains() []RobustDomain {
	return []RobustDomain{
		{Name: "product", Key: "wdc"},
		{Name: "software", Key: "ag"},
		{Name: "bibliographic", Key: "ds"},
	}
}

// RobustnessConfig scales a robustness sweep.
type RobustnessConfig struct {
	// Model is the LLM table name answering the uncertain band
	// (default GPT-mini, the study's cost-efficient model).
	Model string
	// Seed drives every corruption draw; same seed, same report.
	Seed string
	// Kinds are the corruption kinds to sweep (nil means all).
	Kinds []datasets.CorruptionKind
	// Levels are the corruption levels per kind (nil means 1..3).
	// Level 0 — the clean baseline — is always reported once per
	// domain, regardless of Levels.
	Levels []int
	// Domains are the generator families (nil means RobustDomains).
	Domains []RobustDomain
	// MaxPairs caps the evaluated test pairs per domain (0 = all),
	// sampling proportionally from matches and non-matches.
	MaxPairs int
	// Cascade tunes the cascade under test; the zero value is the
	// production default (0.9/0.15 thresholds, ideal weights).
	Cascade resolve.CascadeOptions
	// Workers sizes the engine worker pool and bounds the candidate
	// groups evaluated at once (0 = pipeline default).
	Workers int
}

func (c RobustnessConfig) withDefaults() RobustnessConfig {
	if c.Model == "" {
		c.Model = llm.GPTMini
	}
	if c.Seed == "" {
		c.Seed = "robustness"
	}
	if len(c.Kinds) == 0 {
		c.Kinds = datasets.CorruptionKinds()
	}
	if len(c.Levels) == 0 {
		c.Levels = []int{1, 2, 3}
	}
	if len(c.Domains) == 0 {
		c.Domains = RobustDomains()
	}
	return c
}

// RobustnessSmoke is the small seeded configuration CI runs and the
// golden report pins: every kind at one level, a capped pair count,
// the deterministic GPT-mini simulation.
func RobustnessSmoke() RobustnessConfig {
	return RobustnessConfig{Seed: "ci-smoke", Levels: []int{2}, MaxPairs: 60}
}

// RobustnessCell is one sweep cell: a domain under one corruption
// kind and level.
type RobustnessCell struct {
	// Domain is the generator-family label; Dataset the benchmark key.
	Domain  string
	Dataset string
	// Kind and Level identify the corruption; Corruptor is the
	// realized knob description ("embed-3", "clean").
	Kind  datasets.CorruptionKind
	Level int
	// Corruptor describes the active knobs.
	Corruptor string
	// Pairs is the number of evaluated labelled pairs.
	Pairs int
	// F1 is the matching quality in [0, 100].
	F1 float64
	// LocalPct is the percentage of pairs decided without an LLM call.
	LocalPct float64
	// LLMPairs counts escalated pairs; Cents estimates their cost.
	LLMPairs int
	Cents    float64
}

// Robustness sweeps corruption kind × level over every configured
// domain and returns the cells in deterministic order: domain, then
// the clean baseline, then kinds × levels.
func Robustness(cfg RobustnessConfig) ([]RobustnessCell, error) {
	c := cfg.withDefaults()
	client, err := llm.New(c.Model)
	if err != nil {
		return nil, fmt.Errorf("experiments: robustness: %w", err)
	}
	var cells []RobustnessCell
	for _, dom := range c.Domains {
		ds, err := datasets.Load(dom.Key)
		if err != nil {
			return nil, fmt.Errorf("experiments: robustness: %w", err)
		}
		pairs := Config{MaxTest: c.MaxPairs}.testPairs(ds)
		opts := resolve.EvalOptions{
			Cascade: c.Cascade,
			Domain:  ds.Schema.Domain,
			Workers: c.Workers,
		}
		evalCell := func(kind datasets.CorruptionKind, level int) (RobustnessCell, error) {
			cor := datasets.ForLevel(c.Seed, kind, level)
			res, err := resolve.Evaluate(client, opts, resolve.PerPair(cor.CorruptPairs(pairs)))
			if err != nil {
				return RobustnessCell{}, fmt.Errorf("experiments: robustness %s/%s level %d: %w",
					dom.Name, kind, level, err)
			}
			return RobustnessCell{
				Domain:    dom.Name,
				Dataset:   dom.Key,
				Kind:      kind,
				Level:     level,
				Corruptor: cor.String(),
				Pairs:     len(pairs),
				F1:        res.F1(),
				LocalPct:  100 * res.Report.LocalFraction(),
				LLMPairs:  res.Report.LLMPairs,
				Cents:     res.Report.Cents,
			}, nil
		}
		// Clean baseline once per domain, whatever Levels says.
		clean, err := evalCell(datasets.CorruptEmbed, 0)
		if err != nil {
			return nil, err
		}
		clean.Kind = "clean"
		cells = append(cells, clean)
		for _, kind := range c.Kinds {
			for _, level := range c.Levels {
				if level <= 0 {
					continue
				}
				cell, err := evalCell(kind, level)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// RobustnessTable renders sweep cells as a report table.
func RobustnessTable(cells []RobustnessCell) *Table {
	t := &Table{
		ID:    "R1",
		Title: "Cascade robustness under corruption (dirty-data workloads)",
		Columns: []string{"Domain", "Dataset", "Corruption", "Level", "Pairs",
			"F1", "Local %", "LLM pairs", "Cents"},
	}
	for _, c := range cells {
		t.AddRow(c.Domain, c.Dataset, c.Corruptor, fmt.Sprintf("%d", c.Level),
			fmt.Sprintf("%d", c.Pairs), f2(c.F1), f2(c.LocalPct),
			fmt.Sprintf("%d", c.LLMPairs), fmt.Sprintf("%.3f", c.Cents))
	}
	return t
}

// WriteRobustnessReport runs the sweep and the cross-domain transfer
// eval and renders both as one markdown document — the artifact the
// CI smoke job regenerates and the golden test pins.
func WriteRobustnessReport(w io.Writer, cfg RobustnessConfig) error {
	c := cfg.withDefaults()
	fmt.Fprintln(w, "# llm4em — dirty-data robustness report")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Seed `%s`, model %s, max pairs %d. Regenerated deterministically by\n",
		c.Seed, c.Model, c.MaxPairs)
	fmt.Fprintln(w, "`emexperiments -robustness`; corruption kinds follow the simulated-error")
	fmt.Fprintln(w, "methodology of the ermaster study (embed-k, misfield-k) plus null-out,")
	fmt.Fprintln(w, "typo/noise and schema-divergence knobs.")
	fmt.Fprintln(w)
	cells, err := Robustness(c)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, RobustnessTable(cells).Markdown())
	rows, err := CrossDomain(CrossDomainConfig{
		Model:          c.Model,
		MaxCalibration: c.MaxPairs,
		MaxTest:        c.MaxPairs,
		Workers:        c.Workers,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, CrossDomainTable(rows).Markdown())
	return nil
}
