package experiments

import (
	"fmt"
	"io"

	"llm4em/internal/datasets"
	"llm4em/internal/llm"
	"llm4em/internal/prompt"
	"llm4em/internal/resolve"
)

// This file is the prompt-strategy ablation harness: it sweeps the
// uncertain-band strategy (pairwise match, grouped compare, grouped
// select, match plus the reason tier) against the width of the
// uncertain band on grouped-candidate fixtures
// (datasets.GroupedPairs) and reports, per cell, quality and the cost
// axis the strategies exist to move — fresh LLM calls per escalated
// query. Every cell is reproducible from the seed: fixtures and the
// simulated models are deterministic.

// StrategyBand names one uncertain-band width for the sweep.
type StrategyBand struct {
	// Name labels the band in reports.
	Name string
	// AcceptAbove and RejectBelow are the cascade thresholds defining
	// the band.
	AcceptAbove float64
	RejectBelow float64
}

// StrategyBands returns the default band sweep: the production
// thresholds and a widened band that escalates more of each group.
func StrategyBands() []StrategyBand {
	return []StrategyBand{
		{Name: "default", AcceptAbove: resolve.DefaultAcceptAbove, RejectBelow: resolve.DefaultRejectBelow},
		{Name: "wide", AcceptAbove: 0.97, RejectBelow: 0.05},
	}
}

// StrategiesConfig scales a strategy ablation sweep.
type StrategiesConfig struct {
	// Model is the LLM table name answering the uncertain band
	// (default GPT-mini).
	Model string
	// Seed drives fixture generation; same seed, same report.
	Seed string
	// Dataset is the product dataset key supplying the grouped
	// fixtures (default "wdc").
	Dataset string
	// Groups and Candidates size the fixture set: Groups query groups
	// of Candidates labelled pairs each (defaults 80 and 4).
	Groups     int
	Candidates int
	// Bands are the uncertain-band widths to sweep (nil means
	// StrategyBands).
	Bands []StrategyBand
	// Workers sizes the engine worker pool and bounds the candidate
	// groups evaluated at once (0 = pipeline default).
	Workers int
}

func (c StrategiesConfig) withDefaults() StrategiesConfig {
	if c.Model == "" {
		c.Model = llm.GPTMini
	}
	if c.Seed == "" {
		c.Seed = "strategies"
	}
	if c.Dataset == "" {
		c.Dataset = "wdc"
	}
	if c.Groups == 0 {
		c.Groups = 80
	}
	if c.Candidates == 0 {
		c.Candidates = 4
	}
	if len(c.Bands) == 0 {
		c.Bands = StrategyBands()
	}
	return c
}

// StrategiesSmoke is the small seeded configuration CI runs and the
// golden report pins.
func StrategiesSmoke() StrategiesConfig {
	return StrategiesConfig{Seed: "ci-smoke", Groups: 40}
}

// StrategyCell is one sweep cell: one prompt strategy under one
// uncertain-band width.
type StrategyCell struct {
	// Strategy is the strategy label ("match", "compare", "select",
	// "match+reason"); Band names the swept band.
	Strategy string
	Band     string
	// Groups is the number of fixture groups; EscalatedGroups how many
	// had at least one uncertain pair; Pairs the evaluated pair count.
	Groups          int
	EscalatedGroups int
	Pairs           int
	// F1 is the matching quality in [0, 100].
	F1 float64
	// LLMPairs counts escalated pairs; Calls the fresh client
	// round-trips that decided them (the number grouping shrinks);
	// CallsPerEscalated is Calls over EscalatedGroups.
	LLMPairs          int
	Calls             int
	CallsPerEscalated float64
	// GroupFallbacks counts pairs degraded to pairwise prompts after a
	// malformed grouped reply; Cents estimates the cell's model spend.
	GroupFallbacks int
	Cents          float64
}

// strategyVariants enumerates the swept strategy rows: the three
// first-pass formulations plus the reason tier stacked on match.
type strategyVariant struct {
	label    string
	strategy prompt.Strategy
	reason   bool
}

func strategyVariants() []strategyVariant {
	return []strategyVariant{
		{label: "match", strategy: prompt.StrategyMatch},
		{label: "compare", strategy: prompt.StrategyCompare},
		{label: "select", strategy: prompt.StrategySelect},
		{label: "match+reason", strategy: prompt.StrategyMatch, reason: true},
	}
}

// Strategies sweeps strategy × band width over the grouped fixtures
// and returns the cells in deterministic order: band, then strategy.
func Strategies(cfg StrategiesConfig) ([]StrategyCell, error) {
	c := cfg.withDefaults()
	client, err := llm.New(c.Model)
	if err != nil {
		return nil, fmt.Errorf("experiments: strategies: %w", err)
	}
	ds, err := datasets.Load(c.Dataset)
	if err != nil {
		return nil, fmt.Errorf("experiments: strategies: %w", err)
	}
	pairs, err := datasets.GroupedPairs(c.Dataset, c.Seed, c.Groups, c.Candidates)
	if err != nil {
		return nil, fmt.Errorf("experiments: strategies: %w", err)
	}
	groups := resolve.GroupPairs(pairs)

	var cells []StrategyCell
	for _, band := range c.Bands {
		for _, v := range strategyVariants() {
			opts := resolve.EvalOptions{
				Cascade: resolve.CascadeOptions{
					AcceptAbove: band.AcceptAbove,
					RejectBelow: band.RejectBelow,
					Strategy:    v.strategy,
					ReasonTier:  v.reason,
				},
				Domain:  ds.Schema.Domain,
				Workers: c.Workers,
			}
			res, err := resolve.Evaluate(client, opts, groups)
			if err != nil {
				return nil, fmt.Errorf("experiments: strategies %s/%s: %w", v.label, band.Name, err)
			}
			cell := StrategyCell{
				Strategy:        v.label,
				Band:            band.Name,
				Groups:          len(groups),
				EscalatedGroups: res.EscalatedGroups,
				Pairs:           len(res.Outcomes),
				F1:              res.F1(),
				LLMPairs:        res.Report.LLMPairs,
				Calls:           int(res.ClientCalls),
				GroupFallbacks:  res.Report.GroupFallbacks,
				Cents:           res.Report.Cents,
			}
			if res.EscalatedGroups > 0 {
				cell.CallsPerEscalated = float64(cell.Calls) / float64(res.EscalatedGroups)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// StrategiesTable renders sweep cells as a report table.
func StrategiesTable(cells []StrategyCell) *Table {
	t := &Table{
		ID:    "S1",
		Title: "Prompt strategies for the uncertain band (match / compare / select / reason)",
		Columns: []string{"Strategy", "Band", "Groups", "Escalated", "Pairs",
			"F1", "LLM pairs", "Calls", "Calls/esc", "Fallback pairs", "Cents"},
	}
	for _, c := range cells {
		t.AddRow(c.Strategy, c.Band, fmt.Sprintf("%d", c.Groups),
			fmt.Sprintf("%d", c.EscalatedGroups), fmt.Sprintf("%d", c.Pairs),
			f2(c.F1), fmt.Sprintf("%d", c.LLMPairs), fmt.Sprintf("%d", c.Calls),
			f2(c.CallsPerEscalated), fmt.Sprintf("%d", c.GroupFallbacks),
			fmt.Sprintf("%.3f", c.Cents))
	}
	return t
}

// WriteStrategiesReport runs the sweep and renders it as one markdown
// document — the artifact `emexperiments -strategies` regenerates and
// the golden test pins.
func WriteStrategiesReport(w io.Writer, cfg StrategiesConfig) error {
	c := cfg.withDefaults()
	fmt.Fprintln(w, "# llm4em — prompt strategy ablation")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Seed `%s`, model %s, dataset %s, %d groups × %d candidates.\n",
		c.Seed, c.Model, c.Dataset, c.Groups, c.Candidates)
	fmt.Fprintln(w, "Regenerated deterministically by `emexperiments -strategies`; grouped")
	fmt.Fprintln(w, "compare/select formulations follow Wang et al. (\"Match, Compare, or")
	fmt.Fprintln(w, "Select?\"), the reason tier the structured multi-step reasoning prompt.")
	fmt.Fprintln(w, "\"Calls/esc\" is fresh LLM round-trips per escalated query — the number")
	fmt.Fprintln(w, "grouping exists to shrink.")
	fmt.Fprintln(w)
	cells, err := Strategies(c)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, StrategiesTable(cells).Markdown())
	return nil
}
