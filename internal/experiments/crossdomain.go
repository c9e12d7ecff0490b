package experiments

import (
	"fmt"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/eval"
	"llm4em/internal/llm"
	"llm4em/internal/resolve"
)

// This file is the leave-one-dataset-out transfer evaluation of the
// cascade thresholds, after the Cross-Dataset EM study (SNIPPETS.md):
// calibrate the accept/reject thresholds on N−1 generator domains,
// apply them to the held-out one, and compare against thresholds
// calibrated in-domain. The gap quantifies how much of the cascade's
// 0.9/0.15 configuration transfers across domains for free.

// Threshold grids the calibration sweeps. The band verdicts are
// computed once for the widest (lowest reject, highest accept) band,
// so adding grid points costs arithmetic, not model calls.
var (
	acceptGrid = []float64{0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95}
	rejectGrid = []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40}
)

// CalibrationSet is one domain's labelled calibration pairs. The
// domain steers the escalation prompts, so pooled cross-domain
// calibration still prompts each pair in its own dialect.
type CalibrationSet struct {
	Domain entity.Domain
	Pairs  []entity.Pair
}

// ThresholdCalibration is the outcome of one threshold sweep.
type ThresholdCalibration struct {
	// AcceptAbove and RejectBelow are the chosen thresholds.
	AcceptAbove, RejectBelow float64
	// F1 is the calibration-set F1 at the chosen thresholds in
	// [0, 100]; LLMFraction the fraction of calibration pairs the
	// thresholds escalate.
	F1          float64
	LLMFraction float64
}

// calibrationTolerance is the F1 slack (in points) within which a
// cheaper threshold pair beats a marginally better one: calibration
// picks the lowest-escalation thresholds among near-optimal ones,
// mirroring the cascade's reason to exist.
const calibrationTolerance = 0.5

// CalibrateThresholds sweeps the accept/reject grid over the pooled
// calibration sets and returns the cheapest near-optimal thresholds.
// The local scorer prices every grid point arithmetically; the client
// is consulted once per pair inside the widest band, never per grid
// point.
func CalibrateThresholds(client llm.Client, workers int, sets []CalibrationSet) (ThresholdCalibration, error) {
	var probs []float64
	var gold []bool
	var verdicts []bool // aligned with probs; meaningful inside the widest band
	widestReject, widestAccept := rejectGrid[0], acceptGrid[len(acceptGrid)-1]
	for _, set := range sets {
		ps := resolve.LocalProbabilities(nil, set.Pairs)
		var band []entity.Pair
		var bandIdx []int
		for i, p := range ps {
			if p > widestReject && p < widestAccept {
				band = append(band, set.Pairs[i])
				bandIdx = append(bandIdx, len(probs)+i)
			}
		}
		setVerdicts := make([]bool, len(set.Pairs))
		if len(band) > 0 {
			// Both thresholds negative: the no-cascade band, in which the
			// model answers every pair.
			res, err := resolve.Evaluate(client, resolve.EvalOptions{
				Cascade: resolve.CascadeOptions{AcceptAbove: -1, RejectBelow: -1},
				Domain:  set.Domain,
				Workers: workers,
			}, resolve.PerPair(band))
			if err != nil {
				return ThresholdCalibration{}, fmt.Errorf("experiments: calibrate: %w", err)
			}
			for bi, gi := range bandIdx {
				setVerdicts[gi-len(probs)] = res.Outcomes[bi].Match
			}
		}
		probs = append(probs, ps...)
		verdicts = append(verdicts, setVerdicts...)
		for _, p := range set.Pairs {
			gold = append(gold, p.Match)
		}
	}
	if len(probs) == 0 {
		return ThresholdCalibration{}, fmt.Errorf("experiments: calibrate: no calibration pairs")
	}

	// Sweep: every grid point is pure arithmetic over the cached
	// probabilities and band verdicts.
	evaluate := func(accept, reject float64) (float64, float64) {
		var conf eval.Confusion
		escalated := 0
		for i, p := range probs {
			var predicted bool
			switch {
			case p >= accept:
				predicted = true
			case p <= reject:
				predicted = false
			default:
				predicted = verdicts[i]
				escalated++
			}
			conf.Add(gold[i], predicted)
		}
		return conf.F1(), float64(escalated) / float64(len(probs))
	}

	bestF1 := -1.0
	for _, a := range acceptGrid {
		for _, r := range rejectGrid {
			if r >= a {
				continue
			}
			if f1, _ := evaluate(a, r); f1 > bestF1 {
				bestF1 = f1
			}
		}
	}
	var chosen ThresholdCalibration
	chosen.LLMFraction = 2 // above any real fraction
	for _, a := range acceptGrid {
		for _, r := range rejectGrid {
			if r >= a {
				continue
			}
			f1, frac := evaluate(a, r)
			if f1 < bestF1-calibrationTolerance {
				continue
			}
			// Cheapest near-optimal wins; ties prefer the wider local
			// band (higher reject, lower accept — grid order makes the
			// first winner stable anyway).
			if frac < chosen.LLMFraction || (frac == chosen.LLMFraction && f1 > chosen.F1) {
				chosen = ThresholdCalibration{AcceptAbove: a, RejectBelow: r, F1: f1, LLMFraction: frac}
			}
		}
	}
	return chosen, nil
}

// CrossDomainRow is one held-out domain's transfer outcome.
type CrossDomainRow struct {
	// HeldOut is the domain evaluated with foreign thresholds.
	HeldOut string
	// Transferred are the thresholds calibrated on the other domains;
	// InDomain the thresholds calibrated on the held-out domain's own
	// train split.
	Transferred, InDomain ThresholdCalibration
	// TransferF1/TransferLocalPct evaluate the held-out test split
	// under the transferred thresholds; InDomainF1 under its own.
	TransferF1       float64
	TransferLocalPct float64
	InDomainF1       float64
	// DeltaF1 is TransferF1 − InDomainF1: how much quality the
	// held-out domain loses by borrowing thresholds.
	DeltaF1 float64
}

// calibrationPairs draws a domain's capped calibration sample from
// its train split.
func calibrationPairs(ds *datasets.Dataset, maxPairs int) CalibrationSet {
	return CalibrationSet{
		Domain: ds.Schema.Domain,
		Pairs:  Config{MaxTest: maxPairs}.testPairs(&datasets.Dataset{Test: ds.Train, Schema: ds.Schema}),
	}
}

// CrossDomain runs the leave-one-dataset-out threshold transfer
// evaluation over the configured generator domains. MaxPairs caps both
// the calibration pairs drawn from each domain's train split (300 when
// zero) and the evaluated test pairs per held-out domain (0 = all);
// Seed, Kinds and Levels are not used.
func CrossDomain(cfg RobustnessConfig) ([]CrossDomainRow, error) {
	c := cfg.withDefaults()
	maxCalibration := c.MaxPairs
	if maxCalibration <= 0 {
		maxCalibration = 300
	}
	client, err := llm.New(c.Model)
	if err != nil {
		return nil, fmt.Errorf("experiments: cross-domain: %w", err)
	}
	loaded := make([]*datasets.Dataset, len(c.Domains))
	for i, dom := range c.Domains {
		if loaded[i], err = datasets.Load(dom.Key); err != nil {
			return nil, fmt.Errorf("experiments: cross-domain: %w", err)
		}
	}
	var rows []CrossDomainRow
	for i, dom := range c.Domains {
		var foreign []CalibrationSet
		for j := range c.Domains {
			if j != i {
				foreign = append(foreign, calibrationPairs(loaded[j], maxCalibration))
			}
		}
		transferred, err := CalibrateThresholds(client, c.Workers, foreign)
		if err != nil {
			return nil, fmt.Errorf("experiments: cross-domain %s: %w", dom.Name, err)
		}
		inDomain, err := CalibrateThresholds(client, c.Workers,
			[]CalibrationSet{calibrationPairs(loaded[i], maxCalibration)})
		if err != nil {
			return nil, fmt.Errorf("experiments: cross-domain %s: %w", dom.Name, err)
		}
		test := Config{MaxTest: c.MaxPairs}.testPairs(loaded[i])
		evalWith := func(th ThresholdCalibration) (resolve.EvalResult, error) {
			return resolve.Evaluate(client, resolve.EvalOptions{
				Cascade: resolve.CascadeOptions{
					AcceptAbove: th.AcceptAbove,
					RejectBelow: th.RejectBelow,
				},
				Domain:  loaded[i].Schema.Domain,
				Workers: c.Workers,
			}, resolve.PerPair(test))
		}
		tRes, err := evalWith(transferred)
		if err != nil {
			return nil, fmt.Errorf("experiments: cross-domain %s: %w", dom.Name, err)
		}
		iRes, err := evalWith(inDomain)
		if err != nil {
			return nil, fmt.Errorf("experiments: cross-domain %s: %w", dom.Name, err)
		}
		rows = append(rows, CrossDomainRow{
			HeldOut:          dom.Name,
			Transferred:      transferred,
			InDomain:         inDomain,
			TransferF1:       tRes.F1(),
			TransferLocalPct: 100 * tRes.Report.LocalFraction(),
			InDomainF1:       iRes.F1(),
			DeltaF1:          tRes.F1() - iRes.F1(),
		})
	}
	return rows, nil
}

// CrossDomainTable renders the transfer rows as a report table.
func CrossDomainTable(rows []CrossDomainRow) *Table {
	t := &Table{
		ID:    "R2",
		Title: "Leave-one-dataset-out threshold transfer (calibrate on N-1 domains, test held-out)",
		Columns: []string{"Held-out", "Transfer acc/rej", "Transfer F1", "Local %",
			"In-domain acc/rej", "In-domain F1", "ΔF1"},
	}
	for _, r := range rows {
		t.AddRow(r.HeldOut,
			fmt.Sprintf("%.2f/%.2f", r.Transferred.AcceptAbove, r.Transferred.RejectBelow),
			f2(r.TransferF1), f2(r.TransferLocalPct),
			fmt.Sprintf("%.2f/%.2f", r.InDomain.AcceptAbove, r.InDomain.RejectBelow),
			f2(r.InDomainF1), signed(r.DeltaF1))
	}
	return t
}
