package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does, which is how the benchmark's
// bounds are judged elsewhere.
func quartiles(values []float64) (q1, q3 float64) {
	v := slices.Clone(values)
	slices.Sort(v)
	m := len(v)
	if m < 2 {
		return v[0], v[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	if m := median(values); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// values collects one end-to-end metric of one workload over a
// document's untraced runs.
func (d *document) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range d.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict applies one metric's bound and direction to the runs of a
// parent (a) and a change (b). A spread wider than the bound leaves the
// pair unresolved, unless the runs settle it all the same: every run of
// b on one side of every run of a, or b worse by more than the bound and
// the spread together.
func verdict(def metricDef, a, b []float64) (worse, spreadMax float64, v string) {
	ma, mb := median(a), median(b)
	lower := def.Better == "lower"
	if ma != 0 {
		worse = (mb - ma) / ma
		if !lower {
			worse = -worse
		}
	}
	spreadMax = max(spread(a), spread(b))
	bAbove, bBelow := slices.Min(b) > slices.Max(a), slices.Max(b) < slices.Min(a)
	beatsAll, losesAll := bAbove, bBelow
	if lower {
		beatsAll, losesAll = bBelow, bAbove
	}
	noisy := spreadMax > def.Bound
	switch {
	case worse > def.Bound && (!noisy || losesAll || worse > def.Bound+spreadMax):
		v = "REGRESSED"
	case noisy && beatsAll:
		v = "better"
	case noisy:
		v = "unresolved"
	default:
		v = "ok"
	}
	return worse, spreadMax, v
}

// ungated are the metrics every untraced run measures beside those of
// BENCHMARK.json. No harness gates them, because on a shared host a run
// of an unchanged commit moves them by more than any bound it could
// give them (see README.md); compareFiles judges them by the same rule
// as the others, for whoever compares alternating pairs of runs by hand.
var ungated = []metricDef{
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "slo_share", Unit: "share", Better: "higher", Bound: 0.05},
	{Name: "reopen_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "records_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// compareFiles prints one row per end-to-end metric and workload, gated
// or not, and reports whether any pair regressed.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (regressed bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	// Medians of different amounts of work are not comparable.
	if a.Env.Seconds != b.Env.Seconds || a.Env.Sizes != b.Env.Sizes {
		return false, fmt.Errorf("%s and %s were measured with different settings: %vs %+v against %vs %+v",
			pathA, pathB, a.Env.Seconds, a.Env.Sizes, b.Env.Seconds, b.Env.Sizes)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tunit\ta median\tb median\tworse by\tspread\tbound\truns\tverdict")
	for _, def := range slices.Concat(spec.EndToEnd, ungated) {
		for _, wl := range workloadNames {
			va, vb := a.values(wl, def.Name), b.values(wl, def.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue // a workload neither document ran
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t%.2f\t%d/%d\tmissing\n", def.Name, wl, def.Unit, def.Bound, len(va), len(vb))
				continue
			}
			worse, sp, v := verdict(def, va, vb)
			regressed = regressed || v == "REGRESSED"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.0f%%\t%d/%d\t%s\n",
				def.Name, wl, def.Unit, median(va), median(vb), 100*worse, 100*sp, 100*def.Bound, len(va), len(vb), v)
		}
	}
	return regressed, tw.Flush()
}
