// Package datasets provides deterministic synthetic equivalents of
// the six benchmark datasets used in the paper's evaluation (Table 1):
// WDC Products, Abt-Buy, Walmart-Amazon, Amazon-Google, DBLP-Scholar
// and DBLP-ACM.
//
// The original benchmarks are not redistributable inside this module,
// so each dataset is regenerated from the shared vocabulary
// (internal/vocab) with the exact train/validation/test split sizes of
// Table 1 and the structural properties the paper's analysis depends
// on: corner-case record pairs (very similar non-matches and very
// dissimilar matches), heterogeneous surface forms, numeric
// attributes, dirty-dirty vs clean-clean scenarios, and the paper's
// per-dataset attribute schemas and difficulty ordering.
package datasets

import (
	"fmt"
	"sort"
	"sync"

	"llm4em/internal/entity"
)

// SplitCounts records the number of positive (matching) and negative
// (non-matching) pairs per split, exactly as reported in Table 1.
type SplitCounts struct {
	TrainPos, TrainNeg int
	ValPos, ValNeg     int
	TestPos, TestNeg   int
}

// Total returns the total number of pairs across all splits.
func (c SplitCounts) Total() int {
	return c.TrainPos + c.TrainNeg + c.ValPos + c.ValNeg + c.TestPos + c.TestNeg
}

// Scenario distinguishes dirty-dirty matching tasks (duplicates may
// exist within one source) from clean-clean tasks.
type Scenario string

// Matching scenarios, following Christophides et al. as cited in the
// paper.
const (
	DirtyDirty Scenario = "dirty-dirty"
	CleanClean Scenario = "clean-clean"
)

// Dataset is one fully materialized benchmark: a schema, a scenario
// and three labelled pair splits.
type Dataset struct {
	// Name is the full benchmark name, e.g. "WDC Products".
	Name string
	// Key is the short machine identifier, e.g. "wdc".
	Key string
	// Abbrev is the column abbreviation used by the paper's tables,
	// e.g. "WDC", "A-B".
	Abbrev string
	// Schema lists the attributes used for serialization, in order.
	Schema entity.Schema
	// Scenario is dirty-dirty or clean-clean.
	Scenario Scenario
	// Train, Val and Test are the labelled pair splits. In-context
	// example selection and fine-tuning draw on Train and Val; prompts
	// are evaluated on Test (Table 1 caption).
	Train, Val, Test []entity.Pair
}

// Counts returns the per-split positive/negative counts of the
// materialized dataset.
func (d *Dataset) Counts() SplitCounts {
	tr, va, te := entity.Count(d.Train), entity.Count(d.Val), entity.Count(d.Test)
	return SplitCounts{
		TrainPos: tr.Pos, TrainNeg: tr.Neg,
		ValPos: va.Pos, ValNeg: va.Neg,
		TestPos: te.Pos, TestNeg: te.Neg,
	}
}

// TrainVal returns the concatenation of the training and validation
// pairs — the demonstration/fine-tuning pool of Section 4.
func (d *Dataset) TrainVal() []entity.Pair {
	out := make([]entity.Pair, 0, len(d.Train)+len(d.Val))
	out = append(out, d.Train...)
	out = append(out, d.Val...)
	return out
}

// loader materializes a dataset on first use.
type loader struct {
	once sync.Once
	ds   *Dataset
	gen  func() *Dataset
}

var registry = map[string]*loader{
	"wdc": {gen: generateWDCProducts},
	"ab":  {gen: generateAbtBuy},
	"wa":  {gen: generateWalmartAmazon},
	"ag":  {gen: generateAmazonGoogle},
	"ds":  {gen: generateDBLPScholar},
	"da":  {gen: generateDBLPACM},
}

// Keys returns the dataset keys in the paper's presentation order.
func Keys() []string {
	return []string{"wdc", "ab", "wa", "ag", "ds", "da"}
}

// Load materializes (or returns the cached) dataset with the given
// key. Generation is deterministic: repeated loads yield identical
// data.
func Load(key string) (*Dataset, error) {
	l, ok := registry[key]
	if !ok {
		known := Keys()
		sort.Strings(known)
		return nil, fmt.Errorf("datasets: unknown dataset %q (known: %v)", key, known)
	}
	l.once.Do(func() { l.ds = l.gen() })
	return l.ds, nil
}

// MustLoad is Load for known-good keys; it panics on error.
func MustLoad(key string) *Dataset {
	d, err := Load(key)
	if err != nil {
		panic(err)
	}
	return d
}

// paperCounts are the Table 1 split statistics per dataset key, which
// the generators reproduce exactly.
var paperCounts = map[string]SplitCounts{
	"wdc": {TrainPos: 500, TrainNeg: 2000, ValPos: 500, ValNeg: 2000, TestPos: 259, TestNeg: 989},
	"ab":  {TrainPos: 616, TrainNeg: 5127, ValPos: 206, ValNeg: 1710, TestPos: 206, TestNeg: 1000},
	"wa":  {TrainPos: 576, TrainNeg: 5568, ValPos: 193, ValNeg: 1856, TestPos: 193, TestNeg: 1000},
	"ag":  {TrainPos: 699, TrainNeg: 6175, ValPos: 234, ValNeg: 2059, TestPos: 234, TestNeg: 1000},
	"ds":  {TrainPos: 3207, TrainNeg: 14016, ValPos: 1070, ValNeg: 4672, TestPos: 250, TestNeg: 1000},
	"da":  {TrainPos: 1332, TrainNeg: 6085, ValPos: 444, ValNeg: 2029, TestPos: 250, TestNeg: 1000},
}
