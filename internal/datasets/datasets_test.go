package datasets

import (
	"bytes"
	"strings"
	"testing"

	"llm4em/internal/entity"
	"llm4em/internal/textsim"
)

func TestAllDatasetsMatchPaperCounts(t *testing.T) {
	for _, key := range Keys() {
		d := MustLoad(key)
		got := d.Counts()
		want := paperCounts[key]
		if got != want {
			t.Errorf("%s: counts = %+v, want Table 1 counts %+v", key, got, want)
		}
	}
}

func TestLoadUnknownKey(t *testing.T) {
	if _, err := Load("nope"); err == nil {
		t.Fatal("Load(nope) should fail")
	}
}

func TestLoadIsCachedAndDeterministic(t *testing.T) {
	a := MustLoad("wdc")
	b := MustLoad("wdc")
	if a != b {
		t.Error("Load should cache and return the same instance")
	}
	// Regenerate from scratch and compare content.
	c := generateWDCProducts()
	if len(c.Test) != len(a.Test) {
		t.Fatalf("regenerated test size %d != %d", len(c.Test), len(a.Test))
	}
	for i := range c.Test {
		if c.Test[i].A.Serialize() != a.Test[i].A.Serialize() ||
			c.Test[i].B.Serialize() != a.Test[i].B.Serialize() ||
			c.Test[i].Match != a.Test[i].Match {
			t.Fatalf("regeneration differs at test pair %d", i)
		}
	}
}

func TestSchemasMatchPaper(t *testing.T) {
	want := map[string][]string{
		"wdc": {"brand", "title", "currency", "price"},
		"ab":  {"title", "price"},
		"wa":  {"brand", "title", "modelno", "price"},
		"ag":  {"brand", "title", "price"},
		"ds":  {"authors", "title", "venue", "year"},
		"da":  {"authors", "title", "venue", "year"},
	}
	for key, attrs := range want {
		d := MustLoad(key)
		if len(d.Schema.Attributes) != len(attrs) {
			t.Errorf("%s: attributes %v, want %v", key, d.Schema.Attributes, attrs)
			continue
		}
		for i, a := range attrs {
			if d.Schema.Attributes[i] != a {
				t.Errorf("%s: attribute %d = %q, want %q", key, i, d.Schema.Attributes[i], a)
			}
		}
	}
}

func TestDomains(t *testing.T) {
	for _, key := range []string{"wdc", "ab", "wa", "ag"} {
		if MustLoad(key).Schema.Domain != entity.Product {
			t.Errorf("%s should be product domain", key)
		}
	}
	for _, key := range []string{"ds", "da"} {
		if MustLoad(key).Schema.Domain != entity.Publication {
			t.Errorf("%s should be publication domain", key)
		}
	}
}

func TestScenarios(t *testing.T) {
	// WDC Products and Walmart-Amazon are dirty-dirty (Section 2).
	if MustLoad("wdc").Scenario != DirtyDirty {
		t.Error("wdc should be dirty-dirty")
	}
	if MustLoad("wa").Scenario != DirtyDirty {
		t.Error("wa should be dirty-dirty")
	}
	for _, key := range []string{"ab", "ag", "ds", "da"} {
		if MustLoad(key).Scenario != CleanClean {
			t.Errorf("%s should be clean-clean", key)
		}
	}
}

func TestRecordsConformToSchema(t *testing.T) {
	for _, key := range Keys() {
		d := MustLoad(key)
		for _, p := range d.Test {
			if err := d.Schema.Validate(p.A); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if err := d.Schema.Validate(p.B); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
		}
	}
}

func TestSerializedRecordsNonEmpty(t *testing.T) {
	for _, key := range Keys() {
		d := MustLoad(key)
		for i, p := range d.Test {
			if p.A.Serialize() == "" || p.B.Serialize() == "" {
				t.Fatalf("%s test pair %d has an empty serialization", key, i)
			}
		}
	}
}

// TestMatchesAreMoreSimilarOnAverage verifies the core statistical
// property every benchmark must have: matches are on average more
// similar than non-matches, but the distributions overlap (corner
// cases exist).
func TestMatchesAreMoreSimilarOnAverage(t *testing.T) {
	for _, key := range Keys() {
		d := MustLoad(key)
		var posSum, negSum float64
		var posN, negN int
		var overlapPos, overlapNeg int // corner-case indicators
		for _, p := range d.Test {
			s := textsim.JaccardStrings(p.A.Serialize(), p.B.Serialize())
			if p.Match {
				posSum += s
				posN++
				if s < 0.3 {
					overlapPos++
				}
			} else {
				negSum += s
				negN++
				if s > 0.5 {
					overlapNeg++
				}
			}
		}
		posMean, negMean := posSum/float64(posN), negSum/float64(negN)
		if posMean <= negMean {
			t.Errorf("%s: mean match similarity %.3f <= mean non-match %.3f", key, posMean, negMean)
		}
		if overlapNeg == 0 {
			t.Errorf("%s: no similar non-matches — corner cases missing", key)
		}
	}
}

// TestWDCIsHarderThanDBLPACM checks the difficulty ordering at the
// level of raw similarity separation: the gap between match and
// non-match similarity must be smaller for WDC Products than for
// DBLP-ACM.
func TestDifficultyOrdering(t *testing.T) {
	gap := func(key string) float64 {
		d := MustLoad(key)
		var posSum, negSum float64
		var posN, negN int
		for _, p := range d.Test {
			s := textsim.JaccardStrings(p.A.Serialize(), p.B.Serialize())
			if p.Match {
				posSum += s
				posN++
			} else {
				negSum += s
				negN++
			}
		}
		return posSum/float64(posN) - negSum/float64(negN)
	}
	if gap("ag") >= gap("da") {
		t.Errorf("Amazon-Google gap %.3f should be smaller than DBLP-ACM gap %.3f", gap("ag"), gap("da"))
	}
}

func TestTrainValPool(t *testing.T) {
	d := MustLoad("wdc")
	pool := d.TrainVal()
	if len(pool) != len(d.Train)+len(d.Val) {
		t.Errorf("TrainVal length %d, want %d", len(pool), len(d.Train)+len(d.Val))
	}
}

func TestDirtyDatasetsReuseEntities(t *testing.T) {
	// In the dirty-dirty scenario some underlying entities appear in
	// multiple pairs; serialized sides should therefore contain near
	// duplicates across pairs.
	d := MustLoad("wdc")
	seen := map[string]int{}
	for _, p := range d.Train {
		seen[p.A.Serialize()]++
	}
	dups := 0
	for _, c := range seen {
		if c > 1 {
			dups++
		}
	}
	if dups == 0 {
		t.Skip("no exact duplicate serializations; entity reuse is probabilistic")
	}
}

func TestWriteCSV(t *testing.T) {
	d := MustLoad("ab")
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf, d.Test[:5]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("CSV has %d lines, want 6 (header + 5 rows)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "pair_id,label,left_title,left_price,right_title,right_price") {
		t.Errorf("unexpected header: %s", lines[0])
	}
}

func TestWriteJSONL(t *testing.T) {
	d := MustLoad("ds")
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf, d.Test[:3]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL has %d lines, want 3", len(lines))
	}
	for _, l := range lines {
		if !strings.Contains(l, `"left"`) || !strings.Contains(l, `"label"`) {
			t.Errorf("malformed JSONL line: %s", l)
		}
	}
}

func TestBibYearsPlausible(t *testing.T) {
	d := MustLoad("ds")
	for _, p := range d.Test[:200] {
		for _, r := range []entity.Record{p.A, p.B} {
			if y, ok := r.Get("year"); ok {
				if len(y) != 4 || !(strings.HasPrefix(y, "19") || strings.HasPrefix(y, "20")) {
					t.Fatalf("implausible year %q in %s", y, r.ID)
				}
			}
		}
	}
}

func TestSplitCountsTotal(t *testing.T) {
	c := SplitCounts{TrainPos: 1, TrainNeg: 2, ValPos: 3, ValNeg: 4, TestPos: 5, TestNeg: 6}
	if c.Total() != 21 {
		t.Errorf("Total = %d, want 21", c.Total())
	}
}
