package experiments

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llm4em/internal/datasets"
	"llm4em/internal/plm"
	"llm4em/internal/prompt"
)

// quickSession is the session the shape tests share, so each cell is
// computed once per test binary: two models, two datasets, capped test
// splits.
var quickSession = sync.OnceValue(func() *Session {
	cfg := Quick(120)
	cfg.Models = []string{"GPT-4", "Mixtral"}
	cfg.Datasets = []string{"wdc", "ds"}
	return NewSession(cfg)
})

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "T", Title: "demo", Columns: []string{"a", "bb"}}
	tb.AddRow("x", "y")
	out := tb.String()
	if !strings.Contains(out, "T — demo") || !strings.Contains(out, "x") {
		t.Errorf("rendered table:\n%s", out)
	}
}

func TestConfigTestPairsCapPreservesRatio(t *testing.T) {
	cfg := Quick(100)
	ds := datasets.MustLoad("wdc")
	pairs := cfg.testPairs(ds)
	if len(pairs) != 100 {
		t.Fatalf("capped to %d pairs, want 100", len(pairs))
	}
	pos := 0
	for _, p := range pairs {
		if p.Match {
			pos++
		}
	}
	// WDC test ratio is 259/1248 ≈ 20.8%; the cap should be close.
	if pos < 12 || pos > 30 {
		t.Errorf("capped split has %d positives of 100", pos)
	}
	full := Config{}
	if len(full.testPairs(ds)) != len(ds.Test) {
		t.Error("uncapped config should return the full test split")
	}
}

func TestTable1MatchesPaperCounts(t *testing.T) {
	tb := Table1(Default())
	if len(tb.Rows) != 6 {
		t.Fatalf("Table 1 has %d rows", len(tb.Rows))
	}
	if tb.Rows[0][1] != "500" || tb.Rows[0][6] != "989" {
		t.Errorf("WDC row = %v", tb.Rows[0])
	}
}

func TestZeroShotCaching(t *testing.T) {
	s := quickSession()
	c := cell{model: "GPT-4", dataset: "wdc", design: prompt.Designs()[0]}
	r1, err := s.result(c)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.result(c)
	if err != nil {
		t.Fatal(err)
	}
	if r1.F1() != r2.F1() || r1.Requests != r2.Requests {
		t.Error("cached zero-shot result differs")
	}
}

func TestSessionCached(t *testing.T) {
	s := NewSession(Quick(10))

	// Concurrent callers of one key share a single computation.
	// The computation lasts until every caller has arrived.
	var calls atomic.Int32
	var arrived, wg sync.WaitGroup
	got := make([]int, 16)
	arrived.Add(len(got))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived.Done()
			got[i], _ = cached(s, "k|shared", func() (int, error) {
				calls.Add(1)
				arrived.Wait()
				return 42, nil
			})
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times for one key, want 1", n)
	}
	for i, v := range got {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}

	// A failed computation is not kept.
	boom := errors.New("boom")
	if _, err := cached(s, "k|flaky", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("first call error = %v, want boom", err)
	}
	v, err := cached(s, "k|flaky", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Errorf("retry after failure = %d, %v; want 7, nil", v, err)
	}

	// A computation may use the cache for another key: no lock is
	// held while it runs.
	done := make(chan string, 1)
	go func() {
		v, _ := cached(s, "k|outer", func() (string, error) {
			inner, err := cached(s, "k|inner", func() (string, error) { return "in", nil })
			return "out+" + inner, err
		})
		done <- v
	}()
	select {
	case v := <-done:
		if v != "out+in" {
			t.Errorf("nested compute = %q, want out+in", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested cached call deadlocked")
	}
}

func TestBestZeroShotIsMaximum(t *testing.T) {
	s := quickSession()
	_, best, err := s.BestZeroShot("Mixtral", "wdc")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range prompt.Designs() {
		r, err := s.result(cell{model: "Mixtral", dataset: "wdc", design: d})
		if err != nil {
			t.Fatal(err)
		}
		if r.F1() > best.F1() {
			t.Errorf("design %s (%.2f) beats reported best (%.2f)", d.Name, r.F1(), best.F1())
		}
	}
}

func TestTable2And3Shapes(t *testing.T) {
	s := quickSession()
	t2, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2) != 2 {
		t.Fatalf("Table 2 produced %d tables, want one per dataset", len(t2))
	}
	// 10 designs + mean + stddev rows.
	if len(t2[0].Rows) != 12 {
		t.Errorf("Table 2 has %d rows", len(t2[0].Rows))
	}
	t3, err := Table3(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 12 {
		t.Errorf("Table 3 has %d rows", len(t3.Rows))
	}
	if t3.Columns[1] != "GPT-4" {
		t.Errorf("Table 3 columns = %v", t3.Columns)
	}
}

func TestTable4IncludesUnseenRows(t *testing.T) {
	s := quickSession()
	tb, err := Table4(s)
	if err != nil {
		t.Fatal(err)
	}
	var hasUnseen, hasDelta bool
	for _, row := range tb.Rows {
		if strings.Contains(row[0], "unseen") {
			hasUnseen = true
		}
		if strings.Contains(row[0], "Δ best LLM/PLM") {
			hasDelta = true
		}
	}
	if !hasUnseen || !hasDelta {
		t.Errorf("Table 4 missing unseen or delta rows:\n%s", tb.String())
	}
}

func TestTable5And6Shapes(t *testing.T) {
	s := quickSession()
	t5, err := Table5(s)
	if err != nil {
		t.Fatal(err)
	}
	// 8 spec rows + mean + sd + best zero-shot + 2 delta rows = 13.
	if len(t5[0].Rows) != 13 {
		t.Errorf("Table 5 has %d rows", len(t5[0].Rows))
	}
	t6, err := Table6(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(t6.Rows) != 13 {
		t.Errorf("Table 6 has %d rows", len(t6.Rows))
	}
}

func TestTable7Shape(t *testing.T) {
	cfg := Quick(120)
	cfg.Datasets = []string{"wdc", "ds"}
	cfg.Models = []string{"GPT-4", "Llama2"}
	s := NewSession(cfg)
	tb, err := Table7(s, []string{"Llama2"})
	if err != nil {
		t.Fatal(err)
	}
	// 2 training sources × 1 model + zero-shot + Δzs + ΔGPT4 + GPT-4
	// reference rows = 2 + 1 + 1 + 1 + 1.
	if len(tb.Rows) != 6 {
		t.Errorf("Table 7 has %d rows:\n%s", len(tb.Rows), tb.String())
	}
}

func TestFigureRenderings(t *testing.T) {
	cfg := Quick(150)
	s := NewSession(cfg)
	for n := 1; n <= 4; n++ {
		out, err := Figure(s, n)
		if err != nil {
			t.Fatalf("Figure %d: %v", n, err)
		}
		if !strings.Contains(out, "[PROMPT]") && !strings.Contains(out, "[USER]") {
			t.Errorf("Figure %d lacks prompt section:\n%.200s", n, out)
		}
	}
	if _, err := Figure(s, 99); err == nil {
		t.Error("unknown figure number should error")
	}
}

func TestPLMCached(t *testing.T) {
	s := quickSession()
	a := s.PLM(plm.RoBERTa, "wdc")
	b := s.PLM(plm.RoBERTa, "wdc")
	if a != b {
		t.Error("PLM should be cached per variant/dataset")
	}
}

func TestRuleSetsCached(t *testing.T) {
	s := quickSession()
	rs1, err := s.RuleSet(RulesLearned, datasets.MustLoad("wdc").Schema.Domain)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs1) == 0 {
		t.Fatal("no learned rules")
	}
	rs2, _ := s.RuleSet(RulesLearned, datasets.MustLoad("wdc").Schema.Domain)
	if &rs1[0] != &rs2[0] {
		t.Error("rule set should be cached")
	}
}

func TestDatasetDiagnostics(t *testing.T) {
	cfg := Quick(300)
	tb := DatasetDiagnostics(cfg)
	if len(tb.Rows) != 6 {
		t.Fatalf("diagnostics has %d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if len(row) != 7 {
			t.Errorf("row %v malformed", row)
		}
	}
}
