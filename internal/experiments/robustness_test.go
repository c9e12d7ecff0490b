package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/llm"
)

var updateGolden = flag.Bool("update", false, "rewrite golden report files")

func mustClient(t *testing.T, model string) llm.Client {
	t.Helper()
	client, err := llm.New(model)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// smokeConfig shrinks the CI smoke configuration further for unit
// tests: one domain, two kinds, still seeded and deterministic.
func smokeConfig() RobustnessConfig {
	cfg := RobustnessSmoke()
	cfg.Domains = []RobustDomain{{Name: "product", Key: "wdc"}}
	cfg.Kinds = []datasets.CorruptionKind{datasets.CorruptEmbed, datasets.CorruptNull}
	return cfg
}

// TestRobustnessSweepShape pins the sweep geometry: one clean baseline
// per domain plus kind × level cells, in deterministic order, each
// cell carrying a full metric set.
func TestRobustnessSweepShape(t *testing.T) {
	cfg := smokeConfig()
	cells, err := Robustness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := len(cfg.Domains) * (1 + len(cfg.Kinds)*len(cfg.Levels))
	if len(cells) != want {
		t.Fatalf("sweep produced %d cells, want %d", len(cells), want)
	}
	if cells[0].Kind != "clean" || cells[0].Level != 0 {
		t.Fatalf("first cell is not the clean baseline: %+v", cells[0])
	}
	for i, c := range cells {
		if c.Pairs == 0 {
			t.Fatalf("cell %d evaluated zero pairs: %+v", i, c)
		}
		if c.F1 < 0 || c.F1 > 100 || c.LocalPct < 0 || c.LocalPct > 100 {
			t.Fatalf("cell %d metrics out of range: %+v", i, c)
		}
		if c.Corruptor == "" {
			t.Fatalf("cell %d has no corruptor description", i)
		}
	}
	// The sweep's reason to exist: at least one corrupted cell must
	// differ from the clean baseline on some metric.
	clean := cells[0]
	moved := false
	for _, c := range cells[1:] {
		if c.F1 != clean.F1 || c.LocalPct != clean.LocalPct || c.LLMPairs != clean.LLMPairs {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("no corruption moved any metric; the sweep measures nothing")
	}
}

// TestRobustnessDeterministic pins that the sweep is a pure function
// of its configuration — the property the golden report relies on.
func TestRobustnessDeterministic(t *testing.T) {
	cfg := smokeConfig()
	a, err := Robustness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Robustness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("reruns disagree on cell count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d differs across reruns:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestRobustnessTableRenders pins the report table shape.
func TestRobustnessTableRenders(t *testing.T) {
	cells := []RobustnessCell{{
		Domain: "product", Dataset: "wdc", Kind: "clean", Corruptor: "clean",
		Pairs: 60, F1: 91.5, LocalPct: 72.25, LLMPairs: 17, Cents: 0.123,
	}}
	md := RobustnessTable(cells).Markdown()
	for _, want := range []string{"R1", "| product |", "91.50", "72.25", "0.123"} {
		if !strings.Contains(md, want) {
			t.Errorf("robustness table markdown missing %q:\n%s", want, md)
		}
	}
}

// TestCalibrateThresholds pins the calibration primitive on the
// product train split: thresholds come off the grid, are ordered, and
// the calibration F1 beats the degenerate always-local extreme badly
// enough to be meaningful.
func TestCalibrateThresholds(t *testing.T) {
	cfg := RobustnessConfig{}.withDefaults()
	ds := datasets.MustLoad("wdc")
	set := calibrationPairs(ds, 200)
	if len(set.Pairs) == 0 {
		t.Fatal("no calibration pairs drawn from the train split")
	}
	client := mustClient(t, cfg.Model)
	cal, err := CalibrateThresholds(client, 0, []CalibrationSet{set})
	if err != nil {
		t.Fatal(err)
	}
	if cal.RejectBelow >= cal.AcceptAbove {
		t.Fatalf("calibrated thresholds inverted: %+v", cal)
	}
	onGrid := func(grid []float64, v float64) bool {
		for _, g := range grid {
			if g == v {
				return true
			}
		}
		return false
	}
	if !onGrid(acceptGrid, cal.AcceptAbove) || !onGrid(rejectGrid, cal.RejectBelow) {
		t.Fatalf("calibrated thresholds off-grid: %+v", cal)
	}
	if cal.F1 < 50 {
		t.Fatalf("calibration F1 %.1f implausibly low", cal.F1)
	}
	if cal.LLMFraction < 0 || cal.LLMFraction > 1 {
		t.Fatalf("LLM fraction %.2f out of range", cal.LLMFraction)
	}
	// Determinism: calibration re-runs to the same choice.
	again, err := CalibrateThresholds(client, 4, []CalibrationSet{set})
	if err != nil {
		t.Fatal(err)
	}
	if cal != again {
		t.Fatalf("calibration not deterministic: %+v vs %+v", cal, again)
	}
}

// TestCalibrateThresholdsEmpty pins the degenerate input error.
func TestCalibrateThresholdsEmpty(t *testing.T) {
	if _, err := CalibrateThresholds(mustClient(t, "GPT-mini"), 0, nil); err == nil {
		t.Fatal("calibration on no pairs did not error")
	}
}

// TestCrossDomainTransfer runs the leave-one-dataset-out evaluation on
// a reduced configuration and pins its invariants: one row per
// held-out domain, transferred thresholds calibrated without the
// held-out data, and a coherent delta.
func TestCrossDomainTransfer(t *testing.T) {
	rows, err := CrossDomain(RobustnessConfig{MaxPairs: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(RobustDomains()) {
		t.Fatalf("cross-domain produced %d rows, want %d", len(rows), len(RobustDomains()))
	}
	for _, r := range rows {
		if r.HeldOut == "" {
			t.Fatalf("row without held-out domain: %+v", r)
		}
		if r.Transferred.RejectBelow >= r.Transferred.AcceptAbove ||
			r.InDomain.RejectBelow >= r.InDomain.AcceptAbove {
			t.Fatalf("%s: inverted thresholds: %+v", r.HeldOut, r)
		}
		if got := r.TransferF1 - r.InDomainF1; got != r.DeltaF1 {
			t.Fatalf("%s: DeltaF1 %.2f != TransferF1-InDomainF1 %.2f", r.HeldOut, r.DeltaF1, got)
		}
		if r.TransferF1 < 0 || r.TransferF1 > 100 || r.TransferLocalPct < 0 || r.TransferLocalPct > 100 {
			t.Fatalf("%s: metrics out of range: %+v", r.HeldOut, r)
		}
	}
	md := CrossDomainTable(rows).Markdown()
	for _, r := range rows {
		if !strings.Contains(md, r.HeldOut) {
			t.Errorf("cross-domain table missing held-out domain %q", r.HeldOut)
		}
	}
}

// TestRobustnessGoldenReport pins the full CI smoke report byte for
// byte. Regenerate with:
//
//	go test ./internal/experiments -run TestRobustnessGoldenReport -update
func TestRobustnessGoldenReport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRobustnessReport(&buf, RobustnessSmoke()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "robustness_golden.md")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden report missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("robustness report drifted from golden %s (regenerate with -update):\n--- got ---\n%s",
			path, got)
	}
	for _, dom := range RobustDomains() {
		if !bytes.Contains(got, []byte(dom.Name)) {
			t.Errorf("report missing domain %q", dom.Name)
		}
	}
}
