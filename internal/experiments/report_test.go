package experiments

import (
	"strings"
	"testing"
)

// TestWriteReport runs the consolidated report end to end on a
// reduced workload and checks that every section is present.
func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("report generation is slow")
	}
	cfg := Quick(150)
	cfg.Models = []string{"GPT-4", "GPT-mini", "Llama3.1"}
	cfg.Datasets = []string{"wdc", "wa", "ds"}
	s := NewSession(cfg)
	var b strings.Builder
	if err := WriteReport(&b, s); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# llm4em — full experiment report",
		"### Table 1 —",
		"### Table 3 —",
		"### Table 7 —",
		"### Table 10 (D-S)",
		"### Table 13 —",
		"### Ablation A1 —",
		"### Ablation A5 —",
		"### Future work (§7.2)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section %q", want)
		}
	}
	if strings.Count(out, "### ") < 20 {
		t.Errorf("report has only %d sections", strings.Count(out, "### "))
	}
}

// TestWriteReportSmallSample pins that a small test split still yields
// a whole report: at 60 pairs the GPT-4 reference run on WA has no
// error in one direction, and the error-profile section says so
// instead of failing the report.
func TestWriteReportSmallSample(t *testing.T) {
	if testing.Short() {
		t.Skip("report generation is slow")
	}
	cfg := Quick(60)
	cfg.Models = []string{"GPT-4", "GPT-mini"}
	cfg.Datasets = []string{"wa"}
	var b strings.Builder
	if err := WriteReport(&b, NewSession(cfg)); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, "### Future work (§7.2)") || !strings.Contains(out, "| Skipped |") {
		t.Errorf("report lacks the skipped error-profile table:\n%s", out[strings.LastIndex(out, "###"):])
	}
}
