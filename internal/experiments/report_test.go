package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestWriteReport runs the consolidated report end to end on the
// shared reduced workload and checks that every section is present.
func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("report generation is slow")
	}
	var b strings.Builder
	if err := WriteReport(&b, quickSession()); err != nil {
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

// reportDigest is the SHA-256 of WriteReport's output for the
// TestReportPinned configuration. A change that means to move a table
// updates it; testdata/report.sha256 pins the full-size report the
// same way.
const reportDigest = "04e2a9414089aeb6e741a540778225849337fea854ec2710668221637f9ad091"

// TestReportPinned pins the whole report byte for byte on a small
// sample, rendered with one worker and with the default pool: every
// table of the paper, the ablations and the future-work analysis must
// come out identical. At 60 pairs the GPT-4 reference run on WA has no
// error in one direction, so it also pins that the error-profile
// section says so instead of failing the report.
func TestReportPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("report generation is slow")
	}
	for _, workers := range []int{1, 0} {
		cfg := Quick(60)
		cfg.Models = []string{"GPT-4", "GPT-mini"}
		cfg.Datasets = []string{"wa"}
		cfg.Workers = workers
		var b strings.Builder
		if err := WriteReport(&b, NewSession(cfg)); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		if !strings.Contains(out, "### Future work (§7.2)") || !strings.Contains(out, "| Skipped |") {
			t.Errorf("workers %d: report lacks the skipped error-profile table:\n%s", workers, out[strings.LastIndex(out, "###"):])
		}
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != reportDigest {
			t.Errorf("workers %d: report digest %s, pinned %s", workers, got, reportDigest)
		}
	}
}
