// Package experiments regenerates every table and figure of the
// paper's evaluation. Each TableN function reproduces the
// corresponding table; Figure rendering lives in figures.go.
// Sections lists the tables, the ablations and the future-work
// analysis in report order; WriteReport and emexperiments both print
// from it. A Session evaluates every matcher configuration through one
// result method and caches it, with the other expensive intermediate
// results (trained baselines, fine-tuned adapters, explanation sets),
// in one single-flight cache, so that tables sharing inputs do not
// recompute them, not even when prefetch workers ask concurrently.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/llm"
)

// Config scales an experiment session. The zero value of MaxTest
// means "full test sets" (the paper's setting); benches use a cap to
// stay fast.
type Config struct {
	// Models are the LLM table names to evaluate; nil means the six
	// study models.
	Models []string
	// Datasets are the dataset keys; nil means all six benchmarks.
	Datasets []string
	// MaxTest caps the number of test pairs per dataset (0 = all).
	// The cap samples proportionally from matches and non-matches to
	// keep the class ratio.
	MaxTest int
	// FTEpochs is the number of fine-tuning epochs (default 10, as in
	// the paper).
	FTEpochs int
	// Workers bounds the pairs a pairwise evaluation has in flight (0
	// selects the pipeline default); the batched-prompt ablation
	// submits all pairs at once. The sessions' own
	// prefetch parallelism is CPU-bound and independently capped at
	// GOMAXPROCS.
	Workers int
}

// Default returns the paper-scale configuration.
func Default() Config {
	return Config{FTEpochs: 10}
}

// Quick returns a configuration scaled down for benchmarks and smoke
// tests.
func Quick(maxTest int) Config {
	return Config{MaxTest: maxTest, FTEpochs: 4}
}

func (c Config) models() []string {
	if len(c.Models) > 0 {
		return c.Models
	}
	return llm.StudyModels()
}

func (c Config) datasets() []string {
	if len(c.Datasets) > 0 {
		return c.Datasets
	}
	return datasets.Keys()
}

// testPairs returns the (possibly capped) test split of a dataset.
func (c Config) testPairs(ds *datasets.Dataset) []entity.Pair {
	if c.MaxTest <= 0 || len(ds.Test) <= c.MaxTest {
		return ds.Test
	}
	// Preserve the positive/negative ratio under the cap.
	counts := entity.Count(ds.Test)
	wantPos := c.MaxTest * counts.Pos / counts.Total()
	if wantPos < 1 {
		wantPos = 1
	}
	wantNeg := c.MaxTest - wantPos
	out := make([]entity.Pair, 0, c.MaxTest)
	for _, p := range ds.Test {
		switch {
		case p.Match && wantPos > 0:
			out = append(out, p)
			wantPos--
		case !p.Match && wantNeg > 0:
			out = append(out, p)
			wantNeg--
		}
	}
	return out
}

// Table is a rendered experiment result: column headers plus rows of
// pre-formatted cells.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	var sep strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(w, "%-*s  ", widths[i], c)
		sep.WriteString(strings.Repeat("-", widths[i]))
		sep.WriteString("  ")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.TrimRight(sep.String(), " "))
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) {
				fmt.Fprintf(w, "%-*s  ", widths[i], cell)
			}
		}
		fmt.Fprintln(w)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		cells := make([]string, len(t.Columns))
		for i := range cells {
			if i < len(row) {
				cells[i] = strings.ReplaceAll(row[i], "|", "\\|")
			}
		}
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	return b.String()
}

// f2 formats an F1 value the way the paper's tables do.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// signed formats a delta with an explicit sign.
func signed(x float64) string { return fmt.Sprintf("%+.2f", x) }
