package experiments

import (
	"fmt"
	"io"
)

// Section is one part of the evaluation: a paper table (Name "1" to
// "13"), the ablations or the future-work analysis. Run returns its
// tables in print order.
type Section struct {
	Name string
	Run  func(s *Session) ([]*Table, error)
}

// Sections lists every part of the evaluation in report order: Tables
// 1–13, then "ablations" and "futurework". The report and the
// emexperiments table modes both print from this list.
func Sections() []Section {
	one := func(table func(*Session) (*Table, error)) func(*Session) ([]*Table, error) {
		return func(s *Session) ([]*Table, error) {
			t, err := table(s)
			if err != nil {
				return nil, err
			}
			return []*Table{t}, nil
		}
	}
	return []Section{
		{"1", one(func(s *Session) (*Table, error) { return Table1(s.Cfg), nil })},
		{"2", Table2},
		{"3", one(Table3)},
		{"4", one(Table4)},
		{"5", Table5},
		{"6", one(Table6)},
		{"7", one(func(s *Session) (*Table, error) { return Table7(s, FTDefaults()) })},
		{"8", one(Table8)},
		{"9", one(Table9)},
		{"10", Table10},
		{"11", one(Table11)},
		{"12", one(Table12)},
		{"13", one(Table13)},
		{"ablations", Ablations},
		{"futurework", one(func(s *Session) (*Table, error) {
			return ErrorProfiles(s, "wa", []string{"GPT-4", "GPT-mini", "Llama3.1"})
		})},
	}
}

// WriteReport renders every section — each table, the ablations and
// the future-work analysis — as one markdown document.
func WriteReport(w io.Writer, s *Session) error {
	fmt.Fprintln(w, "# llm4em — full experiment report")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Regenerated deterministically by `emexperiments -report`. Tables mirror")
	fmt.Fprintln(w, "the evaluation section of *Entity Matching using Large Language Models*")
	fmt.Fprintln(w, "(EDBT 2025); README's \"Reproducing the paper\" lists the commands.")
	fmt.Fprintln(w)
	for _, sec := range Sections() {
		ts, err := sec.Run(s)
		if err != nil {
			return err
		}
		for _, t := range ts {
			fmt.Fprintln(w, t.Markdown())
		}
	}
	return nil
}
