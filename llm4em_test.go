package llm4em_test

import (
	"strings"
	"testing"

	"llm4em"
)

func TestFacadeMatchingWorkflow(t *testing.T) {
	model, err := llm4em.NewModel(llm4em.GPT4)
	if err != nil {
		t.Fatal(err)
	}
	design, err := llm4em.DesignByName("general-complex-force")
	if err != nil {
		t.Fatal(err)
	}
	matcher := llm4em.Matcher{Client: model, Design: design, Domain: llm4em.Product}
	pair := llm4em.Pair{
		ID:    "facade",
		A:     llm4em.Record{ID: "a", Attrs: []llm4em.Attr{{Name: "title", Value: "Sony DSC-120B camera black"}, {Name: "price", Value: "348.00"}}},
		B:     llm4em.Record{ID: "b", Attrs: []llm4em.Attr{{Name: "title", Value: "sony dsc120b camera black"}, {Name: "price", Value: "351.00"}}},
		Match: true,
	}
	d, err := matcher.MatchPair(pair)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Match {
		t.Errorf("facade matcher failed on easy pair: %q", d.Answer)
	}
}

func TestFacadeDatasets(t *testing.T) {
	ds, err := llm4em.LoadDataset("wdc")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != "WDC Products" {
		t.Errorf("dataset name = %q", ds.Name)
	}
	if _, err := llm4em.LoadDataset("bogus"); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestFacadeSelectorsAndRules(t *testing.T) {
	ds, err := llm4em.LoadDataset("wdc")
	if err != nil {
		t.Fatal(err)
	}
	if demos := llm4em.NewRelatedSelector(ds.TrainVal()).Select(ds.Test[0], 6); len(demos) != 6 {
		t.Errorf("related selector returned %d demos", len(demos))
	}
	if rules := llm4em.HandwrittenRules(llm4em.Product); len(rules) == 0 {
		t.Error("no handwritten rules")
	}
}

func TestFacadeFineTuneAndExplain(t *testing.T) {
	ds, err := llm4em.LoadDataset("ab")
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := llm4em.FineTune(llm4em.GPTMini, ds, llm4em.FineTuneOptions{Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tuned.Name(), "ft-ab") {
		t.Errorf("fine-tuned name = %q", tuned.Name())
	}
	model, _ := llm4em.NewModel(llm4em.GPT4)
	design, _ := llm4em.DesignByName("domain-complex-force")
	exp, err := llm4em.Explain(model, design, ds.Schema.Domain, ds.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Attributes) == 0 {
		t.Error("explanation has no attributes")
	}
}

func TestFacadeParseAnswer(t *testing.T) {
	if !llm4em.ParseAnswer("Yes, they match.") || llm4em.ParseAnswer("Probably not.") {
		t.Error("ParseAnswer facade broken")
	}
}

func TestFacadeStudyModels(t *testing.T) {
	for _, name := range []string{llm4em.GPTMini, llm4em.GPT4, llm4em.GPT4o, llm4em.Llama31, llm4em.Mixtral} {
		if _, err := llm4em.NewModel(name); err != nil {
			t.Errorf("NewModel(%s): %v", name, err)
		}
	}
}

func TestFacadeStore(t *testing.T) {
	model, err := llm4em.NewModel(llm4em.GPTMini)
	if err != nil {
		t.Fatal(err)
	}
	store := llm4em.NewStore(model, llm4em.StoreOptions{
		Domain:  llm4em.Product,
		Cascade: llm4em.CascadeOptions{AcceptAbove: 0.9, RejectBelow: 0.15},
	})
	recs := []llm4em.Record{
		{ID: "r1", Attrs: []llm4em.Attr{{Name: "title", Value: "Sony DSC-120B camera black"}}},
		{ID: "r2", Attrs: []llm4em.Attr{{Name: "title", Value: "Makita impact drill kit"}}},
	}
	for _, r := range recs {
		if err := store.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	res, err := store.Resolve(llm4em.Record{
		ID:    "q1",
		Attrs: []llm4em.Attr{{Name: "title", Value: "sony dsc120b camera black"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched() {
		t.Fatalf("store missed an easy match: %+v", res)
	}
	if ent, ok := store.Entity("r1"); !ok || len(ent) != 2 {
		t.Errorf("Entity(r1) = %v %v, want q1+r1", ent, ok)
	}
	st := store.Stats()
	if st.Records != 2 || st.Resolves != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := len(store.Snapshot()); got != 2 {
		t.Errorf("snapshot has %d entities, want 2", got)
	}
}
