// Quickstart: match two product offers with an LLM, inspect the
// generated answer, and evaluate a small benchmark slice.
package main

import (
	"fmt"
	"log"

	"llm4em"
)

func main() {
	// 1. Pick a model and a prompt design. GPT-4 with the
	// general-complex-force design is the strongest zero-shot setup of
	// the study.
	model, err := llm4em.NewModel(llm4em.GPT4)
	if err != nil {
		log.Fatal(err)
	}
	design, err := llm4em.DesignByName("general-complex-force")
	if err != nil {
		log.Fatal(err)
	}
	matcher := llm4em.Matcher{Client: model, Design: design, Domain: llm4em.Product}

	// 2. Match a pair of entity descriptions.
	pair := llm4em.Pair{
		ID: "quickstart",
		A: llm4em.Record{ID: "offer-1", Attrs: []llm4em.Attr{
			{Name: "title", Value: "DYMO D1 Tape 12mm x 7m"},
			{Name: "price", Value: "12.99"},
		}},
		B: llm4em.Record{ID: "offer-2", Attrs: []llm4em.Attr{
			{Name: "title", Value: "dymo d1 label cassette tape 12mm"},
			{Name: "price", Value: "13.50"},
		}},
	}
	decision, err := matcher.MatchPair(pair)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model answer: %q\nparsed decision: match=%v\n\n", decision.Answer, decision.Match)

	// 3. Evaluate on a slice of the WDC Products benchmark.
	// Each pair goes to the model through the dispatcher that serves
	// the online store, as its own batch of one; Workers bounds the
	// pairs in flight, and CacheSize and MaxRetries tune the prompt
	// cache and retry beneath (zero values select the defaults).
	ds, err := llm4em.LoadDataset("wdc")
	if err != nil {
		log.Fatal(err)
	}
	matcher.Domain = ds.Schema.Domain
	matcher.Workers = 8
	result, err := matcher.Evaluate(ds.Test[:200])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WDC Products (200 test pairs): F1 = %.2f, precision = %.2f, recall = %.2f\n",
		result.F1(), result.Confusion.Precision(), result.Confusion.Recall())
	fmt.Printf("mean prompt length: %.0f tokens, mean latency: %.2fs\n",
		result.MeanPromptTokens(), result.MeanLatency().Seconds())
}
