// End-to-end deduplication: the full integration pipeline the paper's
// introduction motivates — block a dirty offer collection into
// candidate pairs, match the candidates with an LLM, and cluster the
// decisions into entities (e.g. for price tracking across vendors).
package main

import (
	"fmt"
	"log"

	"llm4em"
	"llm4em/internal/blocking"
	"llm4em/internal/datasets"
	"llm4em/internal/entity"
)

func main() {
	// Build a dirty offer collection from the WDC Products test split:
	// both sides of the first pairs, so the collection contains
	// duplicates.
	ds, err := datasets.Load("wdc")
	if err != nil {
		log.Fatal(err)
	}
	var records []entity.Record
	seen := map[string]bool{}
	for _, p := range ds.Test[:150] {
		for _, r := range []entity.Record{p.A, p.B} {
			if !seen[r.ID] {
				records = append(records, r)
				seen[r.ID] = true
			}
		}
	}
	fmt.Printf("collection: %d offers\n", len(records))

	// 1. Blocking: reduce the quadratic pair space.
	candidates := blocking.Dedup(records, 5)
	total := len(records) * (len(records) - 1) / 2
	fmt.Printf("blocking: %d candidate pairs (%.1f%% of the %d possible)\n",
		len(candidates), 100*float64(len(candidates))/float64(total), total)

	// 2. Matching: decide each candidate with GPT-mini (the
	// cost-efficient hosted model).
	model, err := llm4em.NewModel(llm4em.GPTMini)
	if err != nil {
		log.Fatal(err)
	}
	design, err := llm4em.DesignByName("domain-complex-force")
	if err != nil {
		log.Fatal(err)
	}
	matcher := llm4em.Matcher{Client: model, Design: design, Domain: ds.Schema.Domain}
	decisions := make([]bool, len(candidates))
	matches := 0
	for i, c := range candidates {
		d, err := matcher.MatchPair(c)
		if err != nil {
			log.Fatal(err)
		}
		decisions[i] = d.Match
		if d.Match {
			matches++
		}
	}
	fmt.Printf("matching: %d of %d candidates decided as duplicates\n", matches, len(candidates))

	// 3. Clustering: union-find over the positive decisions.
	clusters := blocking.Cluster(candidates, decisions)
	multi := 0
	var example []string
	for _, c := range clusters {
		if len(c) > 1 {
			multi++
			if example == nil {
				example = c
			}
		}
	}
	fmt.Printf("clustering: %d entities, %d with more than one offer\n", len(clusters), multi)
	if example != nil {
		fmt.Println("\nexample duplicate cluster:")
		byID := map[string]entity.Record{}
		for _, r := range records {
			byID[r.ID] = r
		}
		for _, id := range example {
			fmt.Printf("  - %s\n", byID[id].Serialize())
		}
	}
}
