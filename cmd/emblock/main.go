// Command emblock deduplicates a record collection through an
// in-memory resolution store: each record, in input order, is resolved
// against the records before it (blocking, the local cascade, the LLM
// for the uncertain band, folding into entities) and then added, so
// each unordered pair is decided at most once.
//
// The input is a CSV file with a header of "id" followed by attribute
// columns; IDs must be non-empty and unique. The output lists one
// cluster per line. With -demo, a dirty collection is derived from the
// WDC Products benchmark instead.
//
// Usage:
//
//	emblock -demo -records 200
//	emblock -in offers.csv -model GPT-mini -candidates 5
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"llm4em"
	"llm4em/internal/datasets"
	"llm4em/internal/entity"
)

func main() {
	in := flag.String("in", "", "input CSV (header: id,<attr>,<attr>,...)")
	demo := flag.Bool("demo", false, "use a dirty collection derived from WDC Products")
	records := flag.Int("records", 200, "number of records in -demo mode")
	model := flag.String("model", "GPT-mini", "matching model")
	designName := flag.String("design", "domain-complex-force", "prompt design")
	candidates := flag.Int("candidates", 5, "max blocking candidates per record")
	flag.Parse()

	var recs []entity.Record
	var domain llm4em.Domain
	switch {
	case *demo:
		recs, domain = demoCollection(*records)
	case *in != "":
		f, err := os.Open(*in)
		fail(err)
		defer f.Close()
		recs, err = readRecords(f)
		fail(err)
		domain = llm4em.Product
	default:
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("collection: %d records\n", len(recs))

	client, err := llm4em.NewModel(*model)
	fail(err)
	design, err := llm4em.DesignByName(*designName)
	fail(err)
	store := llm4em.NewStore(client, llm4em.StoreOptions{MaxCandidates: *candidates, Design: design, Domain: domain})
	defer store.Close()
	clusters, cost, err := resolveAll(store, recs)
	fail(err)
	fmt.Printf("blocking: %d candidate pairs\n", cost.Candidates)
	fmt.Printf("matching: %d accepted and %d rejected locally, %d sent to the LLM\n",
		cost.LocalAccepts, cost.LocalRejects, cost.LLMPairs)
	fmt.Printf("clustering: %d entities\n\n", len(clusters))
	for _, c := range clusters {
		if len(c) > 1 {
			fmt.Println(strings.Join(c, ", "))
		}
	}
}

// resolveAll resolves each record against the records before it and
// then adds it, and returns the store's entities with the summed cost
// of the resolves. An empty or repeated ID stops it with
// llm4em.ErrNoRecordID or llm4em.ErrDuplicateRecordID.
func resolveAll(store *llm4em.Store, recs []entity.Record) ([][]string, llm4em.CostReport, error) {
	var cost llm4em.CostReport
	for _, r := range recs {
		res, err := store.Resolve(r)
		if err != nil {
			return nil, cost, err
		}
		cost.Add(res.Cost)
		if err := store.Add(r); err != nil {
			return nil, cost, err
		}
	}
	return store.Snapshot(), cost, nil
}

// demoCollection builds a dirty record collection from the WDC test
// split.
func demoCollection(n int) ([]entity.Record, llm4em.Domain) {
	ds := datasets.MustLoad("wdc")
	var recs []entity.Record
	seen := map[string]bool{}
	for _, p := range ds.Test {
		for _, r := range []entity.Record{p.A, p.B} {
			if !seen[r.ID] {
				recs = append(recs, r)
				seen[r.ID] = true
			}
			if len(recs) == n {
				return recs, ds.Schema.Domain
			}
		}
	}
	return recs, ds.Schema.Domain
}

// readRecords parses an id,<attr>... CSV into records.
func readRecords(r io.Reader) ([]entity.Record, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	if len(header) < 2 || header[0] != "id" {
		return nil, fmt.Errorf("header must be id,<attr>,..., got %v", header)
	}
	var out []entity.Record
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rec := entity.Record{ID: row[0], Attrs: make([]entity.Attr, len(header)-1)}
		for i, name := range header[1:] {
			rec.Attrs[i] = entity.Attr{Name: name, Value: row[i+1]}
		}
		out = append(out, rec)
	}
	return out, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "emblock:", err)
		os.Exit(1)
	}
}
