// Command emblock runs the full deduplication pipeline over a record
// collection: blocking into candidate pairs, LLM matching, and
// clustering into entities.
//
// The input is a CSV file with a header of "id" followed by attribute
// columns; the output lists one cluster per line. With -demo, a dirty
// collection is derived from the WDC Products benchmark instead.
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

	"llm4em"
	"llm4em/internal/blocking"
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
		var err2 error
		recs, err2 = readRecords(f)
		fail(err2)
		domain = llm4em.Product
	default:
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("collection: %d records\n", len(recs))

	cands := blocking.Dedup(recs, *candidates)
	fmt.Printf("blocking: %d candidate pairs\n", len(cands))

	client, err := llm4em.NewModel(*model)
	fail(err)
	design, err := llm4em.DesignByName(*designName)
	fail(err)
	matcher := llm4em.Matcher{Client: client, Design: design, Domain: domain}
	decisions := make([]bool, len(cands))
	matches := 0
	for i, c := range cands {
		d, err := matcher.MatchPair(c)
		fail(err)
		decisions[i] = d.Match
		if d.Match {
			matches++
		}
	}
	fmt.Printf("matching: %d duplicates found\n", matches)

	clusters := blocking.Cluster(cands, decisions)
	fmt.Printf("clustering: %d entities\n\n", len(clusters))
	for _, c := range clusters {
		if len(c) > 1 {
			fmt.Println(joinIDs(c))
		}
	}
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

func joinIDs(ids []string) string {
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += ", "
		}
		out += id
	}
	return out
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "emblock:", err)
		os.Exit(1)
	}
}
