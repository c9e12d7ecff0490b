package blocking

import (
	"fmt"
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/detrand"
	"llm4em/internal/entity"
	"llm4em/internal/tokenize"
)

// syntheticRecords generates a deterministic product-offer-like
// collection: a brand and category word pool shared across records
// (stop-token pressure) plus a rare per-record model token.
func syntheticRecords(n int) []entity.Record {
	brands := []string{"sony", "canon", "epson", "makita"}
	cats := []string{"camera", "printer", "drill", "laptop"}
	adjs := []string{"pro", "compact", "wireless", "digital"}
	rng := detrand.New("blocking-bench")
	recs := make([]entity.Record, n)
	for i := range recs {
		title := fmt.Sprintf("%s %s %s model%04d rev%d",
			brands[rng.Intn(len(brands))],
			adjs[rng.Intn(len(adjs))],
			cats[rng.Intn(len(cats))],
			i/2, // every model token shared by ~2 records
			rng.Intn(3))
		recs[i] = entity.Record{
			ID:    fmt.Sprintf("s%05d", i),
			Attrs: []entity.Attr{{Name: "title", Value: title}},
		}
	}
	return recs
}

// benchmarkIndexQuery measures one QueryTokens call, over a pre-split
// query, against a prebuilt index of n synthetic records — 2 scoring
// postings a query, so the figure is the fixed per-query cost —
// reporting postings bytes/record so it doubles as the size
// measurement BENCH_index10m.json records.
func benchmarkIndexQuery(b *testing.B, n int) {
	records := syntheticRecords(n)
	ix := BuildIndex(records, IndexOptions{})
	queries := make([][]string, 256)
	for i := range queries {
		queries[i] = tokenize.Words(records[(i*37)%n].Serialize())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.QueryTokens(queries[i%len(queries)], 10, 1.0)
	}
	// After ResetTimer: it clears previously reported custom metrics.
	b.ReportMetric(float64(ix.PostingsBytes())/float64(n), "postings-B/record")
}

func BenchmarkIndexQuery10k(b *testing.B)  { benchmarkIndexQuery(b, 10000) }
func BenchmarkIndexQuery100k(b *testing.B) { benchmarkIndexQuery(b, 100000) }

// wdcCorpus draws the benchmark-shaped collection bench/ serves:
// datasets.GroupedPairs("wdc") with two candidates a group, the stored
// records every pair's B, the queries every group's A serialized and
// split — 20–30 tokens of mid-frequency terms, hundreds of scoring
// postings a query where the synthetic corpus above has two.
func wdcCorpus(tb testing.TB, n int) (records []entity.Record, queries [][]string) {
	pairs, err := datasets.GroupedPairs("wdc", "blocking-bench", n/2, 2)
	if err != nil {
		tb.Fatal(err)
	}
	for i, p := range pairs {
		records = append(records, p.B)
		if i%2 == 0 {
			queries = append(queries, tokenize.Words(p.A.Serialize()))
		}
	}
	return records, queries
}

// BenchmarkIndexQueryWDC measures benchmark-shaped queries at two
// sizes: a shard of the 32k-record benchmark store and a 256k-record
// index, the top of the table on the scorer in docs/ARCHITECTURE.md.
func BenchmarkIndexQueryWDC(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"4k", 4000}, {"256k", 256000}} {
		b.Run("records="+size.name, func(b *testing.B) {
			records, queries := wdcCorpus(b, size.n)
			ix := BuildIndex(records, IndexOptions{})
			queries = queries[:256]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ix.QueryTokens(queries[i%len(queries)], 10, 1.0)
			}
		})
	}
}

// BenchmarkIndexAdd measures incremental index growth per record.
func BenchmarkIndexAdd(b *testing.B) {
	records := syntheticRecords(10000)
	b.ReportAllocs()
	b.ResetTimer()
	ix := BuildIndex(nil, IndexOptions{})
	for i := 0; i < b.N; i++ {
		ix.Add(records[i%len(records)])
	}
}
