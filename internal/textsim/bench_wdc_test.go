package textsim_test

import (
	"testing"

	"llm4em/internal/blocking"
	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/features"
	"llm4em/internal/textsim"
	"llm4em/internal/tokenize"
)

var sink float64

// wdcTitlePairs returns the title token lists PairFeatures compares for
// n blocker candidates of the benchmark-shaped WDC corpus (bench/'s
// datasets.GroupedPairs("wdc") with two candidates a group): each group's
// A record queries an index over every B record, and each of its top 10
// candidates makes one pair.
func wdcTitlePairs(tb testing.TB, n int) [][2][]string {
	pairs, err := datasets.GroupedPairs("wdc", "textsim-bench", 2000, 2)
	if err != nil {
		tb.Fatal(err)
	}
	recs := make([]entity.Record, len(pairs))
	for i, p := range pairs {
		recs[i] = p.B
	}
	ix := blocking.BuildIndex(recs, blocking.IndexOptions{})
	title := func(r entity.Record) []string {
		e := features.ExtractText(r.Serialize())
		if len(e.TitleTokens) > 0 {
			return e.TitleTokens
		}
		return e.Tokens
	}
	var out [][2][]string
	for i := 0; i < len(pairs) && len(out) < n; i += 2 {
		q := pairs[i].A
		for _, c := range ix.QueryTokens(tokenize.Words(q.Serialize()), 10, blocking.DefaultMinScore) {
			out = append(out, [2][]string{title(q), title(ix.Record(c.Pos))})
		}
	}
	if len(out) < n {
		tb.Fatalf("%d candidate pairs, want %d", len(out), n)
	}
	return out[:n]
}

// BenchmarkGeneralizedJaccardWDC times the title kernel per pair over
// 3 000 WDC-shaped blocker candidates, the pairs a resolve scores (5 to
// 19 title tokens, 8 on average), where BenchmarkGeneralizedJaccard
// repeats one pair.
func BenchmarkGeneralizedJaccardWDC(b *testing.B) {
	pairs := wdcTitlePairs(b, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pairs[i%len(pairs)]
		sink = textsim.GeneralizedJaccard(p[0], p[1])
	}
}
