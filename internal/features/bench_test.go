package features

import "testing"

var benchStrings = [][2]string{
	{"Sony Cybershot DSC-120B digital camera black 348.00", "sony dsc120b camera black 351.99"},
	{"Michael Stonebraker, David DeWitt adaptive indexing SIGMOD Conference 1997", "M. Stonebraker adaptive indexing sigmod 1997"},
	{"adobe photoshop elements 5.0 full version 79.99", "photoshop elements 5 upgrade 49.99"},
}

// benchPairs extracts both sides of every benchStrings pair once, as
// the resolve store's score stage holds them once it has extracted the
// query and a candidate.
func benchPairs() [][2]Extracted {
	ps := make([][2]Extracted, len(benchStrings))
	for i, s := range benchStrings {
		ps[i] = [2]Extracted{ExtractText(s[0]), ExtractText(s[1])}
	}
	return ps
}

// BenchmarkExtractText measures the entity-reading substrate, which the
// resolve store runs on the query and on every candidate it scores.
func BenchmarkExtractText(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ExtractText(benchStrings[i%len(benchStrings)][0])
	}
}

// BenchmarkPairFeatures measures the pair-feature computation over
// pre-extracted pairs: the serving kernel of the score stage.
func BenchmarkPairFeatures(b *testing.B) {
	ps := benchPairs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := &ps[i%len(ps)]
		_, _ = PairFeatures(p[0], p[1])
	}
}

// BenchmarkPairFeaturesText measures extraction of both sides plus the
// pair features — the offline path of PairFeaturesText.
func BenchmarkPairFeaturesText(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchStrings[i%len(benchStrings)]
		_, _ = PairFeaturesText(s[0], s[1])
	}
}

// TestPairFeaturesAllocs holds the BenchmarkPairFeatures body — one
// PairFeatures call over pre-made extractions — to at most 4
// allocations per pair.
func TestPairFeaturesAllocs(t *testing.T) {
	for i, p := range benchPairs() {
		if avg := testing.AllocsPerRun(200, func() { _, _ = PairFeatures(p[0], p[1]) }); avg > 4 {
			t.Errorf("PairFeatures(%q, %q) allocates %.1f times, want <= 4", benchStrings[i][0], benchStrings[i][1], avg)
		}
	}
}
