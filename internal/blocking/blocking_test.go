package blocking

import (
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
)

func rec(id, title string) entity.Record {
	return entity.Record{ID: id, Attrs: []entity.Attr{{Name: "title", Value: title}}}
}

// candidates blocks the left records against an index over right: up
// to maxCandidates pairs per left record, ranked by IDF-weighted token
// overlap, under DefaultMinScore.
func candidates(left, right []entity.Record, maxCandidates int) []entity.Pair {
	ix := BuildIndex(right, IndexOptions{})
	var out []entity.Pair
	for _, l := range left {
		for _, c := range queryText(ix, l.Serialize(), maxCandidates, DefaultMinScore) {
			r := ix.Record(c.Pos)
			out = append(out, entity.Pair{ID: l.ID + "|" + r.ID, A: l, B: r})
		}
	}
	return out
}

// PairRecall measures which fraction of gold matching pairs survived
// blocking — the standard blocker quality metric.
func PairRecall(candidates []entity.Pair, gold []entity.Pair) float64 {
	if len(gold) == 0 {
		return 1
	}
	have := map[string]bool{}
	for _, c := range candidates {
		have[c.A.ID+"|"+c.B.ID] = true
		have[c.B.ID+"|"+c.A.ID] = true
	}
	hit := 0
	for _, g := range gold {
		if have[g.A.ID+"|"+g.B.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(gold))
}

func TestCandidatesFindSharedRareTokens(t *testing.T) {
	left := []entity.Record{rec("l1", "sony dsc120b camera")}
	right := []entity.Record{
		rec("r1", "sony dsc120b digital camera black"),
		rec("r2", "makita drill kit"),
		rec("r3", "sony walkman player"),
	}
	cands := candidates(left, right, 10)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0].B.ID != "r1" {
		t.Errorf("top candidate = %s, want r1 (shares the rare model token)", cands[0].B.ID)
	}
	for _, c := range cands {
		if c.B.ID == "r2" {
			t.Error("unrelated record should not be a candidate")
		}
	}
}

func TestBlockingRecallOnBenchmark(t *testing.T) {
	// Blocking the two sides of WDC test pairs must retain most gold
	// matches while pruning the pair space drastically.
	ds := datasets.MustLoad("wdc")
	var left, right []entity.Record
	var gold []entity.Pair
	for _, p := range ds.Test[:400] {
		left = append(left, p.A)
		right = append(right, p.B)
		if p.Match {
			gold = append(gold, p)
		}
	}
	cands := candidates(left, right, 10)
	recall := PairRecall(cands, gold)
	if recall < 0.9 {
		t.Errorf("blocking recall %.3f, want >= 0.9", recall)
	}
	if len(cands) > len(left)*10 {
		t.Errorf("candidate budget exceeded: %d", len(cands))
	}
}

func TestPairRecallEdgeCases(t *testing.T) {
	if PairRecall(nil, nil) != 1 {
		t.Error("no gold pairs means recall 1")
	}
	gold := []entity.Pair{{A: rec("a", ""), B: rec("b", "")}}
	if PairRecall(nil, gold) != 0 {
		t.Error("no candidates means recall 0")
	}
	// Orientation must not matter.
	cands := []entity.Pair{{A: rec("b", ""), B: rec("a", "")}}
	if PairRecall(cands, gold) != 1 {
		t.Error("reversed candidate should count")
	}
}
