// Package explain implements the structured-explanation pipeline of
// Section 6: a second-turn prompt asks the model to explain its
// matching decision as attribute | importance | similarity rows
// (Figure 4); the rows are parsed, validated against string-similarity
// measures (Pearson correlation with Cosine and Generalized Jaccard),
// and aggregated into global attribute-importance statistics
// (Table 10).
package explain

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"llm4em/internal/entity"
	"llm4em/internal/eval"
	"llm4em/internal/features"
	"llm4em/internal/llm"
	"llm4em/internal/prompt"
	"llm4em/internal/textsim"
)

// Attribute is one row of a structured explanation.
type Attribute struct {
	Name       string
	Importance float64 // in [-1, 1]; sign indicates non-match/match contribution
	Similarity float64 // in [0, 1]
}

// Explanation is a parsed structured explanation of one decision.
type Explanation struct {
	// Pair is the explained pair and Predicted the model's decision.
	Pair      entity.Pair
	Predicted bool
	// Attributes holds the parsed rows.
	Attributes []Attribute
	// Raw is the model's full explanation text.
	Raw string
}

// Generate runs the two-turn conversation of Section 6.1 for one
// pair: the matching prompt, the model's answer, then the structured
// explanation request.
func Generate(client llm.Client, design prompt.Design, domain entity.Domain, pair entity.Pair) (Explanation, error) {
	spec := prompt.Spec{Design: design, Domain: domain}
	matchPrompt := spec.Build(pair)
	first, err := client.Chat([]llm.Message{{Role: llm.User, Content: matchPrompt}})
	if err != nil {
		return Explanation{}, fmt.Errorf("explain: matching turn for %s: %w", pair.ID, err)
	}
	conv := []llm.Message{
		{Role: llm.User, Content: matchPrompt},
		{Role: llm.Assistant, Content: first.Content},
		{Role: llm.User, Content: prompt.ExplanationRequest},
	}
	second, err := client.Chat(conv)
	if err != nil {
		return Explanation{}, fmt.Errorf("explain: explanation turn for %s: %w", pair.ID, err)
	}
	return Explanation{
		Pair:       pair,
		Predicted:  prompt.ParseAnswer(first.Content),
		Attributes: Parse(second.Content),
		Raw:        second.Content,
	}, nil
}

// GenerateAll produces explanations for every pair.
func GenerateAll(client llm.Client, design prompt.Design, domain entity.Domain, pairs []entity.Pair) ([]Explanation, error) {
	out := make([]Explanation, 0, len(pairs))
	for _, p := range pairs {
		e, err := Generate(client, design, domain, p)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// Parse extracts the attribute rows of a structured explanation.
// Rows have the form "attribute | importance | similarity"; malformed
// lines are skipped.
func Parse(text string) []Attribute {
	var out []Attribute
	for _, line := range strings.Split(text, "\n") {
		parts := strings.Split(strings.TrimSpace(line), "|")
		if len(parts) != 3 {
			continue
		}
		imp, err1 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		sim, err2 := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		out = append(out, Attribute{
			Name:       strings.TrimSpace(parts[0]),
			Importance: imp,
			Similarity: sim,
		})
	}
	return out
}

// AggregateRow is one row of Table 10: the usage frequency and mean
// importance (with standard deviation) of an attribute, separately
// for predicted matches and non-matches.
type AggregateRow struct {
	Attribute string
	// Matches side.
	MatchFreq   float64
	MatchMean   float64
	MatchStdDev float64
	// Non-matches side.
	NonFreq   float64
	NonMean   float64
	NonStdDev float64
}

// Aggregate parses no text — it tallies already-parsed explanations
// into per-attribute global statistics, sorted by match-side
// frequency (Table 10's presentation).
func Aggregate(explanations []Explanation) []AggregateRow {
	type bucket struct{ match, non []float64 }
	buckets := map[string]*bucket{}
	var nMatch, nNon int
	for _, e := range explanations {
		if e.Predicted {
			nMatch++
		} else {
			nNon++
		}
		for _, a := range e.Attributes {
			b := buckets[a.Name]
			if b == nil {
				b = &bucket{}
				buckets[a.Name] = b
			}
			if e.Predicted {
				b.match = append(b.match, a.Importance)
			} else {
				b.non = append(b.non, a.Importance)
			}
		}
	}
	rows := make([]AggregateRow, 0, len(buckets))
	for name, b := range buckets {
		row := AggregateRow{Attribute: name}
		if nMatch > 0 {
			row.MatchFreq = float64(len(b.match)) / float64(nMatch)
		}
		row.MatchMean = eval.Mean(b.match)
		row.MatchStdDev = eval.StdDev(b.match)
		if nNon > 0 {
			row.NonFreq = float64(len(b.non)) / float64(nNon)
		}
		row.NonMean = eval.Mean(b.non)
		row.NonStdDev = eval.StdDev(b.non)
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].MatchFreq != rows[j].MatchFreq {
			return rows[i].MatchFreq > rows[j].MatchFreq
		}
		return rows[i].Attribute < rows[j].Attribute
	})
	return rows
}

// Correlation holds the Section 6.1 validation of model-generated
// similarity values against classic string-similarity measures.
type Correlation struct {
	Cosine             float64
	GeneralizedJaccard float64
	Samples            int
}

// CorrelationWithStringSims recomputes, for every explanation row,
// the Cosine and Generalized Jaccard similarity of the attribute
// values the row refers to, and returns the Pearson correlation with
// the model-generated similarities.
func CorrelationWithStringSims(explanations []Explanation) Correlation {
	var modelSims, cosines, genJaccards []float64
	for _, e := range explanations {
		extA := features.ExtractText(e.Pair.A.Serialize())
		extB := features.ExtractText(e.Pair.B.Serialize())
		for _, a := range e.Attributes {
			va, okA := attributeValue(extA, a.Name)
			vb, okB := attributeValue(extB, a.Name)
			if !okA || !okB {
				continue
			}
			modelSims = append(modelSims, a.Similarity)
			cosines = append(cosines, textsim.CosineStrings(va, vb))
			genJaccards = append(genJaccards, textsim.GeneralizedJaccardStrings(va, vb))
		}
	}
	return Correlation{
		Cosine:             textsim.Pearson(modelSims, cosines),
		GeneralizedJaccard: textsim.Pearson(modelSims, genJaccards),
		Samples:            len(modelSims),
	}
}

// attributeValue recovers the textual value of a named explanation
// attribute from an extracted entity description.
func attributeValue(e features.Extracted, name string) (string, bool) {
	switch name {
	case "title":
		if len(e.TitleTokens) == 0 {
			return "", false
		}
		return strings.Join(e.TitleTokens, " "), true
	case "brand":
		return e.Brand, e.Brand != ""
	case "model":
		if len(e.Models) == 0 {
			return "", false
		}
		return strings.Join(e.Models, " "), true
	case "price":
		if !e.HasPrice {
			return "", false
		}
		return fmt.Sprintf("%.2f", e.Price), true
	case "version":
		if len(e.Versions) == 0 {
			return "", false
		}
		return strings.Join(e.Versions, " "), true
	case "variant", "capacity", "size", "license":
		if len(e.Variants) == 0 {
			return "", false
		}
		return strings.Join(e.Variants, " "), true
	case "color":
		if len(e.Colors) == 0 {
			return "", false
		}
		return strings.Join(e.Colors, " "), true
	case "edition":
		if len(e.Editions) == 0 {
			return "", false
		}
		return strings.Join(e.Editions, " "), true
	case "authors":
		if len(e.Authors) == 0 {
			return "", false
		}
		return strings.Join(e.Authors, " "), true
	case "conference", "journal", "venue":
		return e.Venue, e.Venue != ""
	case "year":
		if !e.HasYear {
			return "", false
		}
		return fmt.Sprintf("%d", e.Year), true
	default:
		return "", false
	}
}
