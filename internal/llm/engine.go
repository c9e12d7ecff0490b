package llm

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"llm4em/internal/detrand"
	"llm4em/internal/entity"
	"llm4em/internal/features"
	"llm4em/internal/tokenize"
)

// Adapter holds the state of a fine-tuned model variant: the fitted
// decision weights and the dataset it was trained on (Section 4.3).
type Adapter struct {
	// Weights replaces the model's innate matching weighting.
	Weights features.Weights
	// TrainedOn is the dataset key the adapter was fitted on.
	TrainedOn string
}

// Model is one simulated LLM. The zero value is unusable; construct
// with New or NewFineTuned.
type Model struct {
	profile     Profile
	adapter     *Adapter
	temperature float64
}

// New returns the simulated model with the given table name
// ("GPT-4", "Llama3.1", ...).
func New(name string) (*Model, error) {
	p, ok := ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("llm: unknown model %q", name)
	}
	return &Model{profile: p}, nil
}

// MustNew is New for known-good names; it panics on error.
func MustNew(name string) *Model {
	m, err := New(name)
	if err != nil {
		panic(err)
	}
	return m
}

// NewFineTuned returns a fine-tuned variant of the model carrying the
// given adapter.
func NewFineTuned(name string, adapter Adapter) (*Model, error) {
	m, err := New(name)
	if err != nil {
		return nil, err
	}
	m.adapter = &adapter
	return m, nil
}

// WithTemperature returns a copy of the model sampling at the given
// temperature. The study fixes temperature to 0 "to reduce
// randomness" (Section 2); positive temperatures add
// deterministically seeded sampling noise to the decision, modelling
// what the paper avoids. Temperatures are clamped to [0, 2].
func (m *Model) WithTemperature(t float64) *Model {
	cp := *m
	cp.temperature = clamp(t, 0, 2)
	return &cp
}

// Temperature returns the model's sampling temperature.
func (m *Model) Temperature() float64 { return m.temperature }

// Name returns the model's table name; fine-tuned variants append the
// training dataset ("GPT-mini-ft-wdc").
func (m *Model) Name() string {
	if m.adapter != nil {
		return m.profile.Name + "-ft-" + m.adapter.TrainedOn
	}
	return m.profile.Name
}

// Profile returns the model's capability profile.
func (m *Model) Profile() Profile { return m.profile }

// FineTuned reports whether the model carries a fine-tuning adapter.
func (m *Model) FineTuned() bool { return m.adapter != nil }

// Chat implements Client. It dispatches on the kind of the last user
// message: matching decision, structured explanation, error-class
// synthesis, or error assignment.
func (m *Model) Chat(messages []Message) (Response, error) {
	last := lastUserMessage(messages)
	if last == "" {
		return Response{}, ErrEmptyConversation
	}
	var content string
	switch classifyPrompt(last) {
	case KindExplain:
		content = m.explain(messages)
	case KindErrorClasses:
		content = m.answerErrorClasses(last)
	case KindErrorAssign:
		content = m.answerErrorAssign(last)
	case KindRuleLearn:
		content = m.answerRuleLearn(last)
	case KindBatchMatch:
		content = m.answerBatch(last)
	case KindCompare:
		content = m.answerCompare(last)
	case KindSelect:
		content = m.answerSelect(last)
	case KindReason:
		content = m.answerReason(parseMatchPrompt(last))
	default:
		pp := parseMatchPrompt(last)
		d := m.decide(pp)
		content = m.respond(pp, d)
	}
	promptTokens := 0
	for _, msg := range messages {
		promptTokens += tokenize.EstimateTokens(msg.Content)
	}
	completion := tokenize.EstimateTokens(content)
	return Response{
		Content:          content,
		PromptTokens:     promptTokens,
		CompletionTokens: completion,
		Latency:          m.latency(promptTokens, completion),
	}, nil
}

func lastUserMessage(messages []Message) string {
	for i := len(messages) - 1; i >= 0; i-- {
		if messages[i].Role == User {
			return messages[i].Content
		}
	}
	return ""
}

func firstUserMessage(messages []Message) string {
	for _, msg := range messages {
		if msg.Role == User {
			return msg.Content
		}
	}
	return ""
}

// decision is the internal outcome of reading one matching prompt.
type decision struct {
	yes     bool
	logit   float64
	vector  features.Vector
	present features.Presence
	weights features.Weights
	extA    features.Extracted
	extB    features.Extracted
}

// decide runs the model's matching pipeline on a parsed prompt.
func (m *Model) decide(pp ParsedPrompt) decision {
	extA, extB := extractCached(pp.QueryA), extractCached(pp.QueryB)
	v, pres := features.PairFeatures(extA, extB)
	w := m.baseWeights()

	// In-context learning (Section 4.1): demonstrations shift the
	// model's weighting toward (or, for models that demonstrations
	// confuse, away from) the ideal reference; related demonstrations
	// help models that can transfer patterns from closely similar
	// examples.
	quality := 0.0
	calibration := 0.0
	if n := len(pp.Demos); n > 0 && m.adapter == nil {
		quality = m.profile.ICLGain * math.Log1p(float64(n)) / math.Log1p(10)
		if m.profile.ICLRelatedBonus > 0 {
			rel := meanDemoSimilarity(pp.Demos, pp.QueryA+" "+pp.QueryB)
			quality += m.profile.ICLRelatedBonus * rel
		}
		if quality >= 0 {
			w = features.Blend(w, features.Ideal(), clamp(quality, 0, 0.9))
		} else {
			w = features.Blend(w, features.TitleOnly(), clamp(-quality, 0, 0.6))
		}
		// Threshold calibration: the model scores the demonstrations
		// with its own weighting and moves its decision boundary
		// toward the midpoint that separates their labels. This is how
		// demonstration *content* matters: related demonstrations
		// calibrate the boundary in the query's own neighbourhood.
		var posSum, negSum float64
		var posN, negN int
		for _, d := range pp.Demos {
			ea, eb := extractCached(d.A), extractCached(d.B)
			dv, dp := features.PairFeatures(ea, eb)
			sc := w.Score(dv, dp)
			if d.Match {
				posSum += sc
				posN++
			} else {
				negSum += sc
				negN++
			}
		}
		if posN > 0 && negN > 0 {
			mid := (posSum/float64(posN) + negSum/float64(negN)) / 2
			lambda := clamp(0.35+0.6*quality, 0.1, 0.8)
			if quality < 0 {
				// Confused models barely use the calibration signal.
				lambda = 0.1
			}
			calibration = -lambda * mid
		}
	}

	// Matching rules (Section 4.2): models adopt the attribute
	// weighting the rules express in proportion to their rule
	// utilisation.
	conjunctive := false
	var ruleFeats []features.Feature
	if len(pp.Rules) > 0 && m.adapter == nil {
		var rw features.Weights
		rw, ruleFeats = ruleWeights(pp.Rules)
		if m.profile.RuleUtilization > 0 {
			w = features.Blend(w, rw, m.profile.RuleUtilization)
		}
		conjunctive = detrand.Unit(m.profile.Name, "rule-conjunctive", pp.Task, pp.QueryA) < m.profile.RuleConjunctive
	}

	score := w.Score(v, pres) + calibration

	// Prompt-design sensitivity (Section 3): each (model, prompt
	// wording) combination induces a deterministic threshold shift;
	// demonstrations and rules ground the task and damp the shift.
	shift := 1.3 * m.profile.PromptSensitivity * detrand.Signed(m.profile.Name, "prompt-shift", pp.Task, formatKey(pp))
	if pp.SimpleWording {
		shift -= m.profile.SimpleWordingPenalty * (0.4 + 0.6*detrand.Unit(m.profile.Name, "simple-penalty", pp.Task))
	}
	grounding := clamp(0.18*float64(len(pp.Demos)), 0, 0.8)
	if len(pp.Rules) > 0 {
		grounding = clamp(grounding+0.5, 0, 0.85)
	}
	if m.adapter != nil {
		grounding = 0.95 // fine-tuned on exactly this prompt shape
	}
	shift *= 1 - grounding

	// Per-pair decision noise; calibration quality from demonstrations
	// tightens it, confusion widens it.
	noise := m.profile.NoiseSigma * detrand.Gauss(m.profile.Name, "pair-noise", pp.QueryA, pp.QueryB)
	if m.adapter != nil {
		noise *= m.profile.FTNoiseScale
	}
	switch {
	case quality > 0:
		noise *= 1 - 0.4*clamp(quality, 0, 1)
	case quality < 0:
		noise *= 1 + 0.8*clamp(-quality, 0, 1)
	}

	// Sampling temperature (Section 2): the study runs at 0; positive
	// temperatures add sampling noise on top of the model's intrinsic
	// decision noise.
	if m.temperature > 0 {
		noise += m.temperature * 0.8 * detrand.Gauss(m.profile.Name, "temperature", pp.QueryA, pp.QueryB)
	}

	logit := score + shift + noise
	yes := logit > 0
	if yes && conjunctive {
		yes = conjunctiveHolds(v, pres, ruleFeats)
	}
	return decision{yes: yes, logit: logit, vector: v, present: pres, weights: w, extA: extA, extB: extB}
}

// extractCacheCap bounds the extraction memo: a serving process sees an
// endless stream of distinct descriptions, and what recurs — a
// prompt's demonstrations, the query of a resolve's candidate pairs —
// recurs within a few prompts.
const extractCacheCap = 2048

// extractCache memoizes feature extraction of serialized entity
// descriptions: demonstrations and query pairs recur across prompts,
// models and experiment configurations, and extraction is pure (a miss
// costs time, never a different answer). It holds two generations of
// at most extractCacheCap/2 entries: a hit in the old one is promoted,
// and when the current one is full the old one is dropped.
var extractCache struct {
	sync.Mutex
	cur, old map[string]features.Extracted
}

func extractCached(s string) features.Extracted {
	c := &extractCache
	c.Lock()
	e, ok := c.cur[s]
	if !ok {
		if e, ok = c.old[s]; ok {
			putExtractedLocked(e)
		}
	}
	c.Unlock()
	if ok {
		return e
	}
	// Descriptions arrive as substrings of prompts: extracting from a
	// clone keeps a cached entry from pinning the whole prompt.
	e = features.ExtractText(strings.Clone(s))
	c.Lock()
	putExtractedLocked(e)
	c.Unlock()
	return e
}

// putExtractedLocked files an extraction under its own (cloned) text
// in the current generation, starting a new one when that is full.
func putExtractedLocked(e features.Extracted) {
	c := &extractCache
	if c.cur == nil || len(c.cur) >= extractCacheCap/2 {
		c.cur, c.old = make(map[string]features.Extracted, extractCacheCap/2), c.cur
	}
	c.cur[e.Raw] = e
}

// baseWeights returns the model's innate (or fine-tuned) weighting.
func (m *Model) baseWeights() features.Weights {
	if m.adapter != nil {
		return m.adapter.Weights
	}
	return features.Blend(features.TitleOnly(), features.Ideal(), m.profile.WeightFidelity)
}

// formatKey distinguishes prompt shapes for the sensitivity hash.
func formatKey(pp ParsedPrompt) string {
	k := "free"
	if pp.Force {
		k = "force"
	}
	if len(pp.Demos) > 0 {
		k += "+demos"
	}
	if len(pp.Rules) > 0 {
		k += "+rules"
	}
	return k
}

// meanDemoSimilarity measures how related the demonstrations are to
// the query pair (Generalized-Jaccard token overlap of serialized
// strings), in [0, 1].
func meanDemoSimilarity(demos []Demo, query string) float64 {
	if len(demos) == 0 {
		return 0
	}
	qTokens := tokenize.Words(query)
	total := 0.0
	for _, d := range demos {
		dTokens := tokenize.Words(d.A + " " + d.B)
		total += jaccard(qTokens, dTokens)
	}
	return total / float64(len(demos))
}

func jaccard(a, b []string) float64 {
	sa := map[string]bool{}
	for _, t := range a {
		sa[t] = true
	}
	sb := map[string]bool{}
	for _, t := range b {
		sb[t] = true
	}
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// ruleFeatureMentions maps rule keywords to feature dimensions.
var ruleFeatureMentions = []struct {
	keyword string
	feat    features.Feature
	weight  float64
	center  float64
}{
	{"brand", features.BrandMatch, 1.2, 0.85},
	{"manufacturer", features.BrandMatch, 1.2, 0.85},
	{"model", features.ModelMatch, 6.0, 0.80},
	{"version", features.VersionMatch, 5.0, 0.76},
	{"edition", features.EditionMatch, 2.6, 0.72},
	{"price", features.PriceMatch, 1.2, 0.76},
	{"title", features.TitleGenJaccard, 2.6, 0.62},
	{"name", features.TitleGenJaccard, 2.6, 0.62},
	{"author", features.AuthorMatch, 2.6, 0.84},
	{"venue", features.VenueMatch, 2.4, 0.74},
	{"journal", features.VenueMatch, 2.4, 0.74},
	{"conference", features.VenueMatch, 2.4, 0.74},
	{"year", features.YearMatch, 2.6, 0.84},
	{"capacity", features.VariantMatch, 2.2, 0.72},
	{"color", features.VariantMatch, 2.2, 0.72},
	{"variant", features.VariantMatch, 2.2, 0.72},
}

// ruleWeights converts textual rules into a weighting over the
// feature dimensions they mention, plus mild title/overall terms so
// the weighting remains usable when a mentioned attribute is missing.
func ruleWeights(rules []string) (features.Weights, []features.Feature) {
	var w features.Weights
	text := strings.ToLower(strings.Join(rules, " "))
	var mentioned []features.Feature
	seen := map[features.Feature]bool{}
	for _, rm := range ruleFeatureMentions {
		if strings.Contains(text, rm.keyword) && !seen[rm.feat] {
			w.W[rm.feat] = rm.weight
			w.Center[rm.feat] = rm.center
			mentioned = append(mentioned, rm.feat)
			seen[rm.feat] = true
		}
	}
	// Baseline terms: rules implicitly assume overall correspondence.
	if w.W[features.TitleGenJaccard] == 0 {
		w.W[features.TitleGenJaccard] = 1.8
		w.Center[features.TitleGenJaccard] = 0.60
	}
	w.W[features.OverallJaccard] = 1.0
	w.Center[features.OverallJaccard] = 0.48
	w.Bias = -0.05
	return w, mentioned
}

// conjunctiveHolds is the strict misreading of rules: every mentioned
// feature that is present must individually look like a match.
func conjunctiveHolds(v features.Vector, p features.Presence, mentioned []features.Feature) bool {
	for _, f := range mentioned {
		if p[f] && v[f] < 0.82 {
			return false
		}
	}
	return true
}

// latency computes the simulated request duration.
func (m *Model) latency(promptTokens, completionTokens int) time.Duration {
	if m.adapter != nil && m.profile.LatFineTuned > 0 {
		return time.Duration(m.profile.LatFineTuned * float64(time.Second))
	}
	secs := m.profile.LatBase +
		m.profile.LatPerIn*float64(promptTokens) +
		m.profile.LatPerOut*float64(completionTokens)
	return time.Duration(secs * float64(time.Second))
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// domainOf guesses the topical domain of the query pair.
func (d decision) domain() entity.Domain {
	if d.extA.Domain == entity.Publication || d.extB.Domain == entity.Publication {
		return entity.Publication
	}
	return entity.Product
}
