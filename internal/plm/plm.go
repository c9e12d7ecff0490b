// Package plm simulates the fine-tuned PLM baselines of the study:
// a RoBERTa-base cross-encoder matcher and the Ditto matching system
// (RoBERTa plus data augmentation and domain-knowledge injection).
//
// The simulation is a trainable linear classifier over hashed lexical
// cross-features of the serialized pair — token agreements and
// one-sided tokens — plus a few coarse similarity buckets. This
// mirrors the inductive behaviour the paper attributes to PLM
// matchers: with task-specific training data they fit the entities of
// the training distribution closely (high in-domain F1), but because
// most of their capacity is bound to vocabulary identity, they
// degrade sharply on out-of-distribution entities (the "unseen" rows
// of Table 4).
package plm

import (
	"fmt"
	"strings"

	"llm4em/internal/detrand"
	"llm4em/internal/entity"
	"llm4em/internal/eval"
	"llm4em/internal/features"
	"llm4em/internal/textsim"
	"llm4em/internal/tokenize"
)

// Variant selects the baseline flavour.
type Variant int

// The two PLM baselines of the paper.
const (
	RoBERTa Variant = iota
	Ditto
)

// String returns the baseline name used in the tables.
func (v Variant) String() string {
	if v == Ditto {
		return "Ditto"
	}
	return "RoBERTa"
}

// hashDims is the size of the hashed feature space.
const hashDims = 1 << 18

// Model is a trainable PLM-style matcher. Construct with New, train
// with Train, then Predict or Evaluate.
type Model struct {
	variant   Variant
	w         []float32
	bias      float32
	threshold float64
	trained   bool
	// TrainedOn records the dataset key used for fine-tuning.
	TrainedOn string
}

// New returns an untrained matcher of the given variant.
func New(v Variant) *Model {
	return &Model{variant: v, w: make([]float32, hashDims), threshold: 0.5}
}

// Options configures training.
type Options struct {
	// Epochs of SGD; the default is 8.
	Epochs int
	// LearningRate for SGD; the default is 0.10.
	LearningRate float64
}

// DefaultOptions returns the standard training configuration.
func DefaultOptions() Options { return Options{Epochs: 14, LearningRate: 0.14} }

// Train fits the matcher on labelled pairs (the paper fine-tunes on
// the respective development sets). datasetKey is recorded for
// reporting.
func (m *Model) Train(pairs []entity.Pair, datasetKey string, opts Options) {
	if opts.Epochs <= 0 {
		opts.Epochs = DefaultOptions().Epochs
	}
	if opts.LearningRate <= 0 {
		opts.LearningRate = DefaultOptions().LearningRate
	}
	var pos, neg float64
	for _, p := range pairs {
		if p.Match {
			pos++
		} else {
			neg++
		}
	}
	posWeight := 1.0
	if pos > 0 {
		posWeight = neg / pos
	}

	rng := detrand.New("plm-train", m.variant.String(), datasetKey)
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	// Only Ditto's token dropout makes a pair's features differ from
	// epoch to epoch: RoBERTa's are computed once, and Ditto's word lists
	// once, each epoch redrawing the dropout and the cross features.
	var fixed [][]feature
	var words [][2][]string
	for _, p := range pairs {
		ta, tb := m.words(p)
		if m.variant == Ditto {
			words = append(words, [2][]string{ta, tb})
		} else {
			fixed = append(fixed, crossFeatures(ta, tb))
		}
	}
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		lr := opts.LearningRate / (1 + 0.3*float64(epoch))
		detrand.Shuffle(rng, order)
		for _, idx := range order {
			p := pairs[idx]
			var feats []feature
			if fixed != nil {
				feats = fixed[idx]
			} else {
				// Token dropout is Ditto's training-time augmentation,
				// which regularizes the lexical features toward
				// corner-case robustness.
				ta := dropout(words[idx][0], rng, 0.13)
				tb := dropout(words[idx][1], rng, 0.13)
				feats = crossFeatures(ta, tb)
			}
			prob := m.probability(feats)
			target, sampleWeight := 0.0, 1.0
			if p.Match {
				target, sampleWeight = 1, posWeight
			}
			grad := float32(sampleWeight * (prob - target) * lr)
			for _, f := range feats {
				m.w[f.idx] -= grad * f.val
			}
			m.bias -= grad
		}
		// L2 weight decay keeps the hashed weights bounded.
		decay := float32(1 - 0.002)
		for i := range m.w {
			m.w[i] *= decay
		}
	}
	m.trained = true
	m.TrainedOn = datasetKey
}

// Predict returns the matcher's decision for a pair. It panics if the
// model has not been trained, mirroring a PLM that cannot match
// without fine-tuning.
func (m *Model) Predict(p entity.Pair) bool {
	if !m.trained {
		panic("plm: Predict called on untrained model")
	}
	return m.probability(crossFeatures(m.words(p))) > m.threshold
}

// FitThreshold tunes the decision threshold to maximize F1 on a
// validation set — the model-selection step PLM matchers such as
// Ditto perform on their development split. The fitted threshold is
// part of what fails to transfer to unseen datasets.
func (m *Model) FitThreshold(val []entity.Pair) {
	if !m.trained || len(val) == 0 {
		return
	}
	type scored struct {
		prob  float64
		match bool
	}
	all := make([]scored, len(val))
	for i, p := range val {
		all[i] = scored{m.probability(crossFeatures(m.words(p))), p.Match}
	}
	best, bestT := -1.0, 0.5
	for i := 1; i < 20; i++ {
		t := float64(i) / 20
		var c eval.Confusion
		for _, s := range all {
			c.Add(s.match, s.prob > t)
		}
		if f := c.F1(); f > best {
			best, bestT = f, t
		}
	}
	m.threshold = bestT
}

// Evaluate scores the matcher over a pair set.
func (m *Model) Evaluate(pairs []entity.Pair) eval.Confusion {
	var c eval.Confusion
	for _, p := range pairs {
		c.Add(p.Match, m.Predict(p))
	}
	return c
}

// feature is one hashed feature with its value.
type feature struct {
	idx uint64
	val float32
}

// words returns the word tokens of a pair's two serialized records.
func (m *Model) words(p entity.Pair) (ta, tb []string) {
	sa, sb := p.A.Serialize(), p.B.Serialize()
	if m.variant == Ditto {
		// Domain-knowledge injection: normalize identifiers and
		// numbers before tokenization.
		sa, sb = dkNormalize(sa), dkNormalize(sb)
	}
	return tokenize.Words(sa), tokenize.Words(sb)
}

// crossFeatures renders a pair's word tokens into hashed lexical
// cross-features. It only reads ta and tb.
func crossFeatures(ta, tb []string) []feature {
	var feats []feature
	add := func(val float32, parts ...string) {
		feats = append(feats, feature{idx: detrand.Hash64(parts...) % hashDims, val: val})
	}

	// Token cross features over the subword view: each word token is
	// kept whole and mixed alphanumerics are additionally split at
	// letter/digit boundaries, approximating BPE so that "dsc-120b"
	// and "dsc120b" share pieces. Digit-bearing tokens (identifiers)
	// carry extra attention weight; bare two-digit price fragments are
	// down-weighted because they disagree even between matching
	// offers.
	setA, setB := tokenize.Set(subwordView(ta)), tokenize.Set(subwordView(tb))
	tokenValue := func(t string) float32 {
		switch {
		case tokenize.HasDigit(t) && tokenize.HasLetter(t):
			return 2.2
		case tokenize.HasDigit(t) && len(t) >= 3:
			return 1.6
		case tokenize.HasDigit(t):
			return 0.6
		default:
			return 1
		}
	}
	for t := range setA {
		if setB[t] {
			add(tokenValue(t), "eq", t)
		} else {
			add(tokenValue(t), "only", t)
		}
	}
	for t := range setB {
		if !setA[t] {
			add(tokenValue(t), "only", t)
		}
	}

	// Identifier-agreement summary over digit pieces. These count
	// features generalize within the product domain — the reason
	// product-to-product PLM transfer degrades less than cross-domain
	// transfer in Table 4.
	pa, pb := tokenize.Set(digitPieces(ta)), tokenize.Set(digitPieces(tb))
	eqID, onlyID := 0, 0
	for t := range pa {
		if pb[t] {
			eqID++
		} else {
			onlyID++
		}
	}
	for t := range pb {
		if !pa[t] {
			onlyID++
		}
	}
	// The identifier-agreement summary is folded into the per-token
	// bucket features at low weight: PLM cross-encoders do not learn a
	// clean dataset-independent "identifier conflict" abstraction, so
	// most of their corner-case competence stays tied to the training
	// vocabulary.
	add(0.3, "eq-id-count", bucket(float64(min(eqID, 3))/3, 4))
	add(0.3, "only-id-count", bucket(float64(min(onlyID, 3))/3, 4))

	// Bigram cross features densify entity memorization: recurring
	// training entities are recognized by their characteristic word
	// pairs ("photoshop elements", "stan smith").
	ba, bb := tokenize.Set(bigrams(ta)), tokenize.Set(bigrams(tb))
	for t := range ba {
		if bb[t] {
			add(0.5, "eq2", t)
		} else {
			add(0.45, "only2", t)
		}
	}
	for t := range bb {
		if !ba[t] {
			add(0.45, "only2", t)
		}
	}

	// Coarse similarity buckets: transferable but too coarse to
	// separate corner cases on their own.
	j := textsim.Jaccard(ta, tb)
	add(1, "jac-bucket", bucket(j, 4))
	ov := textsim.Overlap(ta, tb)
	add(1, "ovl-bucket", bucket(ov, 4))
	return feats
}

func bucket(x float64, n int) string {
	b := int(x * float64(n))
	if b >= n {
		b = n - 1
	}
	if b < 0 {
		b = 0
	}
	return fmt.Sprintf("%d", b)
}

// subwordView keeps every token whole and appends the letter/digit
// boundary pieces of mixed alphanumeric tokens.
func subwordView(tokens []string) []string {
	out := make([]string, 0, 2*len(tokens))
	for _, w := range tokens {
		out = append(out, w)
		if !tokenize.HasDigit(w) || !tokenize.HasLetter(w) {
			continue
		}
		start := 0
		prevDigit := w[0] >= '0' && w[0] <= '9'
		for i := 1; i <= len(w); i++ {
			isDigit := i < len(w) && w[i] >= '0' && w[i] <= '9'
			if i == len(w) || isDigit != prevDigit {
				out = append(out, w[start:i])
				start = i
				prevDigit = isDigit
			}
		}
	}
	return out
}

// digitPieces extracts the digit runs of length >= 2 from mixed
// alphanumeric tokens, approximating the BPE pieces shared between
// "dsc-120b" and "dsc120b".
func digitPieces(tokens []string) []string {
	var out []string
	for _, w := range tokens {
		if !tokenize.HasDigit(w) || !tokenize.HasLetter(w) {
			continue
		}
		start := -1
		for i := 0; i <= len(w); i++ {
			isDigit := i < len(w) && w[i] >= '0' && w[i] <= '9'
			switch {
			case isDigit && start < 0:
				start = i
			case !isDigit && start >= 0:
				if i-start >= 2 {
					out = append(out, w[start:i])
				}
				start = -1
			}
		}
	}
	return out
}

// bigrams returns adjacent token pairs joined with a blank.
func bigrams(tokens []string) []string {
	if len(tokens) < 2 {
		return nil
	}
	out := make([]string, 0, len(tokens)-1)
	for i := 0; i+1 < len(tokens); i++ {
		out = append(out, tokens[i]+" "+tokens[i+1])
	}
	return out
}

func dropout(tokens []string, rng *detrand.RNG, p float64) []string {
	out := tokens[:0:0]
	for _, t := range tokens {
		if !rng.Bool(p) {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return tokens
	}
	return out
}

// dkNormalize applies Ditto-style domain-knowledge injection: strip
// separators inside alphanumeric identifiers and truncate decimal
// values to their integer part, so that "DSC-120B" and "dsc120b", or
// "348.00" and "348.50", featurize identically.
func dkNormalize(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		if tokenize.HasDigit(w) && tokenize.HasLetter(w) {
			words[i] = strings.Map(func(r rune) rune {
				if r == '-' || r == '/' {
					return -1
				}
				return r
			}, w)
		} else if dot := strings.IndexByte(w, '.'); dot > 0 && tokenize.IsNumeric(w) {
			words[i] = w[:dot]
		}
	}
	return strings.Join(words, " ")
}

func (m *Model) probability(feats []feature) float64 {
	score := float64(m.bias)
	for _, f := range feats {
		score += float64(m.w[f.idx] * f.val)
	}
	return features.Sigmoid(score)
}
