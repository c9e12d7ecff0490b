package blocking

// IndexOptions configures the blocking layer — BuildIndex, OpenMapped,
// the TokenBlocker and the resolve store all consume it. The zero
// value selects every default: a nil threshold means "the package
// default", a set pointer — including Float(0) — is taken literally.
type IndexOptions struct {
	// MinScore is the minimum summed IDF weight for a candidate. The
	// TokenBlocker and the resolve store apply it (Index.Query takes
	// the floor per call). nil selects the default 1.0; Float(0)
	// accepts any positive token overlap.
	MinScore *float64
	// StopDocFrac is the stop-token document-frequency fraction:
	// tokens occurring in more than this fraction of the records (and
	// in at least 5 of them) are skipped when scoring. nil selects the
	// default 0.2; Float(0) treats every token above the absolute
	// floor as a stop token; values >= 1 disable the filter.
	StopDocFrac *float64
}

// Float returns a pointer to v — the set form of the IndexOptions
// threshold fields: opts.MinScore = blocking.Float(0) requests a
// literal zero where nil would select the default.
func Float(v float64) *float64 { return &v }

// Defaults the threshold fields select when nil.
const (
	DefaultMinScore    = 1.0
	DefaultStopDocFrac = 0.2
)

// EffectiveMinScore is the candidate score floor the options select:
// the default for nil, zero for a negative value.
func (o IndexOptions) EffectiveMinScore() float64 { return threshold(o.MinScore, DefaultMinScore) }

func (o IndexOptions) stopDocFrac() float64 { return threshold(o.StopDocFrac, DefaultStopDocFrac) }

// threshold is the one nil/negative resolution rule of the layer.
func threshold(v *float64, def float64) float64 {
	if v == nil {
		return def
	}
	if *v < 0 {
		return 0
	}
	return *v
}
