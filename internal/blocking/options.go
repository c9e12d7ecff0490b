package blocking

// IndexOptions configures an index — BuildIndex and OpenFS consume
// it. The zero value selects the default; a set pointer — including
// Float(0) — is taken literally.
type IndexOptions struct {
	// StopDocFrac is the stop-token document-frequency fraction:
	// tokens occurring in more than this fraction of the records (and
	// in at least 5 of them) are skipped when scoring. nil selects the
	// default 0.2; Float(0) treats every token above the absolute
	// floor as a stop token (a negative value clamps to zero); values
	// >= 1 disable the filter.
	StopDocFrac *float64
}

// Float returns a pointer to v — the set form of StopDocFrac:
// opts.StopDocFrac = blocking.Float(0) requests a literal zero where
// nil would select the default.
func Float(v float64) *float64 { return &v }

// DefaultMinScore is the candidate score floor — the minimum summed
// IDF weight — that the resolve store applies (QueryTokens takes the
// floor per call). DefaultStopDocFrac is what a nil
// StopDocFrac selects.
const (
	DefaultMinScore    = 1.0
	DefaultStopDocFrac = 0.2
)

func (o IndexOptions) stopDocFrac() float64 {
	if o.StopDocFrac == nil {
		return DefaultStopDocFrac
	}
	return max(*o.StopDocFrac, 0)
}
