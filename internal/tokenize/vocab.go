package tokenize

// Vocab interns token strings into dense uint32 IDs, so hot paths can
// carry token identity as integers instead of re-hashing strings.
// IDs are assigned in first-seen order, starting at zero, and are
// never reused, which makes them safe to use as indexes into parallel
// slices (postings lists, IDF tables). A Vocab holds no tokenizer:
// callers split text with a Scanner (or Words) and intern or look up
// each token, which lets the blocking index probe its base's token
// table first: Add scans and interns bytes, queries look up the
// strings of Words.
//
// A Vocab is not safe for concurrent mutation: guard IDBytes against
// concurrent use the same way the owning index guards its postings.
// The read-only methods (Lookup, Token, Len) are safe to call
// concurrently with each other.
type Vocab struct {
	ids  map[string]uint32
	toks []string
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{ids: map[string]uint32{}}
}

// Len returns the number of interned tokens.
func (v *Vocab) Len() int { return len(v.toks) }

// Token returns the token string of an ID.
func (v *Vocab) Token(id uint32) string { return v.toks[id] }

// Lookup returns the ID of a token without interning it.
func (v *Vocab) Lookup(tok string) (uint32, bool) {
	id, ok := v.ids[tok]
	return id, ok
}

// IDBytes interns a token given as bytes (as a Scanner yields them)
// and returns its dense ID, assigning the next free one on first
// sight; only then does it allocate the token's string. Mutation path:
// callers must serialize it with each other.
func (v *Vocab) IDBytes(tok []byte) uint32 {
	if id, ok := v.ids[string(tok)]; ok { // no-alloc map probe
		return id
	}
	id := uint32(len(v.toks))
	t := string(tok)
	v.toks = append(v.toks, t)
	v.ids[t] = id
	return id
}
