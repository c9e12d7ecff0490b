package resolve

import (
	"fmt"

	"llm4em/internal/blocking"
	"llm4em/internal/persist"
)

// journal is a persistent store's decision journal: the newest verdict
// on every decided pair, left where it already is instead of decoded
// onto the heap. Decisions a checkpoint committed are EntryJournal
// frames in journal.log, read back (CRC-checked) and decoded when their
// query resolves again; decisions journaled since are the frames in
// delta, encoded for journal.log, which the next checkpoint appends.
// What stays resident is where each query's frames are: a map slot per
// query and 16 bytes per frame, whatever the decisions weigh. Guarded
// by persistMu.
type journal struct {
	log *persist.WAL // journal.log, extended by checkpoints only
	// newest maps a query to its newest frame, which links to the
	// query's earlier ones. It keys on the graph's copy of the query ID
	// (blocking.UnionFind.Intern), which pins no request body.
	newest map[string]int32
	// frames lists every frame, oldest first. The last len(delta) are
	// delta's, in order; the others are committed, in log at off.
	frames []frameRef
	delta  []persist.Entry
	// pairs counts the distinct decided pairs (PersistStats.JournalSize).
	pairs uint64
}

// frameRef locates one journal frame.
type frameRef struct {
	off  int64  // frame offset in journal.log, once committed
	size uint32 // payload bytes
	prev int32  // the query's previous frame, -1 for none
}

// load indexes journal.log's committed frames at Open and folds each
// into graph as applyResolve and applyRedecide fold live: the query
// joins, and each final match (not deferred) unions. Every frame is
// walked whole, so one that does not decode fails Open.
func (j *journal) load(entries []persist.Entry, graph *blocking.UnionFind) error {
	j.newest = make(map[string]int32, len(entries))
	j.frames = make([]frameRef, 0, len(entries))
	graph.Grow(len(entries))
	var matches []string // a frame's final matches
	var buf []byte       // WalkJournal's candidate IDs
	for _, e := range entries {
		if e.Type != persist.EntryJournal {
			return fmt.Errorf("%w: committed frame at %d has type %d", persist.ErrJournalTorn, e.Offset, e.Type)
		}
		n := 0
		matches = matches[:0]
		qb, grown, err := persist.WalkJournal(e.Payload, buf, func(c []byte, final bool) {
			if n++; final {
				matches = append(matches, graph.InternBytes(c))
			}
		})
		buf = grown
		q := graph.InternBytes(qb)
		if _, seen := j.newest[q]; err == nil && seen {
			// The query's earlier frames may have decided some of the
			// pairs: a redecided deferred pair is journaled twice.
			var ds []persist.DecisionEntry
			if _, ds, err = persist.DecodeJournal(e.Payload); err == nil {
				n, err = j.newPairs(q, ds)
			}
		}
		if err != nil {
			return fmt.Errorf("%w: committed frame at %d: %v", persist.ErrJournalTorn, e.Offset, err)
		}
		j.pairs += uint64(n)
		j.link(q, frameRef{off: e.Offset, size: uint32(len(e.Payload))})
		for _, c := range matches {
			graph.Union(q, c)
		}
	}
	return nil
}

// add journals a query's decisions as a new delta frame.
func (j *journal) add(query string, ds []persist.DecisionEntry) {
	n, err := j.newPairs(query, ds)
	if err != nil {
		// The query's earlier frames are unreadable, so its lookups fail
		// with ErrJournalTorn; count the new frame's pairs as new.
		n = len(ds)
	}
	j.pairs += uint64(n)
	e := persist.JournalFrame(query, ds)
	j.delta = append(j.delta, e)
	j.link(query, frameRef{size: uint32(len(e.Payload))})
}

// link makes f the query's newest frame.
func (j *journal) link(query string, f frameRef) {
	f.prev = -1
	if i, ok := j.newest[query]; ok {
		f.prev = i
	}
	j.newest[query] = int32(len(j.frames))
	j.frames = append(j.frames, f)
}

// committed rebases the delta frames onto journal.log once a checkpoint
// has appended and synced them: O(delta).
func (j *journal) committed() {
	base := len(j.frames) - len(j.delta)
	for i, e := range j.delta {
		j.frames[base+i].off = e.Offset
	}
	j.delta = nil
}

// newPairs counts the candidates of ds that none of the query's frames
// decided yet. A frame never names a candidate twice (one resolve
// decides each candidate once), so a query's first frame adds all.
func (j *journal) newPairs(query string, ds []persist.DecisionEntry) (int, error) {
	if _, seen := j.newest[query]; !seen {
		return len(ds), nil
	}
	decided := map[string]bool{}
	err := j.each(query, func(old []persist.DecisionEntry) bool {
		for _, d := range old {
			decided[d.CandidateID] = true
		}
		return true
	})
	n := 0
	for _, d := range ds {
		if !decided[d.CandidateID] {
			decided[d.CandidateID] = true
			n++
		}
	}
	return n, err
}

// each decodes the query's frames newest first, passing each one's
// decisions to yield until it returns false. A never-journaled query
// costs one map miss. A committed frame that fails its checksum, or any
// frame that does not decode as the query's, fails with an error that
// wraps persist.ErrJournalTorn.
func (j *journal) each(query string, yield func([]persist.DecisionEntry) bool) error {
	for i, ok := j.newest[query]; ok && i >= 0; i = j.frames[i].prev {
		q, ds, err := j.decode(i)
		if err == nil && q != query {
			err = fmt.Errorf("%w: its frame names query %q", persist.ErrJournalTorn, q)
		}
		if err != nil {
			return fmt.Errorf("resolve: journal of query %q: %w", query, err)
		}
		if !yield(ds) {
			return nil
		}
	}
	return nil
}

// decode reads frame i back — from journal.log or from the delta — and
// decodes it.
func (j *journal) decode(i int32) (string, []persist.DecisionEntry, error) {
	var payload []byte
	if c := len(j.frames) - len(j.delta); int(i) >= c {
		payload = j.delta[int(i)-c].Payload
	} else {
		f := j.frames[i]
		e, err := j.log.ReadEntry(f.off, int(f.size))
		if err != nil {
			return "", nil, err
		}
		if e.Type != persist.EntryJournal {
			return "", nil, fmt.Errorf("%w: frame at %d has type %d", persist.ErrJournalTorn, f.off, e.Type)
		}
		payload = e.Payload
	}
	q, ds, err := persist.DecodeJournal(payload)
	if err != nil {
		err = fmt.Errorf("%w: %v", persist.ErrJournalTorn, err)
	}
	return q, ds, err
}

// decided returns the newest journaled decision on the pair.
func (j *journal) decided(query, candidate string) (d persist.DecisionEntry, ok bool, err error) {
	err = j.each(query, func(ds []persist.DecisionEntry) bool {
		for k := len(ds) - 1; k >= 0; k-- {
			if ds[k].CandidateID == candidate {
				d, ok = ds[k], true
				return false
			}
		}
		return true
	})
	return d, ok, err
}
