package dispatch

import (
	"context"

	"llm4em/internal/entity"
)

// Grouped dispatch: the compare/select strategies ("Match, Compare,
// or Select?", Wang et al.) answer all of a query's uncertain
// candidates in one prompt instead of k independent pair verdicts.
// A group rides the same multi-pair executor as a batch of two or more
// pairs (sendMulti), but is sent synchronously: a group is one
// query's candidate set, already complete when submitted, so there is
// nothing to wait for, and its one caller's context is the one its
// client calls run under.

// GroupSpec describes one grouped-prompt formulation: how to render a
// query's candidate pairs as a single prompt and how to read the
// per-pair verdicts back out of the reply. Parse must be strict —
// report ok only when the reply cleanly decides every pair — because
// a failed parse degrades the group to per-pair pairwise prompts
// rather than guessing at a partial mapping. Both functions must be
// pure and safe for concurrent use.
type GroupSpec struct {
	// Build renders the grouped prompt over the pairs. Every pair in a
	// group shares the same query record (pair.A).
	Build func(pairs []entity.Pair) string
	// Parse extracts one verdict per pair from the reply, in prompt
	// order.
	Parse func(answer string, n int) ([]bool, bool)
}

// DoGroupContext submits one query's uncertain pairs as a single
// grouped prompt and blocks until every pair is decided, returning
// results in input order. Pairs already answered by the per-pair
// prompt cache are served from it; the rest ride one grouped
// round-trip whose verdicts are seeded back into the per-pair cache. A
// reply the strict parser rejects falls back to individual per-pair
// prompts for the whole group. The context bounds the grouped
// round-trip and its fallbacks; the first error of any of them fails
// the whole group. Returns ErrClosed after Close.
func (d *Dispatcher) DoGroupContext(ctx context.Context, pairs []entity.Pair, spec GroupSpec) ([]Result, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	// Group calls are synchronous but must still be drained by Close.
	d.wg.Add(1)
	d.mu.Unlock()
	defer d.wg.Done()

	out := make([]Result, len(pairs))
	calls := make([]*call, len(pairs)) // nil where the cache answered
	var group []*call
	for i, p := range pairs {
		key := d.buildPair(p)
		if r, ok := d.peek(key); ok {
			out[i] = r
			continue
		}
		calls[i] = &call{pair: p, key: key}
		group = append(group, calls[i])
	}
	if len(group) == 0 {
		return out, nil
	}

	d.sendMulti(ctx, group, spec.Build, func(reply string, n int) ([]string, bool) {
		verdicts, ok := spec.Parse(reply, n)
		if !ok {
			return nil, false
		}
		answers := make([]string, n)
		for i, v := range verdicts {
			answers[i] = "No"
			if v {
				answers[i] = "Yes"
			}
		}
		return answers, true
	}, 0)
	for i, c := range calls {
		if c == nil {
			continue
		}
		if c.err != nil {
			return nil, c.err
		}
		out[i] = c.res
	}
	return out, nil
}
