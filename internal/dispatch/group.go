package dispatch

import (
	"context"
	"fmt"

	"llm4em/internal/entity"
	"llm4em/internal/pipeline"
	"llm4em/internal/prompt"
)

// Grouped dispatch: the compare/select strategies ("Match, Compare,
// or Select?", Wang et al.) answer all of a query's uncertain
// candidates in one prompt instead of k independent pair verdicts.
// The group path mirrors the batch path's contract — per-pair cache
// layering, strict parse, per-pair pairwise fallback — but flushes
// synchronously: a group is one query's candidate set, already
// complete when submitted, so there is nothing to wait for, and its
// one caller's context is the one its client calls run under.

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
	keys := make([]string, len(pairs))
	var remaining []int
	for i, p := range pairs {
		keys[i] = d.buildPair(p)
		if resp, ok := d.eng.Peek(keys[i]); ok {
			d.stats.cacheHits.Add(1)
			out[i] = Result{
				Match:  prompt.ParseAnswer(resp.Content),
				Answer: resp.Content,
				Usage:  resp,
				Cached: true,
			}
			continue
		}
		remaining = append(remaining, i)
	}
	if len(remaining) == 0 {
		return out, nil
	}

	group := make([]entity.Pair, len(remaining))
	for j, i := range remaining {
		group[j] = pairs[i]
	}
	resp, groupCached, err := d.eng.CompleteContext(ctx, spec.Build(group))
	if err != nil {
		return nil, fmt.Errorf("dispatch: group of %d: %w", len(group), err)
	}

	verdicts, ok := spec.Parse(resp.Content, len(group))
	if !ok {
		// The reply did not cleanly decide every pair — degrade the
		// whole group to individual per-pair prompts, exactly like a
		// failed batch parse.
		errs := make([]error, len(remaining))
		_ = pipeline.ForEach(len(remaining), d.eng.Workers(), func(j int) error {
			i := remaining[j]
			presp, pcached, perr := d.eng.CompleteContext(ctx, keys[i])
			if perr != nil {
				errs[j] = fmt.Errorf("dispatch: pair %s: %w", pairs[i].ID, perr)
				return nil
			}
			out[i] = Result{
				Match:    prompt.ParseAnswer(presp.Content),
				Answer:   presp.Content,
				Usage:    presp,
				Cached:   pcached,
				FellBack: true,
			}
			return nil
		})
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return out, nil
	}

	shares := splitUsage(resp, len(group))
	for j, i := range remaining {
		answer := "No"
		if verdicts[j] {
			answer = "Yes"
		}
		out[i] = Result{
			Match:     verdicts[j],
			Answer:    answer,
			Usage:     shares[j],
			Cached:    groupCached,
			Grouped:   true,
			GroupSize: len(group),
		}
		// Seed the per-pair prompt cache with the extracted verdict so
		// a later identical pair — grouped, batched or pairwise — is a
		// cache hit.
		share := shares[j]
		share.Content = answer
		d.eng.Seed(keys[i], share)
	}
	return out, nil
}
