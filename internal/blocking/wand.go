package blocking

// Document-at-a-time top-K scoring with WAND pruning over the
// compressed postings. Each query term contributes a fixed IDF weight
// to every document it matches, so a term's exact score upper bound is
// its weight: keeping the term cursors sorted by current position, the
// smallest prefix whose cumulative weight could still beat the heap
// floor names a pivot position, and every cursor below it seeks
// forward — skipping sealed posting blocks (and whole mapped segments)
// whose last position is below the pivot without decoding a byte.
//
// The result is byte-identical to the exhaustive term-at-a-time scan:
// documents are enumerated in ascending position (matching the
// position-ascending tie-break of candidateBefore — a tied later
// document correctly loses to the heap root), fully-scored documents
// sum their weights in the original deduplicated token order (the
// exact floating-point accumulation the reference path performs), and
// the pruning threshold is tested against slack-inflated cumulative
// bounds so the cursor-order prefix sums — whose rounding can differ
// from token-order sums by a few ULPs — can only make pruning
// conservative: a document is only ever skipped when even its inflated
// bound cannot qualify, and fully scoring one is always exact.

// wandSlack inflates the cumulative upper bounds; 1+1e-12 covers many
// orders of magnitude more rounding error than reordering a few dozen
// IDF-sized terms can accumulate, at the cost of the occasional
// needlessly scored document.
const wandSlack = 1 + 1e-12

// queryWAND is the scorer of an index above denseScoreRecords. It
// consumes the deduplicated, stop-filtered sc.terms the filtering pass
// in queryIDs produced (stopSkipped rides along for the telemetry
// flush); sc is owned by this call; maxCandidates > 0, math.MaxInt for
// an unbounded query — the heap then never fills, no floor ever rises,
// and the loop below is a plain merge of the cursors that skips only
// what cannot reach minScore.
func (ix *Index) queryWAND(sc *queryScratch, maxCandidates int, minScore float64, stopSkipped uint64) []Candidate {
	n := ix.Len()
	var heapPushes uint64

	// Materialize one cursor + weight per scoring term, in token order.
	cursors := sc.cursors[:0]
	weights := sc.weights[:0]
	for _, t := range sc.terms {
		weights = append(weights, ix.idfWeight(t.id, n, int(t.df)))
		cursors = append(cursors, plCursor{})
		c := &cursors[len(cursors)-1]
		ix.initCursor(c, t.id)
		c.next() // df > 0: lands on the first posting
	}
	sc.cursors = cursors
	sc.weights = weights

	order := sc.order[:0]
	for i := range cursors {
		order = append(order, int32(i))
	}
	h := sc.heap[:0]

	for len(order) > 0 {
		// Sort the live cursors by (current position, token order) —
		// insertion sort: the order is nearly sorted between rounds.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && cursorBefore(cursors, order[j], order[j-1]); j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}

		// Pivot: the first prefix whose inflated cumulative weight
		// could still qualify. No document before the pivot position
		// can score above the floor (it can only match a strict subset
		// of the cheaper prefix).
		full := len(h) == maxCandidates
		floor := 0.0
		if full {
			floor = h[0].Score
		}
		pivot := -1
		var pivotPos int32
		cum := 0.0
		for j, ti := range order {
			cum += weights[ti]
			ub := cum * wandSlack
			if ub >= minScore && (!full || ub > floor) {
				pivot = j
				pivotPos = cursors[ti].cur
				break
			}
		}
		if pivot < 0 {
			break // even all remaining terms together cannot qualify
		}

		if cursors[order[0]].cur == pivotPos {
			// The pivot document is fully present: score it exactly, in
			// token order.
			s := 0.0
			for ti := range cursors {
				if c := &cursors[ti]; !c.done && c.cur == pivotPos {
					s += weights[ti]
				}
			}
			// Matching cursors are the sorted prefix at pivotPos;
			// advance them past the document.
			for _, ti := range order {
				c := &cursors[ti]
				if c.cur != pivotPos {
					break
				}
				c.next()
			}
			if s >= minScore {
				heapPushes++
				h = PushBounded(h, maxCandidates, Candidate{Pos: int(pivotPos), Score: s}, candidateBefore)
			}
		} else {
			// Cheap prefix cursors lag the pivot: seek them forward,
			// skipping blocks that end before it.
			for _, ti := range order[:pivot] {
				if c := &cursors[ti]; c.cur < pivotPos {
					c.seek(pivotPos)
				}
			}
		}

		// Compact exhausted cursors out of the order.
		live := order[:0]
		for _, ti := range order {
			if !cursors[ti].done {
				live = append(live, ti)
			}
		}
		order = live
	}
	sc.order = order[:0]
	sc.heap = h[:0]

	var scanned, pruned uint64
	for i := range cursors {
		scanned += cursors[i].decoded
		pruned += cursors[i].skipped
	}
	ix.met.Queries.Inc()
	ix.met.PostingsScanned.Add(scanned)
	ix.met.PostingsPruned.Add(pruned)
	ix.met.StopTokensSkipped.Add(stopSkipped)
	ix.met.HeapPushes.Add(heapPushes)

	return rankedCopy(h)
}

// cursorBefore orders live cursors by current position, ties broken by
// token order — a total order, so the pivot choice is deterministic.
func cursorBefore(cursors []plCursor, a, b int32) bool {
	if cursors[a].cur != cursors[b].cur {
		return cursors[a].cur < cursors[b].cur
	}
	return a < b
}
