package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. Spans of one operation
// share Op; Parent is the ID of the span that caused this one, 0 for
// a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Each goroutine
// appends to its own buffer, so recording takes no lock.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	bufs  []*spanBuf
}

type spanBuf struct {
	t     *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) buf() *spanBuf {
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (b *spanBuf) id() int64 { return b.t.next.Add(1) }

func (b *spanBuf) add(id, parent, op int64, name string, start, end time.Time) {
	b.spans = append(b.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(b.t.epoch).Nanoseconds(), End: end.Sub(b.t.epoch).Nanoseconds()})
}

// all returns every recorded span. Call it only after the goroutines
// that record have finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// selfTimes returns, per span name, the call count and the total time
// not covered by child spans, in nanoseconds.
func selfTimes(spans []span) map[string][2]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][2]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		acc := out[s.Name]
		out[s.Name] = [2]int64{acc[0] + 1, acc[1] + (s.End - s.Start) - covered}
	}
	return out
}

// checker verifies every response and keeps what the run has been
// acknowledged, so the durability check knows what must survive a kill.
type checker struct {
	gold map[string]bool
	// expected holds, per primed query, the members its entity had once
	// priming settled. Written once before the timed phase, read after.
	expected map[string][]string
	// static says nothing is written while repeats run: every repeat
	// decision must then be a journal hit with no LLM pair, and the
	// members must equal expected. Beside concurrent writes new records
	// reach the candidate list and entities grow, so a repeat need only
	// keep the members it had.
	static bool

	records  atomic.Int64 // records acknowledged by 2xx writes
	resolves atomic.Int64 // resolves acknowledged by 2xx answers
	tp, fp   atomic.Int64 // fresh-resolve decisions against gold
	fn, tn   atomic.Int64
	fresh    atomic.Int64 // fresh resolves answered

	mu       sync.Mutex
	failures []string
	failed   int
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checker) f1() float64 {
	tp, fp, fn := float64(c.tp.Load()), float64(c.fp.Load()), float64(c.fn.Load())
	if tp == 0 {
		return 0
	}
	return 2 * tp / (2*tp + fp + fn)
}

type resolveResp struct {
	QueryID   string   `json:"query_id"`
	EntityID  string   `json:"entity_id"`
	Members   []string `json:"members"`
	Decisions []struct {
		CandidateID string `json:"candidate_id"`
		Match       bool   `json:"match"`
		Method      string `json:"method"`
		Journaled   bool   `json:"journaled"`
		Deferred    bool   `json:"deferred"`
	} `json:"decisions"`
	Cost *struct {
		Candidates int `json:"candidates"`
		LLMPairs   int `json:"llm_pairs"`
	} `json:"cost"`
}

// verify checks one 2xx response body against what the operation must
// have produced and returns what is wrong with it, or nil.
func (c *checker) verify(o *op, body []byte) error {
	switch o.kind {
	case opFresh, opRepeat:
		var r resolveResp
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("malformed body: %w", err)
		}
		if r.QueryID != o.id || r.EntityID == "" || r.Cost == nil || !slices.Contains(r.Members, o.id) {
			return fmt.Errorf("answer names query %q, entity %q, members %v", r.QueryID, r.EntityID, r.Members)
		}
		if len(r.Decisions) != r.Cost.Candidates {
			return fmt.Errorf("%d decisions for %d candidates", len(r.Decisions), r.Cost.Candidates)
		}
		for _, d := range r.Decisions {
			if d.CandidateID == "" || d.Method == "" {
				return fmt.Errorf("decision without candidate or method")
			}
			if d.Deferred {
				return fmt.Errorf("decision on %s was deferred: the LLM path degraded", d.CandidateID)
			}
		}
		c.resolves.Add(1)
		if o.kind == opFresh {
			c.score(o.id, &r)
			return nil
		}
		want, primed := c.expected[o.id]
		if !primed {
			return nil // this is the priming call itself
		}
		for _, m := range want {
			if !slices.Contains(r.Members, m) {
				return fmt.Errorf("repeat members %v lost %s", r.Members, m)
			}
		}
		if !c.static {
			return nil
		}
		if r.Cost.LLMPairs != 0 {
			return fmt.Errorf("repeat sent %d pairs to the LLM", r.Cost.LLMPairs)
		}
		for _, d := range r.Decisions {
			if !d.Journaled {
				return fmt.Errorf("repeat decision on %s was not journaled", d.CandidateID)
			}
		}
		if !slices.Equal(r.Members, want) {
			return fmt.Errorf("repeat members %v, primed %v", r.Members, want)
		}
	case opEntity:
		var r struct {
			EntityID string   `json:"entity_id"`
			Members  []string `json:"members"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("malformed body: %w", err)
		}
		if r.EntityID == "" || !slices.Contains(r.Members, o.id) {
			return fmt.Errorf("entity %q members %v", r.EntityID, r.Members)
		}
	case opInsert, opBatch:
		var r struct {
			Added int `json:"added"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("malformed body: %w", err)
		}
		if r.Added != len(o.records) {
			return fmt.Errorf("added %d of %d records", r.Added, len(o.records))
		}
		c.records.Add(int64(r.Added))
	}
	return nil
}

// score compares a fresh resolve's decisions with the gold labels.
// Only the query's own group is labelled: the corpus renders one
// product in many groups, so a match with another group's record may
// well be right and is left out. A labelled pair the blocker never
// surfaced was not decided and is left out too.
func (c *checker) score(qid string, r *resolveResp) {
	c.fresh.Add(1)
	for _, d := range r.Decisions {
		gold, labelled := c.gold[qid+"|"+d.CandidateID]
		switch {
		case !labelled:
		case gold && d.Match:
			c.tp.Add(1)
		case gold:
			c.fn.Add(1)
		case d.Match:
			c.fp.Add(1)
		default:
			c.tn.Add(1)
		}
	}
}

// client sends operations over keep-alive loopback connections.
type client struct {
	http  *http.Client
	base  string
	check *checker
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		DisableCompression: true,
	}}
}

// opTimes are the instants one operation passed through the client.
type opTimes struct {
	start, sent, answered, verified time.Time
	reqBytes, respBytes             int
	ok                              bool
}

// do sends one operation and verifies its answer. Any transport error,
// non-2xx status or failed check is recorded on the checker.
func (c *client) do(ctx context.Context, o *op) opTimes {
	t := opTimes{start: time.Now(), reqBytes: len(o.body)}
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, c.base+o.path, body)
	if err != nil {
		c.check.fail("%s %s: %v", o.method, o.path, err)
		return t
	}
	if o.ctype != "" {
		req.Header.Set("Content-Type", o.ctype)
	}
	t.sent = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.check.fail("%s %s: %v", o.method, o.path, err)
		return t
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.answered = time.Now()
	t.respBytes = len(payload)
	switch {
	case err != nil:
		c.check.fail("%s %s: read body: %v", o.method, o.path, err)
	case resp.StatusCode/100 != 2:
		c.check.fail("%s %s (%s): status %d: %s", o.method, o.path, o.id, resp.StatusCode, bytes.TrimSpace(payload))
	default:
		if err := c.check.verify(o, payload); err != nil {
			c.check.fail("%s %s (%s): %v", o.method, o.path, o.id, err)
		} else {
			t.ok = true
		}
	}
	t.verified = time.Now()
	return t
}

// phase is what one load phase measured.
type phase struct {
	// latMS is each answered operation's latency in milliseconds: from
	// its due time in an open loop, from its send in a closed loop.
	// atS is when each was answered, in seconds from the phase start.
	// runPhase returns both ordered by latency.
	latMS []float64
	atS   []float64
	// lateMS is how long after its due time each open-loop request was
	// sent.
	lateMS []float64
	// roundtripUS is the client's time on the wire per operation.
	roundtripUS []float64
	attempted   int
	// resolves and records are the work completed; traced is the
	// operations completed while spans were recorded.
	resolves, records, traced int
	// tracedBusy and untracedBusy are the time the connections spent on
	// the traced and on the other answered operations, recording included.
	tracedBusy, untracedBusy time.Duration
	elapsed                  time.Duration
	reqBytes, respBytes      int64
}

func (p *phase) merge(q *phase) {
	p.latMS = append(p.latMS, q.latMS...)
	p.atS = append(p.atS, q.atS...)
	p.lateMS = append(p.lateMS, q.lateMS...)
	p.roundtripUS = append(p.roundtripUS, q.roundtripUS...)
	p.attempted += q.attempted
	p.resolves += q.resolves
	p.records += q.records
	p.traced += q.traced
	p.tracedBusy += q.tracedBusy
	p.untracedBusy += q.untracedBusy
	p.elapsed = max(p.elapsed, q.elapsed)
	p.reqBytes += q.reqBytes
	p.respBytes += q.respBytes
}

// sortByLatency orders latMS ascending and atS along with it.
func (p *phase) sortByLatency() {
	order := make([]int, len(p.latMS))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(p.latMS[a], p.latMS[b]) })
	lat, at := make([]float64, len(order)), make([]float64, len(order))
	for i, j := range order {
		lat[i], at[i] = p.latMS[j], p.atS[j]
	}
	p.latMS, p.atS = lat, at
}

// window is the length of the windows windowQuantile takes its
// quantile in.
const window = 500 * time.Millisecond

// windowQuantile is the median, over the phase's whole windows, of the
// q-quantile of the latencies answered in that window. A checkpoint
// stall, a collection of the client or a tenth of a second the host
// gave to another guest moves the quantile of a whole phase, and in an
// open loop the backlog it leaves moves the median too; here it moves
// one or two windows of thirty.
func (p *phase) windowQuantile(q float64) float64 {
	windows := make([][]float64, int(p.elapsed/window))
	for i, at := range p.atS {
		if w := int(at / window.Seconds()); w < len(windows) {
			windows[w] = append(windows[w], p.latMS[i]) // latMS ascends, so each window does
		}
	}
	var qs []float64
	for _, w := range windows {
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	if len(qs) == 0 {
		return quantile(p.latMS, q) // a phase shorter than one window
	}
	return median(qs)
}

// sloShare is the share of the operations attempted that succeeded
// within sloMS. A failure is a miss.
func (p *phase) sloShare() float64 {
	within := 0
	for _, v := range p.latMS {
		if v <= sloMS {
			within++
		}
	}
	return float64(within) / float64(max(p.attempted, 1))
}

// runPhase drives ops through conns connections. With due == nil it is
// a closed loop: each connection sends its next request when the last
// one is answered, until limit has passed or ops run out. With due set
// it is an open loop: arrival i is due at start+due[i] whatever the
// server does, arrivals are taken in due order, and an arrival that
// finds every connection busy waits and is timed from its due time.
//
// tr, when non-nil, records client spans for the operations traced
// picks by their index and their start.
func runPhase(ctx context.Context, c *client, ops []op, due []time.Duration, conns int,
	limit time.Duration, tr *tracer, traced func(i int, sinceStart time.Duration) bool) phase {
	var next atomic.Int64
	var wg sync.WaitGroup
	parts := make([]phase, conns)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			var sb *spanBuf
			if tr != nil {
				sb = tr.buf()
			}
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				from := time.Now()
				if due == nil {
					if from.Sub(start) >= limit {
						return
					}
				} else {
					// An open loop that has fallen three phases behind is
					// not going to recover; what is left counts as failed.
					if from.Sub(start) > 3*limit+time.Second {
						c.check.fail("arrival %d never sent: the loop is %v behind", i, from.Sub(start)-due[i])
						p.attempted++
						continue
					}
					from = start.Add(due[i])
					if wait := time.Until(from); wait > 0 {
						time.Sleep(wait)
					}
				}
				o := &ops[i]
				t := c.do(ctx, o)
				p.attempted++
				p.elapsed = max(p.elapsed, t.verified.Sub(start))
				if !t.ok {
					continue
				}
				switch o.kind {
				case opFresh, opRepeat:
					p.resolves++
				case opInsert, opBatch:
					p.records += len(o.records)
				}
				p.reqBytes += int64(t.reqBytes)
				p.respBytes += int64(t.respBytes)
				p.latMS = append(p.latMS, ms(t.answered.Sub(from)))
				p.atS = append(p.atS, t.answered.Sub(start).Seconds())
				p.roundtripUS = append(p.roundtripUS, us(t.answered.Sub(t.sent)))
				if due != nil {
					p.lateMS = append(p.lateMS, ms(t.start.Sub(from)))
				}
				if sb != nil && traced(i, t.start.Sub(start)) {
					p.traced++
					id, opID := sb.id(), int64(i+1)
					sb.add(id, 0, opID, "op."+o.kind.String(), t.start, t.verified)
					sb.add(sb.id(), id, opID, "client.encode", t.start, t.sent)
					sb.add(sb.id(), id, opID, "client.roundtrip", t.sent, t.answered)
					sb.add(sb.id(), id, opID, "client.decode_verify", t.answered, t.verified)
					p.tracedBusy += time.Since(t.start)
				} else {
					p.untracedBusy += time.Since(t.start)
				}
			}
		}(&parts[w])
	}
	wg.Wait()
	var total phase
	for i := range parts {
		total.merge(&parts[i])
	}
	// Arrivals never taken because the context ended are failures too.
	for i := int(next.Load()); due != nil && i < len(ops); i++ {
		c.check.fail("arrival %d never sent: %v", i, ctx.Err())
		total.attempted++
	}
	total.sortByLatency()
	slices.Sort(total.lateMS)
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quantile returns the q-quantile of sorted values by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
