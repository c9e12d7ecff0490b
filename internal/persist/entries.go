package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"llm4em/internal/cost"
	"llm4em/internal/entity"
)

// DecisionEntry is one decided candidate pair inside a ResolveEntry
// or a journal.log frame, whose query it belongs to — everything needed
// to short-circuit the pair on a later resolve without re-running the
// cascade or the LLM.
type DecisionEntry struct {
	CandidateID string
	BlockScore  float64
	Probability float64
	Match       bool
	Method      string
	Answer      string
	// Deferred marks a tentative local verdict recorded while the LLM
	// backend was unavailable; a later EntryRedecide replaces it with
	// the healthy-path decision.
	Deferred bool
}

// ReportEntry is the cost ledger (cost.Report) in its on-disk role: one
// resolve call's accounting inside a ResolveEntry, the lifetime totals
// inside a Snapshot. Replay rebuilds the totals from it without
// recomputing anything. The per-decision strategy provenance lives in
// DecisionEntry.Method ("llm-compare", "llm-select", "llm-reason").
type ReportEntry = cost.Report

// ResolveEntry is the payload of an EntryResolve: the query record,
// the decisions made fresh in this call (journal hits were logged by
// an earlier entry) and the call's cost report.
type ResolveEntry struct {
	// Seq is the call's ordinal among lifetime resolves, from 1: replay
	// skips the report of one the snapshot already counts.
	Seq       int
	Query     entity.Record
	Decisions []DecisionEntry
	Report    ReportEntry
}

// RedecideEntry is the payload of an EntryRedecide: the background
// re-escalator's healthy-path decision for a pair deferred by an
// earlier resolve, plus the usage it cost. Replay overwrites the
// pair's journal entry, folds the match into the entity graph, and
// removes the pair from the rebuilt deferred queue.
type RedecideEntry struct {
	// Seq is the ordinal among lifetime re-decisions, as ResolveEntry.Seq.
	Seq              int
	QueryID          string
	Decision         DecisionEntry
	PromptTokens     int
	CompletionTokens int
	Cents            float64
}

// DeferredEntry is one pair awaiting re-escalation inside a snapshot.
// The journal keeps only the decision; re-escalation needs the full
// query record to rebuild the pair's prompt, so snapshots carry it.
type DeferredEntry struct {
	Query       entity.Record `json:"query"`
	CandidateID string        `json:"candidate_id"`
	BlockScore  float64       `json:"block_score"`
	Probability float64       `json:"probability"`
}

// Payload formats, the first byte of every payload: both decode, every
// encoder writes version 2. They differ only in codec.decision.
const binaryV1, binaryV2 = 0x01, 0x02

// methods and answers are what a version-2 decision codes by index plus
// one, 0 meaning the string follows: resolve's Method names and the
// replies of a forced Yes/No prompt. Changing either is a new format.
var methods = [...]string{"", "cascade-accept", "cascade-reject", "llm", "budget-local",
	"llm-compare", "llm-select", "llm-reason", "deferred-local"}
var answers = [...]string{"", "Yes", "No"}

var errPayload = errors.New("malformed binary payload")

// codec walks an entry's fields in wire order, appending each to b
// when encoding and consuming it from b when decoding, so every
// layout is written down once: integers as unsigned varints, strings
// length-prefixed, float64 as its eight raw little-endian bits. A
// decode checks every count against the bytes that remain and grows
// slices element by element: it allocates for what it has consumed.
type codec struct {
	b      []byte
	decode bool
	// skim decodes strings without materialising them, and candidate
	// IDs into walked, a buffer of the caller's (WalkJournal).
	skim bool
	v    byte // payload format
	// prev is the ID the next candidate ID is front-coded against
	// (after): a string the entry already holds, so tracking it copies
	// nothing, and the codec holds no pointer into itself.
	prev   string
	walked []byte
	err    error
}

func (c *codec) fail() { c.err, c.b = errPayload, nil }

// take consumes n bytes, or fails the decode and returns nil.
func (c *codec) take(n int) []byte {
	if c.err != nil || n < 0 || n > len(c.b) {
		c.fail()
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

func (c *codec) int(p *int) {
	if !c.decode {
		c.b = binary.AppendUvarint(c.b, uint64(*p))
		return
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 || c.err != nil {
		c.fail() // torn or overlong
		return
	}
	*p, c.b = int(v), c.b[n:]
}

// count codes a sequence length whose elements take at least min
// bytes each and returns it.
func (c *codec) count(n, min int) int {
	if c.int(&n); c.decode && (n < 0 || n > len(c.b)/min) {
		c.fail()
		return 0
	}
	return n
}

// byte codes *p, 0–255, as one byte.
func (c *codec) byte(p *int) {
	if !c.decode {
		c.b = append(c.b, byte(*p))
	} else if b := c.take(1); b != nil {
		*p = int(b[0])
	}
}

func (c *codec) str(p *string) {
	if n := c.count(len(*p), 1); c.decode {
		if b := c.take(n); !c.skim {
			*p = string(b)
		}
	} else {
		c.b = append(c.b, *p...)
	}
}

func (c *codec) f64(p *float64) {
	if !c.decode {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
	} else if b := c.take(8); b != nil {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

// Record: ID, attribute count, then name and value of each attribute.
func (c *codec) record(r *entity.Record) {
	c.str(&r.ID)
	for i, n := 0, c.count(len(r.Attrs), 2); i < n && c.err == nil; i++ {
		if c.decode {
			r.Attrs = append(r.Attrs, entity.Attr{})
		}
		c.str(&r.Attrs[i].Name)
		c.str(&r.Attrs[i].Value)
	}
}

// Decision: candidate ID, block score, probability, a code holding the
// flags (1 match, 2 deferred), method, answer. Version 1 writes the
// code as a uvarint of the flags, and both strings: at least 20 bytes.
// Version 2 front-codes the candidate ID, one byte saying how many
// leading bytes (at most 255) it shares with c.prev, and puts the
// answer's and the method's named codes in bits 2–3 and 4–7 of a code
// byte: at least 19 bytes. A skimmed candidate ID is left in c.walked,
// valid until the next decision.
func (c *codec) decision(d *DecisionEntry) {
	shared := 0
	if c.v == binaryV2 {
		for !c.decode && shared < min(len(d.CandidateID), len(c.prev), 255) && d.CandidateID[shared] == c.prev[shared] {
			shared++
		}
		prev := len(c.prev)
		if c.skim {
			prev = len(c.walked)
		}
		if c.byte(&shared); shared > prev {
			c.fail() // more than the previous ID holds
			return
		}
	}
	switch {
	case !c.decode:
		rest := d.CandidateID[shared:]
		c.str(&rest)
		c.after(d.CandidateID)
	case c.skim:
		c.walked = append(c.walked[:shared], c.take(c.count(0, 1))...)
	default:
		// One allocation, none when the ID is a prefix of the last.
		d.CandidateID = c.prev[:shared] + string(c.take(c.count(0, 1)))
		c.after(d.CandidateID)
	}
	c.f64(&d.BlockScore)
	c.f64(&d.Probability)
	var code int
	if d.Match {
		code |= 1
	}
	if d.Deferred {
		code |= 2
	}
	if c.v == binaryV1 {
		if c.int(&code); code&^3 != 0 {
			c.fail() // a bit no field owns
		}
	} else {
		if !c.decode {
			code |= (slices.Index(answers[:], d.Answer)+1)<<2 | (slices.Index(methods[:], d.Method)+1)<<4
		}
		c.byte(&code)
	}
	c.named(&d.Method, methods[:], code>>4)
	c.named(&d.Answer, answers[:], code>>2&3)
	d.Match, d.Deferred = code&1 != 0, code&2 != 0
}

// after makes id the ID the next candidate ID is front-coded against.
func (c *codec) after(id string) { c.prev = id }

// named codes a string by i, its index in table plus one, or as itself
// after i = 0.
func (c *codec) named(p *string, table []string, i int) {
	if i == 0 {
		c.str(p)
	} else if i > len(table) {
		c.fail() // a code no value owns
	} else if c.decode {
		*p = table[i-1]
	}
}

func (c *codec) decisions(ds *[]DecisionEntry) {
	for i, n := 0, c.count(len(*ds), 19); i < n && c.err == nil; i++ {
		if c.decode {
			*ds = append(*ds, DecisionEntry{})
		}
		c.decision(&(*ds)[i])
	}
}

// Report: twelve counters, cents, then the four strategies (match,
// compare, select, reason) of four counters. Beside cost.Report.Add
// this is the only list of the ledger's fields; the per-call fields
// (cost.Report.Persisted) are not on it.
func (c *codec) report(r *ReportEntry) {
	for _, p := range [...]*int{&r.Candidates, &r.LocalAccepts, &r.LocalRejects, &r.LLMPairs,
		&r.BudgetDecided, &r.JournalHits, &r.PromptTokens, &r.CompletionTokens,
		&r.BatchedPairs, &r.BatchFallbacks, &r.DeferredPairs, &r.GroupFallbacks} {
		c.int(p)
	}
	c.f64(&r.Cents)
	for _, u := range [...]*cost.Usage{&r.MatchUsage, &r.CompareUsage, &r.SelectUsage, &r.ReasonUsage} {
		c.int(&u.Calls)
		c.int(&u.Pairs)
		c.int(&u.PromptTokens)
		c.int(&u.CompletionTokens)
	}
}

// Resolve: sequence number, query record, decisions, report.
func (c *codec) resolve(e *ResolveEntry) {
	c.int(&e.Seq)
	c.record(&e.Query)
	c.after(e.Query.ID)
	c.decisions(&e.Decisions)
	c.report(&e.Report)
}

// Redecide: sequence number, query ID, decision, prompt tokens,
// completion tokens, cents.
func (c *codec) redecide(e *RedecideEntry) {
	c.int(&e.Seq)
	c.str(&e.QueryID)
	c.after(e.QueryID)
	c.decision(&e.Decision)
	c.int(&e.PromptTokens)
	c.int(&e.CompletionTokens)
	c.f64(&e.Cents)
}

// encoder starts a payload of about size bytes.
func encoder(size int) codec { return codec{b: append(make([]byte, 0, size), binaryV2), v: binaryV2} }

// decoder starts decoding payload. The decode functions call the
// codec's methods directly, not through a func value, so the codec
// stays on their stack.
func decoder(payload []byte) (codec, error) {
	if len(payload) == 0 || payload[0] != binaryV1 && payload[0] != binaryV2 {
		return codec{}, errors.New("unknown payload format")
	}
	return codec{b: payload[1:], decode: true, v: payload[0]}, nil
}

// done ends the decode of a what entry begun with decoder's err,
// rejecting trailing bytes.
func (c *codec) done(what string, err error) error {
	if err == nil {
		if err = c.err; err == nil && len(c.b) > 0 {
			err = fmt.Errorf("%d trailing bytes", len(c.b))
		}
	}
	if err != nil {
		err = fmt.Errorf("persist: decode %s entry: %w", what, err)
	}
	return err
}

// EncodeRecord frames a record for Append.
func EncodeRecord(r entity.Record) ([]byte, error) {
	c := encoder(256)
	c.record(&r)
	return c.b, nil
}

// DecodeRecord parses an EntryRecord payload.
func DecodeRecord(payload []byte) (r entity.Record, err error) {
	c, err := decoder(payload)
	if err == nil {
		c.record(&r)
	}
	return r, c.done("record", err)
}

// EncodeResolve frames a resolve call for Append.
func EncodeResolve(e ResolveEntry) ([]byte, error) {
	c := encoder(384 + 64*len(e.Decisions))
	c.resolve(&e)
	return c.b, nil
}

// DecodeResolve parses an EntryResolve payload.
func DecodeResolve(payload []byte) (e ResolveEntry, err error) {
	c, err := decoder(payload)
	if err == nil {
		c.resolve(&e)
	}
	return e, c.done("resolve", err)
}

// EncodeRedecide frames a re-escalated decision for Append.
func EncodeRedecide(e RedecideEntry) ([]byte, error) {
	c := encoder(128)
	c.redecide(&e)
	return c.b, nil
}

// DecodeRedecide parses an EntryRedecide payload.
func DecodeRedecide(payload []byte) (e RedecideEntry, err error) {
	c, err := decoder(payload)
	if err == nil {
		c.redecide(&e)
	}
	return e, c.done("redecide", err)
}

// JournalFrame encodes the decisions journaled for a query as a
// journal.log entry (query ID, decisions); later frames win pair by pair.
func JournalFrame(query string, ds []DecisionEntry) Entry {
	c := encoder(32 + 32*len(ds))
	c.str(&query)
	c.after(query)
	c.decisions(&ds)
	return Entry{Type: EntryJournal, Payload: c.b}
}

// DecodeJournal parses an EntryJournal payload.
func DecodeJournal(payload []byte) (query string, ds []DecisionEntry, err error) {
	c, err := decoder(payload)
	if err == nil {
		c.str(&query)
		c.after(query)
		c.decisions(&ds)
	}
	return query, ds, c.done("journal", err)
}

// WalkJournal checks an EntryJournal payload as DecodeJournal does
// without materialising its decisions: it returns the query ID, a
// subslice of payload, and calls visit with each decision's candidate
// ID and whether the decision is a final match (Match, not Deferred).
// A candidate ID is valid only during its visit call: it is
// front-decoded in buf, which WalkJournal returns, grown if an ID
// outgrew it, for the caller's next walk.
func WalkJournal(payload, buf []byte, visit func(candidate []byte, final bool)) (query, grown []byte, err error) {
	c, err := decoder(payload)
	c.walked = buf[:0]
	if err == nil {
		query = c.take(c.count(0, 1))
		c.skim, c.walked = true, append(c.walked, query...)
		var d DecisionEntry
		for i, n := 0, c.count(0, 19); i < n && c.err == nil; i++ {
			if c.decision(&d); c.err == nil {
				visit(c.walked, d.Match && !d.Deferred)
			}
		}
	}
	return query, c.walked, c.done("journal", err)
}
