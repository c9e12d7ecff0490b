package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"llm4em/internal/cost"
	"llm4em/internal/entity"
)

// RecordEntry is the payload of an EntryRecord: one record ingested
// into the store.
type RecordEntry struct {
	Record entity.Record `json:"record"`
}

// DecisionEntry is one decided candidate pair inside a ResolveEntry
// or a snapshot journal — everything needed to short-circuit the pair
// on a later resolve without re-running the cascade or the LLM.
type DecisionEntry struct {
	QueryID     string  `json:"query_id,omitempty"` // set in snapshots; implied by the entry in the WAL
	CandidateID string  `json:"candidate_id"`
	BlockScore  float64 `json:"block_score"`
	Probability float64 `json:"probability"`
	Match       bool    `json:"match"`
	Method      string  `json:"method"`
	Answer      string  `json:"answer,omitempty"`
	// Deferred marks a tentative local verdict recorded while the LLM
	// backend was unavailable; a later EntryRedecide replaces it with
	// the healthy-path decision. Absent in older logs.
	Deferred bool `json:"deferred,omitempty"`
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
	// Seq is the call's ordinal among lifetime resolves: replay skips the
	// report of one the snapshot already counts. Zero in version-1 logs.
	Seq       int             `json:"-"`
	Query     entity.Record   `json:"query"`
	Decisions []DecisionEntry `json:"decisions"`
	Report    ReportEntry     `json:"report"`
}

// RedecideEntry is the payload of an EntryRedecide: the background
// re-escalator's healthy-path decision for a pair deferred by an
// earlier resolve, plus the usage it cost. Replay overwrites the
// pair's journal entry, folds the match into the entity graph, and
// removes the pair from the rebuilt deferred queue.
type RedecideEntry struct {
	// Seq is the ordinal among lifetime re-decisions, as ResolveEntry.Seq.
	Seq              int           `json:"-"`
	QueryID          string        `json:"query_id"`
	Decision         DecisionEntry `json:"decision"`
	PromptTokens     int           `json:"prompt_tokens,omitempty"`
	CompletionTokens int           `json:"completion_tokens,omitempty"`
	Cents            float64       `json:"cents,omitempty"`
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

// binaryV1 opens a binary payload; version-1 payloads are JSON and open '{'.
const binaryV1 = 0x01

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

func (c *codec) str(p *string) {
	if n := c.count(len(*p), 1); c.decode {
		*p = string(c.take(n))
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

// Decision: candidate ID, block score, probability, flags (1 match,
// 2 deferred), method, answer — at least 20 bytes.
func (c *codec) decision(d *DecisionEntry) {
	c.str(&d.CandidateID)
	c.f64(&d.BlockScore)
	c.f64(&d.Probability)
	var flags int
	if d.Match {
		flags |= 1
	}
	if d.Deferred {
		flags |= 2
	}
	if c.int(&flags); flags&^3 != 0 {
		c.fail() // a bit no field owns
	}
	d.Match, d.Deferred = flags&1 != 0, flags&2 != 0
	c.str(&d.Method)
	c.str(&d.Answer)
}

func (c *codec) decisions(ds *[]DecisionEntry) {
	for i, n := 0, c.count(len(*ds), 20); i < n && c.err == nil; i++ {
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
	c.decisions(&e.Decisions)
	c.report(&e.Report)
}

// Redecide: sequence number, query ID, decision, prompt tokens,
// completion tokens, cents.
func (c *codec) redecide(e *RedecideEntry) {
	c.int(&e.Seq)
	c.str(&e.QueryID)
	c.decision(&e.Decision)
	c.int(&e.PromptTokens)
	c.int(&e.CompletionTokens)
	c.f64(&e.Cents)
}

// encoder starts a payload of about size bytes.
func encoder(size int) codec { return codec{b: append(make([]byte, 0, size), binaryV1)} }

// decodeEntry parses a payload of this build, rejecting trailing
// bytes, or a version-1 JSON payload.
func decodeEntry[T any](what string, payload []byte, walk func(*codec, *T)) (e T, err error) {
	switch {
	case len(payload) > 0 && payload[0] == '{':
		err = json.Unmarshal(payload, &e)
	case len(payload) > 0 && payload[0] == binaryV1:
		c := codec{b: payload[1:], decode: true}
		walk(&c, &e)
		if err = c.err; err == nil && len(c.b) > 0 {
			err = fmt.Errorf("%d trailing bytes", len(c.b))
		}
	default:
		err = errors.New("unknown payload format")
	}
	if err != nil {
		err = fmt.Errorf("persist: decode %s entry: %w", what, err)
	}
	return e, err
}

// EncodeRecord frames a record for Append.
func EncodeRecord(r entity.Record) ([]byte, error) {
	c := encoder(256)
	c.record(&r)
	return c.b, nil
}

// DecodeRecord parses an EntryRecord payload.
func DecodeRecord(payload []byte) (RecordEntry, error) {
	return decodeEntry("record", payload, func(c *codec, e *RecordEntry) { c.record(&e.Record) })
}

// EncodeResolve frames a resolve call for Append.
func EncodeResolve(e ResolveEntry) ([]byte, error) {
	c := encoder(384 + 64*len(e.Decisions))
	c.resolve(&e)
	return c.b, nil
}

// DecodeResolve parses an EntryResolve payload.
func DecodeResolve(payload []byte) (ResolveEntry, error) {
	return decodeEntry("resolve", payload, (*codec).resolve)
}

// EncodeRedecide frames a re-escalated decision for Append.
func EncodeRedecide(e RedecideEntry) ([]byte, error) {
	c := encoder(128)
	c.redecide(&e)
	return c.b, nil
}

// DecodeRedecide parses an EntryRedecide payload.
func DecodeRedecide(payload []byte) (RedecideEntry, error) {
	return decodeEntry("redecide", payload, (*codec).redecide)
}

// JournalFrame encodes the decisions journaled for a query as a
// journal.log entry (query ID, decisions); later frames win pair by pair.
func JournalFrame(query string, ds []DecisionEntry) Entry {
	c := encoder(32 + 64*len(ds))
	c.str(&query)
	c.decisions(&ds)
	return Entry{Type: EntryJournal, Payload: c.b}
}

// DecodeJournal parses an EntryJournal payload.
func DecodeJournal(payload []byte) (query string, ds []DecisionEntry, err error) {
	ds, err = decodeEntry("journal", payload, func(c *codec, ds *[]DecisionEntry) {
		c.str(&query)
		c.decisions(ds)
	})
	return query, ds, err
}
