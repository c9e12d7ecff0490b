package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
)

// sizes fixes how much data each workload touches: the constants of
// fullSizes, which tests replace with smaller ones. Nothing is tuned at
// run time, so two runs of one commit send the same bytes.
type sizes struct {
	// Preload is the number of records set-up ingests before fresh,
	// repeat and steady are timed; queries exist for Preload/2 groups.
	Preload int `json:"preload"`
	// Rate is steady's arrival rate in requests per second.
	Rate float64 `json:"rate"`
	// Prime is the number of queries set-up resolves once, untimed:
	// the repeat set.
	Prime int `json:"prime"`
	// Tail is the number of held-out queries the quality tail resolves
	// after every timed phase.
	Tail int `json:"tail"`
	// Ingest is the number of records the ingest workload loads into an
	// empty store: its phase is sized by this input, not by --seconds.
	Ingest int `json:"ingest"`
	// Batch is the number of records per NDJSON request, in set-up
	// preload and in the ingest workload.
	Batch int `json:"batch"`
	// Sample is the number of entity memberships compared across the
	// kills and reopens.
	Sample int `json:"sample"`
	// ProbeOps is the number of operations the in-process probe
	// replays.
	ProbeOps int `json:"probe_ops"`
}

var fullSizes = sizes{
	Preload: 32000, Rate: 500, Prime: 1000, Tail: 2000,
	Ingest: 200000, Batch: 200, Sample: 100, ProbeOps: 1000,
}

// corpus is one seeded draw of datasets.GroupedPairs("wdc", seed, g, 2):
// the stored records are every pair's B, the queries every group's A,
// a quarter of them misfielded.
type corpus struct {
	records []entity.Record
	queries []entity.Record
	// gold maps "queryID|candidateID" to the pair's gold label.
	gold map[string]bool
}

const candidatesPerGroup = 2

// candidateID names the k-th stored record of a query's own group, the
// way GroupedPairs numbers them: wdc-grp7-q asks about wdc-grp7-c0 and -c1.
func candidateID(queryID string, k int) string {
	return fmt.Sprintf("%sc%d", strings.TrimSuffix(queryID, "q"), k)
}

func buildCorpus(seed string, groups int) (*corpus, error) {
	pairs, err := datasets.GroupedPairs("wdc", seed, groups, candidatesPerGroup)
	if err != nil {
		return nil, err
	}
	dirty := datasets.ForLevel(seed, datasets.CorruptMisfield, 1)
	c := &corpus{gold: make(map[string]bool, len(pairs))}
	for i, p := range pairs {
		c.records = append(c.records, p.B)
		c.gold[p.A.ID+"|"+p.B.ID] = p.Match
		if i%candidatesPerGroup == 0 {
			q := p.A
			if (i/candidatesPerGroup)%4 == 3 {
				q = dirty.Corrupt(q)
			}
			c.queries = append(c.queries, q)
		}
	}
	return c, nil
}

type opKind uint8

const (
	opFresh  opKind = iota // POST /v1/resolve of a never-seen query
	opRepeat               // POST /v1/resolve of a primed query
	opEntity               // GET /v1/entities/{id}
	opInsert               // POST /v1/records, one JSON record
	opBatch                // POST /v1/records, one NDJSON batch
)

func (k opKind) String() string {
	return [...]string{"fresh", "repeat", "entity", "insert", "batch"}[k]
}

// op is one pre-encoded request. Bodies are built before any clock
// starts, so the timed phase measures the server and the wire.
type op struct {
	kind   opKind
	method string
	path   string
	ctype  string
	body   []byte
	// id is the query ID, the entity ID or the first record's ID.
	id string
	// records are the records a write carries, for the in-process probe.
	records []entity.Record
}

type recordJSON struct {
	ID    string     `json:"id"`
	Attrs []attrJSON `json:"attrs"`
}

type attrJSON struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

func encodeRecord(r entity.Record) []byte {
	rj := recordJSON{ID: r.ID, Attrs: make([]attrJSON, len(r.Attrs))}
	for i, a := range r.Attrs {
		rj.Attrs[i] = attrJSON{Name: a.Name, Value: a.Value}
	}
	b, err := json.Marshal(rj)
	if err != nil {
		panic(err) // strings only: cannot fail
	}
	return b
}

func resolveOp(kind opKind, q entity.Record) op {
	return op{kind: kind, method: "POST", path: "/v1/resolve", ctype: "application/json",
		body: encodeRecord(q), id: q.ID, records: []entity.Record{q}}
}

func entityOp(id string) op {
	return op{kind: opEntity, method: "GET", path: "/v1/entities/" + id, id: id}
}

func insertOp(r entity.Record) op {
	return op{kind: opInsert, method: "POST", path: "/v1/records", ctype: "application/json",
		body: encodeRecord(r), id: r.ID, records: []entity.Record{r}}
}

func batchOps(records []entity.Record, batch int) []op {
	var ops []op
	for len(records) > 0 {
		n := min(batch, len(records))
		var buf bytes.Buffer
		for _, r := range records[:n] {
			buf.Write(encodeRecord(r))
			buf.WriteByte('\n')
		}
		ops = append(ops, op{kind: opBatch, method: "POST", path: "/v1/records",
			ctype: "application/x-ndjson", body: buf.Bytes(), id: records[0].ID, records: records[:n]})
		records = records[n:]
	}
	return ops
}

// plan is everything one run of one workload sends, in order.
type plan struct {
	corpus *corpus
	// setups is how often the run sets up: once for the phase, and on
	// spare servers before and after it. setup_s is the median. The
	// shorter a set-up, the more of them: a set-up of an empty store is a
	// process start of five milliseconds.
	setups int
	// preload and prime run untimed in set-up.
	preload []op
	prime   []op
	// stream is the timed phase and limit its length. due holds each
	// arrival's offset from the phase start for an open loop and is nil
	// for a closed loop. A stream sized by its input (ingest) ends when
	// it has been sent; its limit is a backstop.
	stream []op
	due    []time.Duration
	limit  time.Duration
	// tail is the held-out fresh queries that follow every timed phase.
	tail []op
}

// sloMS is the latency limit slo_share applies: to a request from its
// send, from its due time in an open loop, to a batch as a whole.
const sloMS = 20

var workloadNames = []string{"fresh", "repeat", "steady", "ingest"}

// buildPlan generates the request stream of a workload. It is a pure
// function of its arguments.
func buildPlan(workload string, seed int64, seconds float64, sz sizes) (*plan, error) {
	seedStr := strconv.FormatInt(seed, 10)
	queries := sz.Preload / candidatesPerGroup
	if sz.Prime+sz.Tail >= queries {
		return nil, fmt.Errorf("prime %d + tail %d leaves no fresh queries among %d", sz.Prime, sz.Tail, queries)
	}
	p := &plan{setups: 5, limit: time.Duration(seconds * float64(time.Second))}
	// steady writes a tenth of its arrivals; half as many again are spare.
	inserts := int(0.15*sz.Rate*seconds) + 100
	records := sz.Preload + inserts
	if workload == "ingest" {
		records = max(sz.Ingest, sz.Tail*candidatesPerGroup)
		records -= records % sz.Batch
	}
	var err error
	if p.corpus, err = buildCorpus(seedStr, (records+candidatesPerGroup-1)/candidatesPerGroup); err != nil {
		return nil, err
	}
	c := p.corpus
	fresh := c.queries[sz.Prime+sz.Tail : queries]
	tail := c.queries[sz.Prime : sz.Prime+sz.Tail]
	if workload == "ingest" {
		// The store starts empty; the tail asks for the groups ingested
		// first, whose records the whole stream has stored.
		tail = c.queries[:sz.Tail]
		p.stream = batchOps(c.records[:records], sz.Batch)
		p.setups, p.limit = 15, time.Hour
	} else {
		p.preload = batchOps(c.records[:sz.Preload], sz.Batch)
	}
	for _, q := range tail {
		p.tail = append(p.tail, resolveOp(opFresh, q))
	}
	primed := make([]op, sz.Prime)
	for i, q := range c.queries[:sz.Prime] {
		primed[i] = resolveOp(opRepeat, q)
	}
	switch workload {
	case "fresh":
		// A warm-up: half the primed set, resolved once and never again,
		// so that the phase does not time a server's first requests.
		p.prime = primed[:len(primed)/2]
		for _, q := range fresh {
			p.stream = append(p.stream, resolveOp(opFresh, q))
		}
	case "repeat":
		p.prime = primed
		// Enough cycles over the primed set that a server three times
		// faster than this one still cannot exhaust the stream.
		n := int(seconds * 8000)
		for i := 0; i < n; i++ {
			p.stream = append(p.stream, primed[i%len(primed)])
		}
	case "steady":
		p.prime = primed
		rng := rand.New(rand.NewSource(seed))
		spare := c.records[sz.Preload:records]
		var at float64
		for at < seconds {
			at += rng.ExpFloat64() / sz.Rate
			p.due = append(p.due, time.Duration(at*float64(time.Second)))
			switch u := rng.Float64(); {
			case u < 0.70:
				p.stream = append(p.stream, primed[rng.Intn(len(primed))])
			case u < 0.80:
				if len(fresh) == 0 {
					return nil, fmt.Errorf("steady: out of fresh queries at %.1fs", at)
				}
				p.stream = append(p.stream, resolveOp(opFresh, fresh[0]))
				fresh = fresh[1:]
			case u < 0.90:
				p.stream = append(p.stream, entityOp(c.records[rng.Intn(sz.Preload)].ID))
			default:
				if len(spare) == 0 {
					return nil, fmt.Errorf("steady: out of spare records at %.1fs", at)
				}
				p.stream = append(p.stream, insertOp(spare[0]))
				spare = spare[1:]
			}
		}
	case "ingest":
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", workload, workloadNames)
	}
	return p, nil
}

// hash digests every request of the plan in sending order, so two runs
// can show they sent the same bytes.
func (p *plan) hash() string {
	h := sha256.New()
	for _, phase := range [][]op{p.preload, p.prime, p.stream, p.tail} {
		for _, o := range phase {
			fmt.Fprintf(h, "%s %s %d\n", o.method, o.path, len(o.body))
			h.Write(o.body)
		}
	}
	for _, d := range p.due {
		fmt.Fprintf(h, "%d\n", d)
	}
	return hex.EncodeToString(h.Sum(nil))
}
