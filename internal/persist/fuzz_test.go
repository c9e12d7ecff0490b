package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"llm4em/internal/cost"
	"llm4em/internal/entity"
)

// frame builds one well-formed WAL frame, for fuzz seeds.
func frame(t EntryType, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload)+crcSize)
	buf[0] = byte(t)
	binary.LittleEndian.PutUint32(buf[1:], uint32(len(payload)))
	copy(buf[headerSize:], payload)
	sum := crc32.NewIEEE()
	sum.Write(buf[:headerSize+len(payload)])
	binary.LittleEndian.PutUint32(buf[headerSize+len(payload):], sum.Sum32())
	return buf
}

// FuzzWALReplay feeds arbitrary bytes to OpenWAL as a pre-existing log
// file — the on-disk state after any crash, partial write or bit flip —
// and pins the recovery contract: no panic, a clean log after
// truncation, stable replay across reopen, every replayed entry read
// back where its Offset says, and appendability on top of whatever
// survived.
func FuzzWALReplay(f *testing.F) {
	rec, res, red, jou := fuzzEntries()
	valid := frame(EntryRecord, mustEncode(EncodeRecord(rec)))
	two := append(append([]byte{}, valid...), frame(EntryResolve, mustEncode(EncodeResolve(res)))...)
	others := append(frame(EntryRedecide, mustEncode(EncodeRedecide(red))), frame(EntryJournal, mustEncode(encodeJournal(jou)))...)
	huge := frame(EntryRecord, nil)
	binary.LittleEndian.PutUint32(huge[1:], 1<<30) // corrupt length field
	for _, seed := range [][]byte{
		nil,
		valid,
		two,
		append(others, two...),         // every entry type
		valid[:len(valid)-3],           // torn checksum
		two[:len(two)-7],               // torn second frame
		append([]byte{}, huge...),      // absurd length
		bytes.Repeat([]byte{0xff}, 64), // garbage
		append(two, 0x01, 0x02, 0x03),  // valid prefix, torn tail
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, rec, err := OpenWAL(path)
		if err != nil {
			t.Fatalf("OpenWAL on arbitrary bytes errored: %v", err)
		}
		for i, e := range rec.Entries {
			if int64(len(e.Payload)) > maxPayload {
				t.Fatalf("entry %d payload %d bytes exceeds the limit scan enforces", i, len(e.Payload))
			}
			if got, err := w.ReadEntry(e.Offset, len(e.Payload)); err != nil || got.Type != e.Type || !bytes.Equal(got.Payload, e.Payload) {
				t.Fatalf("entry %d read back at %d as %+v, %v", i, e.Offset, got, err)
			}
		}
		if _, err := w.ReadEntry(w.Bytes(), 1); !errors.Is(err, ErrJournalTorn) {
			t.Fatalf("ReadEntry past the log end = %v, want ErrJournalTorn", err)
		}
		if rec.TruncatedTail && rec.DroppedBytes <= 0 {
			t.Fatal("truncated tail reported without dropped bytes")
		}
		if !rec.TruncatedTail && rec.DroppedBytes != 0 {
			t.Fatalf("clean log reports %d dropped bytes", rec.DroppedBytes)
		}
		// The recovered log must be append-clean: a new entry lands and
		// the reopen replays everything that survived plus the new tail.
		if err := w.Append(EntryResolve, []byte("post-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, rec2, err := OpenWAL(path)
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer w2.Close()
		if rec2.TruncatedTail {
			t.Fatal("recovery left a torn tail behind")
		}
		if len(rec2.Entries) != len(rec.Entries)+1 {
			t.Fatalf("reopen replayed %d entries, want %d survivors + 1 appended",
				len(rec2.Entries), len(rec.Entries))
		}
		for i, e := range rec.Entries {
			if rec2.Entries[i].Type != e.Type || !bytes.Equal(rec2.Entries[i].Payload, e.Payload) {
				t.Fatalf("entry %d changed across reopen", i)
			}
		}
		last := rec2.Entries[len(rec2.Entries)-1]
		if last.Type != EntryResolve || string(last.Payload) != "post-recovery" {
			t.Fatalf("appended entry replayed as %+v", last)
		}
	})
}

// journalEntry is a journal.log payload's content, for the tests.
type journalEntry struct {
	QueryID   string
	Decisions []DecisionEntry
}

// fuzzEntries returns one populated entry of each binary payload type.
func fuzzEntries() (entity.Record, ResolveEntry, RedecideEntry, journalEntry) {
	q := entity.Record{ID: "q1", Attrs: []entity.Attr{{Name: "title", Value: "sony dsc-120b cybershot"}, {Name: "price", Value: ""}}}
	ds := []DecisionEntry{
		{CandidateID: "r1", BlockScore: 7.25, Probability: 0.9731, Match: true, Method: "llm", Answer: "Yes."},
		{CandidateID: "r2", BlockScore: 1.5, Probability: 0.31, Method: "deferred-local", Deferred: true},
	}
	report := ReportEntry{Candidates: 2, LocalAccepts: 1, LLMPairs: 1, PromptTokens: 412, CompletionTokens: 3,
		Cents: 0.0173, BatchedPairs: 1, DeferredPairs: 1, MatchUsage: cost.Usage{Calls: 1, Pairs: 1, PromptTokens: 412, CompletionTokens: 3}}
	return q,
		ResolveEntry{Query: q, Decisions: ds, Report: report},
		RedecideEntry{QueryID: "q1", Decision: ds[0], PromptTokens: 412, CompletionTokens: 3, Cents: 0.0173},
		journalEntry{QueryID: "q1", Decisions: ds}
}

func encodeJournal(e journalEntry) ([]byte, error) {
	return JournalFrame(e.QueryID, e.Decisions).Payload, nil
}

func decodeJournal(p []byte) (journalEntry, error) {
	q, ds, err := DecodeJournal(p)
	return journalEntry{QueryID: q, Decisions: ds}, err
}

func mustEncode(p []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return p
}

// entryCodec is one binary payload type as functions over payload
// bytes: its decoder, its encoder (version 2) and encodeV1, the
// version-1 layout the codec still reads, driven through the same walk.
type entryCodec struct {
	name             string
	decode           func([]byte) (any, error)
	encode, encodeV1 func(any) []byte
}

func codecOf[T any](name string, decode func([]byte) (T, error), encode func(T) ([]byte, error), walk func(*codec, *T)) entryCodec {
	return entryCodec{
		name:     name,
		decode:   func(p []byte) (any, error) { return decode(p) },
		encode:   func(e any) []byte { return mustEncode(encode(e.(T))) },
		encodeV1: func(e any) []byte { return encodeV1(walk, e.(T)) },
	}
}

var entryCodecs = []entryCodec{
	codecOf("record", DecodeRecord, EncodeRecord, (*codec).record),
	codecOf("resolve", DecodeResolve, EncodeResolve, (*codec).resolve),
	codecOf("redecide", DecodeRedecide, EncodeRedecide, (*codec).redecide),
	codecOf("journal", decodeJournal, encodeJournal, codeJournal),
}

func codeJournal(c *codec, e *journalEntry) {
	c.str(&e.QueryID)
	c.after(e.QueryID)
	c.decisions(&e.Decisions)
}

// encodeV1 writes e in the version-1 layout.
func encodeV1[T any](walk func(*codec, *T), e T) []byte {
	c := codec{b: []byte{binaryV1}, v: binaryV1}
	walk(&c, &e)
	return c.b
}

// codedJournal journals one decision for every method and answer code,
// literal escapes included, and a 400-byte reason answer.
func codedJournal() journalEntry {
	e := journalEntry{QueryID: "wdc-q-1042"}
	for i, m := range append(methods[:], "custom-method") {
		for k, a := range append(answers[:], "Yes.", strings.Repeat("the brands agree; ", 22)+"Final Answer: Yes") {
			e.Decisions = append(e.Decisions, DecisionEntry{CandidateID: fmt.Sprintf("wdc-r-%d", 997+7*i+k),
				BlockScore: float64(i), Probability: float64(k) / 4, Match: k%2 == 0, Method: m, Answer: a, Deferred: i == 8})
		}
	}
	return e
}

// walkAgrees requires WalkJournal to accept exactly the payloads
// DecodeJournal does, with the same query ID, candidates and final
// matches.
func walkAgrees(t *testing.T, data []byte) {
	type walked struct {
		candidate string
		final     bool
	}
	var got, want []walked
	// A used buffer, which the walk may overwrite but not read.
	buf := []byte("stale-candidate-id")
	q, _, werr := WalkJournal(data, buf, func(c []byte, final bool) { got = append(got, walked{string(c), final}) })
	jq, ds, derr := DecodeJournal(data)
	for _, d := range ds {
		want = append(want, walked{d.CandidateID, d.Match && !d.Deferred})
	}
	if (werr == nil) != (derr == nil) || derr == nil && (string(q) != jq || !reflect.DeepEqual(got, want)) {
		t.Fatalf("WalkJournal = %q, %+v, %v; DecodeJournal = %q, %+v, %v", q, got, werr, jq, ds, derr)
	}
}

// FuzzDecodeEntries feeds arbitrary bytes to every binary payload
// decoder — what a CRC-valid frame of a hostile or bit-rotted log
// could carry — and pins the decoding contract: no panic, allocation
// in proportion to the payload length however large the counts it
// announces (a decoded attribute is 16 times wider than its two-byte
// minimum on the wire, a decision 80 bytes wide plus a candidate ID of
// at most 255 bytes it did not consume against its 19-byte minimum,
// and growing a slice element by element allocates up to five times
// its final size in all), decode → encode → decode stable, and trailing
// bytes rejected. Each accepted entry is written in both formats, the
// version-1 layout being the oracle, and both must decode to it.
// WalkJournal accepts exactly the payloads DecodeJournal does, with the
// same query ID, candidates and final matches, in either format.
func FuzzDecodeEntries(f *testing.F) {
	rec, res, red, jou := fuzzEntries()
	for _, valid := range [][]byte{
		mustEncode(EncodeRecord(rec)),
		mustEncode(EncodeResolve(res)),
		mustEncode(EncodeRedecide(red)),
		mustEncode(encodeJournal(jou)),
		// The frame of a resolve that decided nothing, and a deferred
		// match, which is not final.
		mustEncode(encodeJournal(journalEntry{QueryID: "q0"})),
		mustEncode(encodeJournal(journalEntry{QueryID: "q2", Decisions: []DecisionEntry{{CandidateID: "r3", Match: true, Deferred: true}}})),
	} {
		f.Add(valid)
		f.Add(valid[:len(valid)/2])                    // truncation
		f.Add(valid[:len(valid)-1])                    // one byte short
		f.Add(append(append([]byte{}, valid...), 0x0)) // trailing byte
	}
	// Absurd lengths: a 2^63 string, a 2^40-attribute record, a
	// 2^35-decision journal entry, an overlong varint.
	f.Add(append([]byte{binaryV1}, binary.AppendUvarint(nil, 1<<63)...))
	f.Add(append([]byte{binaryV1, 1, 'r'}, binary.AppendUvarint(nil, 1<<40)...))
	f.Add(append([]byte{binaryV1, 1, 'q'}, binary.AppendUvarint(nil, 1<<35)...))
	f.Add(append([]byte{binaryV1}, bytes.Repeat([]byte{0xff}, 11)...))
	f.Add([]byte{})
	f.Add([]byte{0x7f, 0x00})
	// Every method and answer code, both literal escapes and a 400-byte
	// reason answer, in both formats; the version-1 resolve and redecide
	// entries; a version-2 empty frame and a 2^35-decision one; shared
	// past the previous ID, and a method code no value owns.
	f.Add(mustEncode(encodeJournal(codedJournal())))
	f.Add(encodeV1(codeJournal, codedJournal()))
	f.Add(encodeV1((*codec).resolve, res))
	f.Add(encodeV1((*codec).redecide, red))
	f.Add([]byte{binaryV2, 2, 'q', '1', 0})
	f.Add(append([]byte{binaryV2, 1, 'q'}, binary.AppendUvarint(nil, 1<<35)...))
	f.Add(append(append([]byte{binaryV2, 1, 'q', 1, 2, 0}, make([]byte, 16)...), 0))
	f.Add(append(append([]byte{binaryV2, 1, 'q', 1, 0, 1, 'r'}, make([]byte, 16)...), 10<<4))
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(128*len(data) + 64<<10)
		var m0, m1 runtime.MemStats
		walkAgrees(t, data)
		for _, c := range entryCodecs {
			runtime.ReadMemStats(&m0)
			e, err := c.decode(data)
			runtime.ReadMemStats(&m1)
			if got := m1.TotalAlloc - m0.TotalAlloc; got > limit {
				t.Fatalf("%s: %d bytes allocated decoding %d", c.name, got, len(data))
			}
			if err != nil {
				continue
			}
			v1, v2 := c.encodeV1(e), c.encode(e)
			if own := map[byte][]byte{binaryV1: v1, binaryV2: v2}[data[0]]; len(own) > len(data) {
				t.Fatalf("%s: %d payload bytes re-encode to %d in their format", c.name, len(data), len(own))
			}
			for _, p := range [][]byte{v1, v2} {
				// Bytes, not reflect.DeepEqual: a NaN score is equal to itself.
				got, err := c.decode(p)
				if err != nil {
					t.Fatalf("%s: re-encoded version-%d payload does not decode: %v", c.name, p[0], err)
				}
				if again := c.encode(got); !bytes.Equal(again, v2) {
					t.Fatalf("%s: the version-%d payload decodes to another entry:\n%x\n%x", c.name, p[0], v2, again)
				}
				if _, err := c.decode(append(append([]byte{}, p...), 0)); err == nil {
					t.Fatalf("%s: trailing byte accepted", c.name)
				}
				if c.name == "journal" {
					walkAgrees(t, p)
				}
			}
		}
	})
}
