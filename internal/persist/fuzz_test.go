package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
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
// truncation, stable replay across reopen, and appendability on top of
// whatever survived.
func FuzzWALReplay(f *testing.F) {
	rec, res, _, _ := fuzzEntries()
	valid := frame(EntryRecord, mustEncode(EncodeRecord(rec.Record)))
	two := append(append([]byte{}, valid...), frame(EntryResolve, mustEncode(EncodeResolve(res)))...)
	legacy := frame(EntryRecord, []byte(`{"record":{"ID":"r1","Attrs":null}}`))
	huge := frame(EntryRecord, nil)
	binary.LittleEndian.PutUint32(huge[1:], 1<<30) // corrupt length field
	for _, seed := range [][]byte{
		nil,
		valid,
		two,
		append(legacy, two...),         // a version-1 JSON payload ahead of binary ones
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
func fuzzEntries() (RecordEntry, ResolveEntry, RedecideEntry, journalEntry) {
	q := entity.Record{ID: "q1", Attrs: []entity.Attr{{Name: "title", Value: "sony dsc-120b cybershot"}, {Name: "price", Value: ""}}}
	ds := []DecisionEntry{
		{CandidateID: "r1", BlockScore: 7.25, Probability: 0.9731, Match: true, Method: "llm", Answer: "Yes."},
		{CandidateID: "r2", BlockScore: 1.5, Probability: 0.31, Method: "deferred-local", Deferred: true},
	}
	report := ReportEntry{Candidates: 2, LocalAccepts: 1, LLMPairs: 1, PromptTokens: 412, CompletionTokens: 3,
		Cents: 0.0173, BatchedPairs: 1, DeferredPairs: 1, MatchUsage: cost.Usage{Calls: 1, Pairs: 1, PromptTokens: 412, CompletionTokens: 3}}
	return RecordEntry{Record: q},
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

// entryCodecs pairs each binary payload type's decoder with its
// encoder, as functions over payload bytes.
var entryCodecs = []struct {
	name   string
	recode func([]byte) ([]byte, error)
}{
	{"record", func(p []byte) ([]byte, error) {
		e, err := DecodeRecord(p)
		if err != nil {
			return nil, err
		}
		return EncodeRecord(e.Record)
	}},
	{"resolve", func(p []byte) ([]byte, error) {
		e, err := DecodeResolve(p)
		if err != nil {
			return nil, err
		}
		return EncodeResolve(e)
	}},
	{"redecide", func(p []byte) ([]byte, error) {
		e, err := DecodeRedecide(p)
		if err != nil {
			return nil, err
		}
		return EncodeRedecide(e)
	}},
	{"journal", func(p []byte) ([]byte, error) {
		e, err := decodeJournal(p)
		if err != nil {
			return nil, err
		}
		return encodeJournal(e)
	}},
}

// FuzzDecodeEntries feeds arbitrary bytes to every binary payload
// decoder — what a CRC-valid frame of a hostile or bit-rotted log
// could carry — and pins the decoding contract: no panic, allocation
// in proportion to the payload length however large the counts it
// announces (a decoded attribute is 16 times wider than its two-byte
// minimum on the wire, nothing is wider, and growing a slice element
// by element allocates up to five times its final size in all),
// decode → encode → decode stable, and trailing bytes rejected.
func FuzzDecodeEntries(f *testing.F) {
	rec, res, red, jou := fuzzEntries()
	for _, valid := range [][]byte{
		mustEncode(EncodeRecord(rec.Record)),
		mustEncode(EncodeResolve(res)),
		mustEncode(EncodeRedecide(red)),
		mustEncode(encodeJournal(jou)),
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 && data[0] == '{' {
			return // the version-1 JSON reader is encoding/json's to fuzz
		}
		for _, c := range entryCodecs {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			first, err := c.recode(data)
			runtime.ReadMemStats(&m1)
			if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(128*len(data)+64<<10); got > limit {
				t.Fatalf("%s: %d bytes allocated decoding %d", c.name, got, len(data))
			}
			if err != nil {
				continue
			}
			if len(first) > len(data) {
				t.Fatalf("%s: %d payload bytes re-encode to %d", c.name, len(data), len(first))
			}
			second, err := c.recode(first)
			if err != nil {
				t.Fatalf("%s: re-encoded payload does not decode: %v", c.name, err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("%s: decode → encode → decode is not stable:\n%x\n%x", c.name, first, second)
			}
			if _, err := c.recode(append(append([]byte{}, first...), 0)); err == nil {
				t.Fatalf("%s: trailing byte accepted", c.name)
			}
		}
	})
}
