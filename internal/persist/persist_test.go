package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"llm4em/internal/entity"
)

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), WALFile)
}

func mustOpen(t *testing.T, path string) (*WAL, Recovery) {
	t.Helper()
	w, rec, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	return w, rec
}

func TestWALRoundTrip(t *testing.T) {
	path := walPath(t)
	w, rec := mustOpen(t, path)
	if len(rec.Entries) != 0 || rec.TruncatedTail {
		t.Fatalf("fresh WAL recovery = %+v", rec)
	}
	payloads := [][]byte{[]byte("one"), {}, []byte("three-three-three")}
	types := []EntryType{EntryRecord, EntryResolve, EntryRecord}
	for i, p := range payloads {
		if err := w.Append(types[i], p); err != nil {
			t.Fatal(err)
		}
	}
	if w.Entries() != 3 {
		t.Errorf("Entries = %d, want 3", w.Entries())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec := mustOpen(t, path)
	defer w2.Close()
	if rec.TruncatedTail {
		t.Error("clean log reported a truncated tail")
	}
	if len(rec.Entries) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(rec.Entries))
	}
	for i, e := range rec.Entries {
		if e.Type != types[i] || !bytes.Equal(e.Payload, payloads[i]) {
			t.Errorf("entry %d = {%d %q}, want {%d %q}", i, e.Type, e.Payload, types[i], payloads[i])
		}
	}
	// The reopened log appends cleanly after the replayed entries.
	if err := w2.Append(EntryResolve, []byte("four")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, rec = mustOpen(t, path)
	if len(rec.Entries) != 4 {
		t.Errorf("after reopen+append: %d entries, want 4", len(rec.Entries))
	}
}

// TestWALTruncatedTail covers the crash-mid-append signature: a
// partial frame at the end of the log is dropped, everything before
// it survives, and the file is truncated so new appends are clean.
func TestWALTruncatedTail(t *testing.T) {
	for name, tear := range map[string][]byte{
		"partial header":  {byte(EntryRecord), 0xff},
		"partial payload": {byte(EntryRecord), 0x10, 0x00, 0x00, 0x00, 'a', 'b'},
		"huge length":     {byte(EntryRecord), 0xff, 0xff, 0xff, 0x7f, 'x', 'y', 'z', 0, 0, 0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			path := walPath(t)
			w, _ := mustOpen(t, path)
			if err := w.Append(EntryRecord, []byte("kept")); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tear); err != nil {
				t.Fatal(err)
			}
			f.Close()

			w2, rec := mustOpen(t, path)
			if !rec.TruncatedTail || rec.DroppedBytes != int64(len(tear)) {
				t.Errorf("recovery = %+v, want truncated tail of %d bytes", rec, len(tear))
			}
			if len(rec.Entries) != 1 || string(rec.Entries[0].Payload) != "kept" {
				t.Fatalf("entries = %+v, want the pre-tear entry", rec.Entries)
			}
			// Appending after recovery yields a clean two-entry log.
			if err := w2.Append(EntryResolve, []byte("after")); err != nil {
				t.Fatal(err)
			}
			w2.Close()
			_, rec = mustOpen(t, path)
			if rec.TruncatedTail || len(rec.Entries) != 2 {
				t.Errorf("post-recovery log: %+v, want 2 clean entries", rec)
			}
		})
	}
}

// TestWALCorruptCRC flips a payload bit of the final entry: the
// checksum must reject it.
func TestWALCorruptCRC(t *testing.T) {
	path := walPath(t)
	w, _ := mustOpen(t, path)
	if err := w.Append(EntryRecord, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(EntryRecord, []byte("last")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-crcSize-1] ^= 0x01 // corrupt the last payload byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, rec := mustOpen(t, path)
	defer w2.Close()
	if !rec.TruncatedTail {
		t.Error("corrupt CRC not detected")
	}
	if len(rec.Entries) != 1 || string(rec.Entries[0].Payload) != "first" {
		t.Errorf("entries = %+v, want only the intact first entry", rec.Entries)
	}
}

func TestWALReset(t *testing.T) {
	path := walPath(t)
	w, _ := mustOpen(t, path)
	if err := w.Append(EntryRecord, []byte("gone after reset")); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Bytes() != 0 {
		t.Errorf("Bytes after Reset = %d", w.Bytes())
	}
	if err := w.Append(EntryResolve, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, rec := mustOpen(t, path)
	if len(rec.Entries) != 1 || string(rec.Entries[0].Payload) != "fresh" {
		t.Errorf("after reset: %+v, want only the fresh entry", rec.Entries)
	}
}

func TestWALClosed(t *testing.T) {
	w, _ := mustOpen(t, walPath(t))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // double close is a no-op
		t.Errorf("second Close: %v", err)
	}
	if err := w.Append(EntryRecord, nil); err != ErrClosed {
		t.Errorf("Append on closed WAL: %v, want ErrClosed", err)
	}
	if err := w.Sync(); err != ErrClosed {
		t.Errorf("Sync on closed WAL: %v, want ErrClosed", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadSnapshot(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	s := &Snapshot{
		Records: []RecordEntry{{Record: entity.Record{
			ID:    "r1",
			Attrs: []entity.Attr{{Name: "title", Value: "sony camera"}},
		}}},
		Groups:       [][]string{{"q1", "r1"}, {"r2"}},
		JournalBytes: 4096,
		Totals:       ReportEntry{Candidates: 3, LLMPairs: 1, Cents: 0.25},
		Resolves:     2,
	}
	if err := WriteSnapshot(dir, s); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("ReadSnapshot: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("snapshot round trip:\ngot  %+v\nwant %+v", got, s)
	}
	// No temporary file lingers.
	if _, err := os.Stat(filepath.Join(dir, snapshotTmp)); !os.IsNotExist(err) {
		t.Errorf("snapshot tmp file left behind: %v", err)
	}
	// Overwriting is atomic and complete.
	s.Resolves = 9
	if err := WriteSnapshot(dir, s); err != nil {
		t.Fatal(err)
	}
	got, _, err = ReadSnapshot(dir)
	if err != nil || got.Resolves != 9 {
		t.Errorf("rewritten snapshot Resolves = %v err=%v", got.Resolves, err)
	}
}

func TestSnapshotVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(dir); err == nil {
		t.Error("future snapshot version accepted")
	}
}

func TestEntryCodecs(t *testing.T) {
	r := entity.Record{ID: "r9", Attrs: []entity.Attr{{Name: "title", Value: "epson printer"}}}
	p, err := EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	re, err := DecodeRecord(p)
	if err != nil || !reflect.DeepEqual(re.Record, r) {
		t.Errorf("record codec: %+v err=%v", re, err)
	}
	rv := ResolveEntry{
		Query: entity.Record{ID: "q1"},
		Decisions: []DecisionEntry{{
			CandidateID: "r9", Match: true, Method: "llm", Answer: "Yes.",
		}},
		Report: ReportEntry{Candidates: 1, LLMPairs: 1, PromptTokens: 120},
	}
	p, err = EncodeResolve(rv)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResolve(p)
	if err != nil || !reflect.DeepEqual(got, rv) {
		t.Errorf("resolve codec: %+v err=%v", got, err)
	}
	if _, err := DecodeRecord([]byte("{")); err == nil {
		t.Error("malformed record payload accepted")
	}
	if _, err := DecodeResolve([]byte("{")); err == nil {
		t.Error("malformed resolve payload accepted")
	}
}

// TestIndexFileCleanup pins the index-generation housekeeping:
// MaxIndexEpoch reads the highest epoch off the file names, and
// RemoveIndexFiles keeps every listed generation — the committed one
// plus any quarantined unreadable one — while sweeping the rest.
func TestIndexFileCleanup(t *testing.T) {
	dir := t.TempDir()
	if got := MaxIndexEpoch(dir); got != 0 {
		t.Fatalf("MaxIndexEpoch on empty dir = %d, want 0", got)
	}
	for _, name := range []string{
		IndexFileName(1, 0), IndexFileName(1, 1),
		IndexFileName(2, 0),
		IndexFileName(12, 0),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := MaxIndexEpoch(dir); got != 12 {
		t.Fatalf("MaxIndexEpoch = %d, want 12", got)
	}
	RemoveIndexFiles(dir, 12, 1)
	for name, want := range map[string]bool{
		IndexFileName(1, 0):  true,
		IndexFileName(1, 1):  true,
		IndexFileName(2, 0):  false,
		IndexFileName(12, 0): true,
	} {
		_, err := os.Stat(filepath.Join(dir, name))
		if exists := err == nil; exists != want {
			t.Errorf("%s exists=%v, want %v", name, exists, want)
		}
	}
}

// TestBinaryCodecs pins the binary payloads: every entry type round
// trips bit for bit (NaN and negative zero included), stays well under
// its JSON size, and the version-1 JSON payloads still decode.
func TestBinaryCodecs(t *testing.T) {
	rec, res, red, jou := fuzzEntries()
	res.Decisions[0].Probability = math.Float64frombits(0x7ff8000000000123) // a NaN with a payload
	res.Decisions[1].BlockScore = math.Copysign(0, -1)
	p := mustEncode(EncodeResolve(res))
	got, err := DecodeResolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if again := mustEncode(EncodeResolve(got)); !bytes.Equal(again, p) {
		t.Errorf("resolve entry not bit-identical across a round trip:\n%x\n%x", p, again)
	}
	res.Decisions[0].Probability = 0.9731 // encoding/json refuses NaN
	asJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if p = mustEncode(EncodeResolve(res)); 3*len(p) > len(asJSON) {
		t.Errorf("binary resolve entry is %d bytes, JSON %d: want at least 3x smaller", len(p), len(asJSON))
	}
	// Version-1 payloads: JSON objects.
	if got, err = DecodeResolve(asJSON); err != nil || !reflect.DeepEqual(got, res) {
		t.Errorf("version-1 resolve payload: %+v err=%v", got, err)
	}
	recJSON, _ := json.Marshal(rec)
	if got, err := DecodeRecord(recJSON); err != nil || !reflect.DeepEqual(got, rec) {
		t.Errorf("version-1 record payload: %+v err=%v", got, err)
	}
	redJSON, _ := json.Marshal(red)
	if got, err := DecodeRedecide(redJSON); err != nil || !reflect.DeepEqual(got, red) {
		t.Errorf("version-1 redecide payload: %+v err=%v", got, err)
	}
	if got, err := DecodeRedecide(mustEncode(EncodeRedecide(red))); err != nil || !reflect.DeepEqual(got, red) {
		t.Errorf("redecide codec: %+v err=%v", got, err)
	}
	if got, err := decodeJournal(mustEncode(encodeJournal(jou))); err != nil || !reflect.DeepEqual(got, jou) {
		t.Errorf("journal codec: %+v err=%v", got, err)
	}
	for name, bad := range map[string][]byte{
		"empty":          {},
		"unknown format": {0x02, 0x00},
		"unowned flag":   append(append([]byte{binaryV1, 1, 'q', 1, 1, 'r'}, make([]byte, 16)...), 0x04, 0, 0),
	} {
		if _, _, err := DecodeJournal(bad); err == nil {
			t.Errorf("%s payload accepted", name)
		}
	}
}

// TestDecodeAllocatesWhatItConsumes: a record announcing half a
// million attributes that the payload could hold, with garbage where
// the third should start, fails before it allocates for the rest.
func TestDecodeAllocatesWhatItConsumes(t *testing.T) {
	const n = 1 << 19
	p := append([]byte{binaryV1, 0}, binary.AppendUvarint(nil, n)...)
	p = append(p, make([]byte, 2*n)...)
	copy(p[len(p)-2*n+4:], bytes.Repeat([]byte{0xff}, 11)) // an overlong length
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := DecodeRecord(p)
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; err == nil || got > 4<<10 {
		t.Errorf("decode of a 1 MiB payload broken at its third attribute: err=%v, %d bytes allocated", err, got)
	}
}

// countingFS counts the Write calls of the files it opens and fails
// the one at failAt (1-based) after writing half its bytes.
type countingFS struct {
	writes, failAt int
}

type countingFile struct {
	File
	fs *countingFS
}

func (c *countingFS) OpenFile(path string) (File, error) {
	f, err := OS.OpenFile(path)
	return &countingFile{File: f, fs: c}, err
}

func (f *countingFile) Write(p []byte) (int, error) {
	if f.fs.writes++; f.fs.writes == f.fs.failAt {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errors.New("injected short write")
	}
	return f.File.Write(p)
}

// TestAppendEntriesOneWrite pins the batch append: any number of
// entries cost one write, and a failed write rolls the whole batch
// back to the previous entry boundary, leaving the log appendable.
func TestAppendEntriesOneWrite(t *testing.T) {
	path := walPath(t)
	fsys := &countingFS{failAt: 2}
	w, _, err := OpenLog(fsys, path, -1)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Entry, 200)
	for i := range batch {
		batch[i] = Entry{Type: EntryRecord, Payload: []byte{byte(i), 'x'}}
	}
	if err := w.AppendEntries(batch); err != nil {
		t.Fatal(err)
	}
	if fsys.writes != 1 || w.Entries() != 200 {
		t.Fatalf("200 entries took %d writes and count %d, want 1 and 200", fsys.writes, w.Entries())
	}
	size := w.Bytes()
	if err := w.AppendEntries(batch); !errors.Is(err, ErrWALWrite) {
		t.Fatalf("faulted batch = %v, want ErrWALWrite", err)
	}
	if w.Bytes() != size || w.Entries() != 200 {
		t.Errorf("failed batch moved the log to %d bytes, %d entries", w.Bytes(), w.Entries())
	}
	if err := w.Append(EntryResolve, []byte("after")); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	w.Close()
	_, rec := mustOpen(t, path)
	if rec.TruncatedTail || len(rec.Entries) != 201 || string(rec.Entries[200].Payload) != "after" {
		t.Errorf("reopen: truncated=%v entries=%d, want 201 clean", rec.TruncatedTail, len(rec.Entries))
	}
}

// TestOpenLogCommitted covers the committed-prefix contract: bytes beyond
// the committed size — whole frames or a torn one — are cut away,
// while a file that ends or breaks inside it fails with the typed
// error and is left untouched.
func TestOpenLogCommitted(t *testing.T) {
	_, _, _, jou := fuzzEntries()
	payload := mustEncode(encodeJournal(jou))
	two := append(frame(EntryJournal, payload), frame(EntryJournal, payload)...)
	committed := int64(len(two))
	for name, tc := range map[string]struct {
		file    []byte
		wantErr bool
	}{
		"exact":                   {file: two},
		"whole frame beyond":      {file: append(append([]byte{}, two...), frame(EntryJournal, payload)...)},
		"torn frame beyond":       {file: append(append([]byte{}, two...), frame(EntryJournal, payload)[:9]...)},
		"shorter than committed":  {file: two[:len(two)-1], wantErr: true},
		"empty":                   {wantErr: true},
		"bit flip inside":         {file: append(append([]byte{}, two[:20]...), append([]byte{two[20] ^ 1}, two[21:]...)...), wantErr: true},
		"frames straddle the end": {file: append(append([]byte{}, two[:len(two)-4]...), make([]byte, 64)...), wantErr: true},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), JournalFile)
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			w, rec, err := OpenLog(OS, path, committed)
			if tc.wantErr {
				if !errors.Is(err, ErrJournalTorn) {
					t.Fatalf("err = %v, want ErrJournalTorn", err)
				}
				if after, _ := os.ReadFile(path); !bytes.Equal(after, tc.file) {
					t.Error("a refused journal was modified")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if len(rec.Entries) != 2 || !bytes.Equal(rec.Entries[1].Payload, payload) || rec.TruncatedTail != (len(tc.file) > len(two)) {
				t.Errorf("recovery = %+v, want the two committed entries", rec)
			}
			if fi, _ := os.Stat(path); fi.Size() != committed || w.Bytes() != committed {
				t.Errorf("journal is %d bytes on disk, %d in the handle, want %d", fi.Size(), w.Bytes(), committed)
			}
		})
	}
	// Nothing committed: whatever a crashed first checkpoint left goes.
	path := filepath.Join(t.TempDir(), JournalFile)
	if err := os.WriteFile(path, two, 0o644); err != nil {
		t.Fatal(err)
	}
	w, rec, err := OpenLog(OS, path, 0)
	if err != nil || len(rec.Entries) != 0 || w.Bytes() != 0 {
		t.Fatalf("uncommitted journal: entries=%d err=%v", len(rec.Entries), err)
	}
	w.Close()
}

// TestReadSnapshotVersion1 pins the decode-only legacy reader: the
// inline journal surfaces as LegacyJournal, and writing the snapshot
// back produces version 2 without a journal key.
func TestReadSnapshotVersion1(t *testing.T) {
	dir := t.TempDir()
	v1 := `{"version":1,"records":null,"groups":[["q1","r1"]],"resolves":1,"totals":{"candidates":1},
		"journal":[{"query_id":"q1","candidate_id":"r1","block_score":3.5,"probability":0.9,"match":true,"method":"llm","answer":"Yes"}]}`
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ok, err := ReadSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("ReadSnapshot: ok=%v err=%v", ok, err)
	}
	want := []DecisionEntry{{QueryID: "q1", CandidateID: "r1", BlockScore: 3.5, Probability: 0.9, Match: true, Method: "llm", Answer: "Yes"}}
	if !reflect.DeepEqual(s.LegacyJournal, want) || s.JournalBytes != 0 || s.Resolves != 1 {
		t.Errorf("version-1 snapshot = %+v", s)
	}
	if err := WriteSnapshot(dir, s); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if _, has := keys["journal"]; has || string(keys["version"]) != "2" {
		t.Errorf("rewritten snapshot: version %s, journal key present=%v", keys["version"], has)
	}
	if _, has := keys["journal_bytes"]; !has {
		t.Error("rewritten snapshot lacks journal_bytes")
	}
}
