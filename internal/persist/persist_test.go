package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
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
	if _, err := os.Stat(filepath.Join(dir, SnapshotFile+".tmp")); !os.IsNotExist(err) {
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

// TestSnapshotVersionMismatch: every snapshot.json this build cannot
// read in full is refused with the upgrade path, never opened without
// part of its state; the "records": null an older build wrote beside
// its index files is not such a part. A version-2 file opens with its
// groups, which version 3 no longer writes.
func TestSnapshotVersionMismatch(t *testing.T) {
	for name, tc := range map[string]struct {
		json   string
		ok     bool
		groups int // V2Groups read back, when ok
	}{
		"future version":     {json: `{"version":99}`},
		"version 1":          {json: `{"version":1,"records":null,"groups":[["q1","r1"]],"journal":[{"query_id":"q1","candidate_id":"r1"}]}`},
		"inline records":     {json: `{"version":2,"records":[{"record":{"ID":"r1","Attrs":null}}],"journal_bytes":0}`},
		"records == null":    {json: `{"version":2,"records":null,"groups":[["q1","r1"]],"index_epoch":3,"index_shards":8}`, ok: true, groups: 1},
		"version 2, groups":  {json: `{"version":2,"groups":[["q1","r1"],["q2"]],"journal_bytes":64,"index_epoch":3,"index_shards":8}`, ok: true, groups: 2},
		"version 3":          {json: `{"version":3,"journal_bytes":64,"totals":{},"resolves":2,"index_epoch":3,"index_shards":8}`, ok: true},
		"version 3, records": {json: `{"version":3,"records":[{"record":{"ID":"r1","Attrs":null}}],"index_epoch":3,"index_shards":8}`},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SnapshotFile), []byte(tc.json), 0o644); err != nil {
			t.Fatal(err)
		}
		s, ok, err := ReadSnapshot(dir)
		if tc.ok {
			if err != nil || !ok || s.IndexEpoch != 3 || s.IndexShards != 8 || len(s.V2Groups) != tc.groups {
				t.Errorf("%s: ReadSnapshot = %+v, %v, %v", name, s, ok, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "Upgrading a persistence directory") {
			t.Errorf("%s: ReadSnapshot error = %v, want a refusal naming the upgrade path", name, err)
		}
	}
}

func TestEntryCodecs(t *testing.T) {
	r := entity.Record{ID: "r9", Attrs: []entity.Attr{{Name: "title", Value: "epson printer"}}}
	p, err := EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecord(p)
	if err != nil || !reflect.DeepEqual(got, r) {
		t.Errorf("record codec: %+v err=%v", got, err)
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
	gotRV, err := DecodeResolve(p)
	if err != nil || !reflect.DeepEqual(gotRV, rv) {
		t.Errorf("resolve codec: %+v err=%v", gotRV, err)
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
// RemoveIndexFiles keeps the listed generation while sweeping the
// rest, temporary files of any epoch included.
func TestIndexFileCleanup(t *testing.T) {
	dir := t.TempDir()
	if got := MaxIndexEpoch(OS, dir); got != 0 {
		t.Fatalf("MaxIndexEpoch on empty dir = %d, want 0", got)
	}
	for _, name := range []string{
		IndexFileName(1, 0), IndexFileName(1, 1),
		IndexFileName(2, 0),
		IndexFileName(12, 0), IndexFileName(12, 1) + ".tmp",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := MaxIndexEpoch(OS, dir); got != 12 {
		t.Fatalf("MaxIndexEpoch = %d, want 12", got)
	}
	RemoveIndexFiles(OS, dir, 12)
	for name, want := range map[string]bool{
		IndexFileName(1, 0):           false,
		IndexFileName(1, 1):           false,
		IndexFileName(2, 0):           false,
		IndexFileName(12, 0):          true,
		IndexFileName(12, 1) + ".tmp": false,
	} {
		_, err := os.Stat(filepath.Join(dir, name))
		if exists := err == nil; exists != want {
			t.Errorf("%s exists=%v, want %v", name, exists, want)
		}
	}
}

// TestBinaryCodecs pins the binary payloads: every entry type round
// trips bit for bit (NaN and negative zero included), and a payload of
// another format is refused.
func TestBinaryCodecs(t *testing.T) {
	_, _, red, jou := fuzzEntries()
	_, res, _, _ := fuzzEntries()                                           // decisions of its own: the NaN stays out of jou
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
	if got, err := DecodeRedecide(mustEncode(EncodeRedecide(red))); err != nil || !reflect.DeepEqual(got, red) {
		t.Errorf("redecide codec: %+v err=%v", got, err)
	}
	if got, err := decodeJournal(mustEncode(encodeJournal(jou))); err != nil || !reflect.DeepEqual(got, jou) {
		t.Errorf("journal codec: %+v err=%v", got, err)
	}
	// Version 1 still decodes; version 2 front-codes the candidate ID
	// and codes the flags, the answer and the method in one byte.
	if got, err := DecodeResolve(encodeV1((*codec).resolve, res)); err != nil || !bytes.Equal(mustEncode(EncodeResolve(got)), p) {
		t.Errorf("version-1 resolve entry decodes to %+v, %v", got, err)
	}
	want := append(append([]byte{binaryV2, 6, 'w', 'd', 'c', '-', 'q', '1', 1, 4, 2, 'r', '7'}, make([]byte, 16)...), 1|2<<2|4<<4)
	if got := JournalFrame("wdc-q1", []DecisionEntry{{CandidateID: "wdc-r7", Match: true, Method: "llm", Answer: "Yes"}}).Payload; !bytes.Equal(got, want) {
		t.Errorf("version-2 journal payload:\n%x, want\n%x", got, want)
	}
	for name, bad := range map[string][]byte{
		"empty":                       {},
		"unknown format":              {0x03, 0x00},
		"JSON":                        []byte(`{"query_id":"q1","decisions":[]}`),
		"unowned flag":                append(append([]byte{binaryV1, 1, 'q', 1, 1, 'r'}, make([]byte, 16)...), 0x04, 0, 0),
		"shared past the previous ID": append(append([]byte{binaryV2, 1, 'q', 1, 2, 0}, make([]byte, 16)...), 0),
		"unowned method code":         append(append([]byte{binaryV2, 1, 'q', 1, 0, 1, 'r'}, make([]byte, 16)...), 10<<4),
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
	FS
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
	fsys := &countingFS{FS: OS, failAt: 2}
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

// TestReadEntry pins reading a frame back where AppendEntries and
// recovery say it is, and the typed failure of a frame damaged since.
func TestReadEntry(t *testing.T) {
	path := walPath(t)
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(EntryRecord, []byte("first")); err != nil {
		t.Fatal(err)
	}
	batch := []Entry{{Type: EntryJournal, Payload: []byte("second")}, {Type: EntryJournal, Payload: []byte("third")}}
	if err := w.AppendEntries(batch); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w, rec := mustOpen(t, path)
	defer w.Close()
	if len(rec.Entries) != 3 || rec.Entries[1].Offset != batch[0].Offset || rec.Entries[2].Offset != batch[1].Offset {
		t.Fatalf("recovered offsets %+v, appended %d and %d", rec.Entries, batch[0].Offset, batch[1].Offset)
	}
	for _, e := range rec.Entries {
		got, err := w.ReadEntry(e.Offset, len(e.Payload))
		if err != nil || got.Type != e.Type || !bytes.Equal(got.Payload, e.Payload) {
			t.Errorf("ReadEntry(%d) = %+v, %v, want %+v", e.Offset, got, err, e)
		}
	}
	// Damage the second frame's payload underneath the handle.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'S'}, batch[0].Offset+headerSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for name, read := range map[string]func() error{
		"flipped payload": func() error { _, err := w.ReadEntry(batch[0].Offset, len("second")); return err },
		"wrong length":    func() error { _, err := w.ReadEntry(batch[1].Offset, len("third")+1); return err },
		"past the end":    func() error { _, err := w.ReadEntry(w.Bytes(), 1); return err },
	} {
		if err := read(); !errors.Is(err, ErrJournalTorn) {
			t.Errorf("%s: ReadEntry = %v, want ErrJournalTorn", name, err)
		}
	}
	if _, err := w.ReadEntry(batch[1].Offset, len("third")); err != nil {
		t.Errorf("intact frame beside the damaged one: %v", err)
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
