// Package persist is the durability layer of the online resolution
// store: append-only logs of typed, length-prefixed, CRC-checked
// frames plus an atomically written snapshot file. Together they make
// a store's state survive process restarts without re-paying LLM
// calls, at a checkpoint cost that follows what happened since the
// last one, not the store's lifetime.
//
// Durability layout inside a persistence directory:
//
//	snapshot.json      groups, totals, deferred queue, index epoch and
//	                   journal_bytes (atomic tmp+rename: the commit point)
//	journal.log        every decided pair, append-only; only its first
//	                   journal_bytes bytes are committed
//	wal.log            entries appended since that snapshot
//	index-<e>-<n>.emx  the records, written by the blocking layer
//
// A checkpoint writes the index files, appends the decisions journaled
// since the last one to journal.log and fsyncs it, renames
// snapshot.json into place and resets wal.log. Recovery reads the
// snapshot and the committed prefix of journal.log, truncating what a
// crashed checkpoint left beyond it, and replays wal.log on top; a
// torn WAL tail (a crash mid-append) is dropped and truncated away.
// Replay must be idempotent on the caller's side: a crash between
// snapshot rename and WAL reset replays entries the snapshot and the
// journal already contain. Payloads are the binary layouts of
// entries.go; version-1 stores wrote JSON payloads and kept the journal
// inline in snapshot.json — both stay readable, neither is written.
//
// The package is deliberately single-writer: one process owns a
// persistence directory at a time.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"llm4em/internal/telemetry"
)

// EntryType tags the payload of one WAL entry.
type EntryType uint8

// WAL entry types.
const (
	// EntryRecord is a record ingested into the store (RecordEntry).
	EntryRecord EntryType = 1
	// EntryResolve is one resolve call's fresh decisions and cost
	// accounting (ResolveEntry).
	EntryResolve EntryType = 2
	// EntryRedecide is the background re-escalator's final decision for
	// a pair that an earlier EntryResolve deferred during degraded mode
	// (RedecideEntry). Replay overwrites the deferred journal entry with
	// it; builds predating the resilience layer skip it as an unknown
	// type.
	EntryRedecide EntryType = 3
	// EntryJournal is one query's journaled decisions (JournalFrame).
	EntryJournal EntryType = 4
)

// Entry is one typed WAL payload.
type Entry struct {
	Type    EntryType
	Payload []byte
}

// Frame layout: [type:1][len:4 LE][payload:len][crc32:4 LE], where the
// checksum covers the type byte, the length field and the payload, so
// a torn or bit-flipped frame never replays silently.
const (
	headerSize = 1 + 4
	crcSize    = 4
	// maxPayload bounds a single entry. A corrupt length field would
	// otherwise ask recovery to allocate gigabytes; anything larger
	// than this is treated as tail corruption.
	maxPayload = 1 << 26 // 64 MiB
	// maxKeptBuffer bounds the frame buffer a WAL keeps between appends.
	maxKeptBuffer = 1 << 20
)

// ErrClosed marks operations on a closed WAL.
var ErrClosed = errors.New("persist: WAL is closed")

// ErrWALWrite marks a failed WAL write path: a short write, an fsync
// error, or a full disk (ENOSPC). Callers match it with errors.Is to
// distinguish durability failures from logic errors; the store stays
// reopenable from the last durable prefix — a failed append rolls the
// file back to the previous entry boundary, and recovery's torn-tail
// truncation covers the case where even the rollback failed.
var ErrWALWrite = errors.New("persist: WAL write failed")

// ErrJournalTorn marks a journal.log lacking bytes its snapshot committed.
var ErrJournalTorn = errors.New("persist: journal.log is shorter than or corrupt within the committed journal_bytes")

// File is the handle the WAL writes through. *os.File satisfies it;
// the chaos harness (internal/chaos) substitutes a fault-injecting
// implementation to test the write path's failure behaviour.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// FS opens WAL files. The OS implementation is the default; tests
// inject fault-wrapping ones.
type FS interface {
	// OpenFile opens path read-write, creating it if absent.
	OpenFile(path string) (File, error)
}

type osFS struct{}

func (osFS) OpenFile(path string) (File, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
}

// OS is the real-filesystem FS.
var OS FS = osFS{}

// WAL is an append-only log file. It is not safe for concurrent use;
// callers serialize access (internal/resolve does).
type WAL struct {
	f       File
	entries uint64 // appended through this handle
	bytes   int64  // current file size
	// failed is set when a failed append could not be rolled back to
	// the previous entry boundary: the in-memory offset no longer
	// matches the file, so further appends would write after a torn
	// frame and be silently dropped by the next recovery scan.
	failed bool
	buf    []byte // frame buffer reused across appends
	// met instruments append and fsync latency; the zero value is
	// disabled (SetMetrics wires it).
	met telemetry.PersistMetrics
}

// SetMetrics wires telemetry instruments into the log. Call before
// the WAL is shared (the resolve store does, right after OpenWAL).
func (w *WAL) SetMetrics(m telemetry.PersistMetrics) { w.met = m }

// Recovery reports what OpenWAL found in an existing log.
type Recovery struct {
	// Entries are the valid entries replayed from the log, in append
	// order.
	Entries []Entry
	// TruncatedTail reports that the log ended in a torn or corrupt
	// frame — the signature of a crash mid-append — which was dropped
	// and truncated away.
	TruncatedTail bool
	// DroppedBytes is the size of the truncated tail.
	DroppedBytes int64
}

// OpenWAL opens (creating if absent) the log at path, replays its
// valid entries and truncates any torn tail so subsequent Appends
// extend a clean log.
func OpenWAL(path string) (*WAL, Recovery, error) {
	return OpenLog(OS, path, -1)
}

// OpenLog is OpenWAL over an injected filesystem when committed < 0.
// Otherwise it opens the decision journal and returns the entries of
// its first committed bytes, the prefix a snapshot's journal_bytes
// vouches for. What lies beyond was left by a checkpoint that crashed
// before its rename — wal.log still holds those decisions — and is
// truncated away; a shorter file, or a prefix that is not a run of
// intact frames, fails with ErrJournalTorn and is left untouched.
func OpenLog(fsys FS, path string, committed int64) (*WAL, Recovery, error) {
	f, err := fsys.OpenFile(path)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("persist: open %s: %w", filepath.Base(path), err)
	}
	rec, validBytes, err := scan(f, committed)
	if err == nil && committed >= 0 && validBytes != committed {
		err = fmt.Errorf("%w: %d intact bytes of %d committed", ErrJournalTorn, validBytes, committed)
	}
	if err == nil && rec.TruncatedTail {
		if err = f.Truncate(validBytes); err != nil {
			err = fmt.Errorf("persist: truncate torn tail: %w", err)
		}
	}
	if err == nil {
		if _, err = f.Seek(validBytes, io.SeekStart); err != nil {
			err = fmt.Errorf("persist: seek log end: %w", err)
		}
	}
	if err != nil {
		f.Close()
		return nil, Recovery{}, err
	}
	return &WAL{f: f, bytes: validBytes}, rec, nil
}

// scan reads f in one pass and returns its valid entries — payloads
// alias the one read buffer — and the byte offset where validity ends.
// With limit >= 0 at most that prefix is read.
func scan(f File, limit int64) (Recovery, int64, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return Recovery{}, 0, fmt.Errorf("persist: size log: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return Recovery{}, 0, fmt.Errorf("persist: rewind log: %w", err)
	}
	if limit < 0 || limit > size {
		limit = size
	}
	buf := make([]byte, limit)
	if _, err := io.ReadFull(f, buf); err != nil {
		return Recovery{}, 0, fmt.Errorf("persist: read log: %w", err)
	}
	var rec Recovery
	off := 0
	for len(buf)-off >= headerSize+crcSize {
		n := binary.LittleEndian.Uint32(buf[off+1:])
		end := off + headerSize + int(n)
		if n > maxPayload || end+crcSize > len(buf) ||
			crc32.ChecksumIEEE(buf[off:end]) != binary.LittleEndian.Uint32(buf[end:]) {
			break // corrupt length, torn payload or checksum, bit rot
		}
		rec.Entries = append(rec.Entries, Entry{Type: EntryType(buf[off]), Payload: buf[off+headerSize : end : end]})
		off = end + crcSize
	}
	if int64(off) < size {
		rec.TruncatedTail = true
		rec.DroppedBytes = size - int64(off)
	}
	return rec, int64(off), nil
}

// Append writes one entry to the log. Durability against OS crashes
// additionally needs Sync; a process crash alone never loses an
// appended entry.
func (w *WAL) Append(t EntryType, payload []byte) error {
	return w.AppendEntries([]Entry{{Type: t, Payload: payload}})
}

// AppendEntries frames the entries into one buffer and appends them
// with a single write: all of them land or, on a failed write, none.
func (w *WAL) AppendEntries(entries []Entry) error {
	if w.f == nil {
		return ErrClosed
	}
	if w.failed {
		return fmt.Errorf("%w: log poisoned by an earlier unrecovered write failure", ErrWALWrite)
	}
	var t0 time.Time
	if w.met.AppendSeconds != nil {
		t0 = time.Now()
	}
	buf := w.buf[:0]
	for _, e := range entries {
		if len(e.Payload) > maxPayload {
			return fmt.Errorf("persist: entry payload %d bytes exceeds limit", len(e.Payload))
		}
		start := len(buf)
		buf = append(buf, byte(e.Type))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Payload)))
		buf = append(buf, e.Payload...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	}
	if cap(buf) <= maxKeptBuffer {
		w.buf = buf
	}
	if n, err := w.f.Write(buf); err != nil {
		// Roll the partial frames back to the previous entry boundary so
		// the log stays append-clean; if even that fails, poison the
		// handle — appending after a torn frame would be silently
		// dropped by the next recovery scan.
		if w.truncate(w.bytes) != nil {
			w.failed = true
		}
		return fmt.Errorf("%w: append %d entries (%d of %d bytes): %v", ErrWALWrite, len(entries), n, len(buf), err)
	}
	w.entries += uint64(len(entries))
	w.bytes += int64(len(buf))
	if !t0.IsZero() {
		w.met.AppendSeconds.ObserveSince(t0)
	}
	return nil
}

// truncate cuts the log back to size bytes, an entry boundary.
func (w *WAL) truncate(size int64) error {
	if w.f == nil {
		return ErrClosed
	}
	if _, err := w.f.Seek(size, io.SeekStart); err != nil {
		return fmt.Errorf("persist: rewind log: %w", err)
	}
	if err := w.f.Truncate(size); err != nil {
		return fmt.Errorf("persist: truncate log: %w", err)
	}
	w.bytes = size
	return nil
}

// Sync flushes appended entries to stable storage.
func (w *WAL) Sync() error {
	if w.f == nil {
		return ErrClosed
	}
	var t0 time.Time
	if w.met.FsyncSeconds != nil {
		t0 = time.Now()
	}
	err := w.f.Sync()
	if !t0.IsZero() {
		w.met.FsyncSeconds.ObserveSince(t0)
	}
	if err != nil {
		return fmt.Errorf("%w: fsync: %v", ErrWALWrite, err)
	}
	return nil
}

// Reset empties the log — called right after a snapshot has captured
// everything the log held.
func (w *WAL) Reset() error {
	if err := w.truncate(0); err != nil {
		return err
	}
	return w.f.Sync()
}

// Entries returns the number of entries appended through this handle
// (replayed entries are reported by OpenWAL, not counted here).
func (w *WAL) Entries() uint64 { return w.entries }

// Bytes returns the current log size in bytes.
func (w *WAL) Bytes() int64 { return w.bytes }

// Close syncs and closes the log file.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	syncErr := w.f.Sync()
	closeErr := w.f.Close()
	w.f = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
