package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// File names inside a persistence directory.
const (
	SnapshotFile = "snapshot.json"
	WALFile      = "wal.log"
	JournalFile  = "journal.log"
	snapshotTmp  = "snapshot.json.tmp"
)

// snapshotVersion guards the on-disk schema; any other version fails
// loudly.
const snapshotVersion = 2

// Snapshot is the compacted state of a resolution store: the entity
// groups, the lifetime cost totals, the deferred queue, and which
// index files and journal.log prefix hold the records and decisions.
// Replaying the WAL on top of it must be idempotent — a crash between
// snapshot rename and WAL reset leaves entries in the log that the
// snapshot already contains.
type Snapshot struct {
	Version int `json:"version"`
	// Groups are the entity groups as sorted member slices — enough to
	// rebuild the union-find exactly, since canonical roots are the
	// smallest members regardless of union order.
	Groups [][]string `json:"groups"`
	// JournalBytes is the length of the journal.log prefix this snapshot
	// commits: every decision journaled before it was cut.
	JournalBytes int64 `json:"journal_bytes"`
	// Totals are the lifetime cost counters.
	Totals ReportEntry `json:"totals"`
	// Resolves is the lifetime resolve-call count.
	Resolves uint64 `json:"resolves"`
	// Redecided is the lifetime count of deferred pairs the background
	// re-escalator has settled. Absent in older snapshots.
	Redecided uint64 `json:"redecided,omitempty"`
	// Deferred are the pairs still awaiting re-escalation when the
	// snapshot was cut — the journal keeps only their tentative
	// decisions, so the queue carries the query records needed to
	// rebuild their prompts. Absent in older snapshots.
	Deferred []DeferredEntry `json:"deferred,omitempty"`
	// IndexEpoch and IndexShards bind the per-shard index snapshots
	// (IndexFileName, written by the blocking layer) to this snapshot:
	// the ingested records live in those files and nowhere else, and
	// IndexEpoch names the generation this snapshot committed — files of
	// any other epoch are leftovers of an interrupted checkpoint and must
	// be ignored.
	IndexEpoch  uint64 `json:"index_epoch,omitempty"`
	IndexShards int    `json:"index_shards,omitempty"`
}

// IndexFileName names one shard's mmap index snapshot within a
// persistence directory. The epoch in the name is the binding to
// snapshot.json: the JSON snapshot commits (atomic rename) only after
// every shard's file of its epoch is fully written, so a crash
// mid-checkpoint leaves the previous epoch referenced and intact.
func IndexFileName(epoch uint64, shard int) string {
	return fmt.Sprintf("index-%d-%03d.emx", epoch, shard)
}

// RemoveIndexFiles deletes the index snapshots of every epoch but
// keep, and every temporary file an interrupted index write left —
// best-effort cleanup of what no snapshot references. No index write
// may be in flight: a temporary file is swept whatever its epoch.
func RemoveIndexFiles(dir string, keep uint64) {
	matches, _ := filepath.Glob(filepath.Join(dir, "index-*.emx*"))
	kept := fmt.Sprintf("index-%d-", keep)
	for _, m := range matches {
		if base := filepath.Base(m); !strings.HasPrefix(base, kept) || strings.HasSuffix(base, ".tmp") {
			os.Remove(m)
		}
	}
}

// MaxIndexEpoch reports the highest epoch any index snapshot file in
// dir carries, zero when there are none. Checkpoint writers derive
// the next generation from this rather than from the committed epoch
// alone: a crash during an index write leaves files of an uncommitted
// epoch, and re-using that number would commit a generation whose name
// also covers the crashed pass's shard files the new pass does not
// rewrite (a store reopened with fewer shards) — two generations mixed
// under one epoch.
func MaxIndexEpoch(dir string) uint64 {
	matches, _ := filepath.Glob(filepath.Join(dir, "index-*.emx"))
	var max uint64
	for _, m := range matches {
		rest := strings.TrimPrefix(filepath.Base(m), "index-")
		dash := strings.IndexByte(rest, '-')
		if dash < 0 {
			continue
		}
		var e uint64
		if _, err := fmt.Sscanf(rest[:dash], "%d", &e); err == nil && e > max {
			max = e
		}
	}
	return max
}

// WriteSnapshot atomically replaces the snapshot in dir: the state is
// written to a temporary file, synced, and renamed over the previous
// snapshot, so a crash at any point leaves either the old or the new
// snapshot intact — never a partial one. An error means the rename
// did not happen: the previous snapshot is still the committed one.
func WriteSnapshot(dir string, s *Snapshot) error {
	s.Version = snapshotVersion
	data, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("persist: marshal snapshot: %w", err)
	}
	tmp := filepath.Join(dir, snapshotTmp)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: create snapshot tmp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, SnapshotFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: install snapshot: %w", err)
	}
	syncDir(dir)
	return nil
}

// ReadSnapshot loads the snapshot from dir. ok is false when no
// snapshot exists yet (a fresh or WAL-only directory). A version-1
// snapshot, or one with its records inline under "records", is
// refused: opening it would drop what this build no longer reads.
func ReadSnapshot(dir string) (s *Snapshot, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, SnapshotFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("persist: read snapshot: %w", err)
	}
	var v struct {
		Snapshot
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, false, fmt.Errorf("persist: decode snapshot: %w", err)
	}
	if v.Version != snapshotVersion || len(v.Records) > 0 {
		return nil, false, fmt.Errorf("persist: snapshot version %d with %d inline records, this build reads version %d "+
			`with none; see "Upgrading a persistence directory" in docs/OPERATIONS.md`, v.Version, len(v.Records), snapshotVersion)
	}
	return &v.Snapshot, true, nil
}

// syncDir makes a rename durable by syncing the containing directory,
// where it can. Some filesystems reject fsync on directories, and a
// directory that cannot be opened (EMFILE, permissions) cannot be
// synced; the rename itself is still atomic, so degrade silently — an
// error after the rename would tell the caller the old snapshot still
// stands when the new one has committed.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
