package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
)

// File names inside a persistence directory.
const (
	SnapshotFile = "snapshot.json"
	WALFile      = "wal.log"
	JournalFile  = "journal.log"
)

// snapshotVersion is the schema WriteSnapshotFS writes; version 2 also
// reads, and any other fails loudly.
const snapshotVersion = 3

// Snapshot is the commit record of a resolution store: the lifetime
// cost totals, the deferred queue, and which index files and
// journal.log prefix hold the records and decisions (whose matches
// imply the entity groups). Replaying the WAL on top of it must be
// idempotent — a crash between snapshot rename and WAL reset leaves
// entries in the log that the snapshot already contains.
type Snapshot struct {
	Version int `json:"version"`
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
	// V2Groups are the sorted entity groups a version-2 file lists,
	// read for the open that upgrades it; a checkpoint writes none.
	V2Groups [][]string `json:"groups,omitempty"`
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
func RemoveIndexFiles(fsys FS, dir string, keep uint64) {
	names, _ := fsys.List(dir)
	kept := fmt.Sprintf("index-%d-", keep)
	for _, name := range names {
		if ok, _ := filepath.Match("index-*.emx*", name); ok && (!strings.HasPrefix(name, kept) || strings.HasSuffix(name, ".tmp")) {
			fsys.Remove(filepath.Join(dir, name))
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
func MaxIndexEpoch(fsys FS, dir string) uint64 {
	names, _ := fsys.List(dir)
	var max uint64
	for _, name := range names {
		var e uint64
		if ok, _ := filepath.Match("index-*.emx", name); ok {
			if _, err := fmt.Sscanf(name, "index-%d-", &e); err == nil && e > max {
				max = e
			}
		}
	}
	return max
}

// WriteSnapshot is WriteSnapshotFS on the real filesystem.
func WriteSnapshot(dir string, s *Snapshot) error {
	_, err := WriteSnapshotFS(OS, dir, s)
	return err
}

// WriteSnapshotFS replaces the snapshot in dir through WriteAtomic and
// returns its size; after an error the previous one is still committed.
func WriteSnapshotFS(fsys FS, dir string, s *Snapshot) (int, error) {
	s.Version = snapshotVersion
	data, err := json.Marshal(s)
	if err != nil {
		return 0, fmt.Errorf("persist: marshal snapshot: %w", err)
	}
	return len(data), WriteAtomic(fsys, filepath.Join(dir, SnapshotFile), func(f File) error {
		_, err := f.Write(data)
		return err
	})
}

// ReadSnapshot is ReadSnapshotFS on the real filesystem.
func ReadSnapshot(dir string) (s *Snapshot, ok bool, err error) { return ReadSnapshotFS(OS, dir) }

// ReadSnapshotFS loads the snapshot from dir. ok is false when no
// snapshot exists yet (a fresh or WAL-only directory). A version-1
// snapshot, or one with its records inline under "records", is
// refused: opening it would drop what this build no longer reads.
func ReadSnapshotFS(fsys FS, dir string) (s *Snapshot, ok bool, err error) {
	data, release, err := fsys.Map(filepath.Join(dir, SnapshotFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("persist: read snapshot: %w", err)
	}
	defer release()
	var v struct {
		Snapshot
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, false, fmt.Errorf("persist: decode snapshot: %w", err)
	}
	if v.Version < 2 || v.Version > snapshotVersion || len(v.Records) > 0 {
		return nil, false, fmt.Errorf("persist: snapshot version %d with %d inline records, this build reads versions 2 "+
			`to %d with none; see "Upgrading a persistence directory" in docs/OPERATIONS.md`, v.Version, len(v.Records), snapshotVersion)
	}
	return &v.Snapshot, true, nil
}
