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

// snapshotVersion guards the on-disk schema; an unknown version fails
// loudly. Version 1, with the journal inline, is read, never written.
const snapshotVersion = 2

// Snapshot is the compacted state of a resolution store: the entity
// groups, the lifetime cost totals, the deferred queue, and which
// index files and journal.log prefix hold the records and decisions.
// Replaying the WAL on top of it must be idempotent — a crash between
// snapshot rename and WAL reset leaves entries in the log that the
// snapshot already contains.
type Snapshot struct {
	Version int `json:"version"`
	// Records are the ingested (indexed) records.
	Records []RecordEntry `json:"records"`
	// Groups are the entity groups as sorted member slices — enough to
	// rebuild the union-find exactly, since canonical roots are the
	// smallest members regardless of union order.
	Groups [][]string `json:"groups"`
	// JournalBytes is the length of the journal.log prefix this snapshot
	// commits: every decision journaled before it was cut.
	JournalBytes int64 `json:"journal_bytes"`
	// LegacyJournal is a version-1 snapshot's inline journal: read, never
	// written. The store's first checkpoint moves it into journal.log.
	LegacyJournal []DecisionEntry `json:"journal,omitempty"`
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
	// IndexEpoch and IndexShards bind the per-shard mmap index
	// snapshots (IndexFileName, written by the blocking layer) to this
	// snapshot: IndexShards > 0 says the ingested records live in those
	// files instead of Records, and IndexEpoch names the generation
	// this snapshot committed — files of any other epoch are leftovers
	// of an interrupted checkpoint and must be ignored. Zero means a
	// records-inline snapshot (an older store, or the index snapshot
	// write failed and the checkpoint fell back).
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

// RemoveIndexFiles deletes the index snapshots of every epoch not
// listed in keep — best-effort cleanup of generations no snapshot
// references. A store that degraded at open (mappedFallback) passes
// the generation it could not read as a second keep, quarantining
// files a differently-versioned binary may still recover instead of
// turning the degradation into permanent loss.
func RemoveIndexFiles(dir string, keep ...uint64) {
	matches, _ := filepath.Glob(filepath.Join(dir, "index-*.emx"))
	prefixes := make([]string, len(keep))
	for i, k := range keep {
		prefixes[i] = fmt.Sprintf("index-%d-", k)
	}
	for _, m := range matches {
		base := filepath.Base(m)
		kept := false
		for _, p := range prefixes {
			if strings.HasPrefix(base, p) {
				kept = true
				break
			}
		}
		if !kept {
			os.Remove(m)
		}
	}
}

// MaxIndexEpoch reports the highest epoch any index snapshot file in
// dir carries, zero when there are none. Checkpoint writers derive
// the next generation from this rather than a purely in-memory
// counter: after a mapped-fallback open or an interrupted checkpoint
// the counter can lag the files on disk, and re-using an epoch number
// that the committed snapshot.json still references would rename new
// shard files over the referenced generation one by one — a crash
// midway through would leave a committed snapshot pointing at a mix
// of generations under one epoch.
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
// snapshot intact — never a partial one.
func WriteSnapshot(dir string, s *Snapshot) error {
	s.Version, s.LegacyJournal = snapshotVersion, nil
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
	return syncDir(dir)
}

// ReadSnapshot loads the snapshot from dir. ok is false when no
// snapshot exists yet (a fresh or WAL-only directory).
func ReadSnapshot(dir string) (s *Snapshot, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, SnapshotFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("persist: read snapshot: %w", err)
	}
	s = &Snapshot{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, false, fmt.Errorf("persist: decode snapshot: %w", err)
	}
	if s.Version != 1 && s.Version != snapshotVersion {
		return nil, false, fmt.Errorf("persist: snapshot version %d, this build reads 1 to %d", s.Version, snapshotVersion)
	}
	return s, true, nil
}

// syncDir makes a rename durable by syncing the containing directory.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: open dir for sync: %w", err)
	}
	defer d.Close()
	// Some filesystems reject fsync on directories; the rename itself
	// is still atomic, so degrade silently.
	_ = d.Sync()
	return nil
}
