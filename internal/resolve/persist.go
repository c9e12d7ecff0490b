package resolve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"llm4em/internal/blocking"
	"llm4em/internal/features"
	"llm4em/internal/llm"
	"llm4em/internal/persist"
	"llm4em/internal/telemetry"
)

// Open returns a store resolving against the client, durably backed
// by opts.PersistDir when that field is set (with an empty
// PersistDir, Open is New). Opening an existing directory recovers
// the previous state — ingested records, entity groups, the decision
// journal and the lifetime cost totals — by loading the last snapshot
// with its journal.log prefix and replaying the write-ahead log on
// top, without a single LLM call. A torn WAL tail (crash mid-append)
// is detected, dropped and truncated; replaying entries the snapshot
// already contains (crash between snapshot and log reset) is idempotent.
//
// Pairs found in the recovered decision journal short-circuit later
// Resolve calls: the durable decision is reused instead of re-running
// the cascade or re-paying the LLM.
func Open(client llm.Client, opts Options) (*Store, error) {
	// The re-escalator starts only after recovery has rebuilt the
	// deferred queue, so the drain never races replay's lock-free
	// state building.
	s := newStore(client, opts)
	dir := s.opts.PersistDir
	if dir == "" {
		s.startResilience()
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resolve: create persist dir: %w", err)
	}
	fsys := s.opts.WALFS
	if fsys == nil {
		fsys = persist.OS
	}
	snap, ok, err := persist.ReadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		snap = &persist.Snapshot{} // commits no journal bytes
	}
	jlog, jrec, err := persist.OpenLog(fsys, filepath.Join(dir, persist.JournalFile), snap.JournalBytes)
	if err != nil {
		return nil, err
	}
	wal, rec, err := persist.OpenLog(fsys, filepath.Join(dir, persist.WALFile), -1)
	if err != nil {
		jlog.Close()
		return nil, err
	}
	// Set before recovery: the apply functions journal on a store that
	// has a WAL, at replay as live.
	s.wal, s.jlog = wal, jlog
	// The journal first: installSnapshot filters the deferred queue by it.
	for _, e := range jrec.Entries {
		q, ds, derr := persist.DecodeJournal(e.Payload)
		if e.Type != persist.EntryJournal || derr != nil {
			err = fmt.Errorf("%w: committed frame of type %d: %v", persist.ErrJournalTorn, e.Type, derr)
			break
		}
		for _, d := range ds {
			s.journal[pairID{query: q, candidate: d.CandidateID}] = d
		}
	}
	if err == nil {
		if err = s.installSnapshot(snap); err == nil {
			err = s.replay(rec.Entries)
		}
	}
	if err != nil {
		wal.Close()
		jlog.Close()
		return nil, err
	}
	if tel := s.opts.Telemetry; tel != nil {
		wal.SetMetrics(tel.Persist)
		tel.Persist.JournalBytes.Set(jlog.Bytes())
	}
	s.pstate.truncatedTail = rec.TruncatedTail
	s.startResilience()
	return s, nil
}

// persistState tracks the durability side of a store under persistMu.
type persistState struct {
	recoveredRecords   int
	recoveredDecisions int
	recoveredResolves  uint64
	truncatedTail      bool
	snapshots          uint64
	sinceSnapshot      int
	sinceSync          int
	closed             bool
	// journalDelta holds, framed for journal.log, the decisions journaled
	// since the last checkpoint extended it — those of wal.log's frames,
	// or a version-1 snapshot's inline journal; the next one appends them.
	journalDelta []persist.Entry
	// indexEpoch is the generation of the per-shard mmap index
	// snapshots the last committed snapshot.json references (zero
	// before the first mapped checkpoint); mappedShards counts shards
	// served straight from an mmap at open, and mappedFallback reports
	// that referenced index snapshots existed but could not be mapped
	// (torn, truncated, version-mismatched or mmap-unsupported), so
	// recovery degraded to the JSON snapshot and WAL contents. On a
	// fallback, fallbackEpoch records the generation that could not be
	// read: checkpoints quarantine its files (a binary of the right
	// version may still recover them) instead of garbage-collecting
	// them with the other unreferenced epochs.
	indexEpoch     uint64
	mappedShards   int
	mappedFallback bool
	fallbackEpoch  uint64
}

// keepEpochs lists the index generations a cleanup pass must retain:
// the generation primary (normally the one the committed snapshot
// references), plus — on a store that degraded at open — the
// generation recovery could not map.
func (s *Store) keepEpochs(primary uint64) []uint64 {
	if s.pstate.mappedFallback {
		return []uint64{primary, s.pstate.fallbackEpoch}
	}
	return []uint64{primary}
}

// pairID keys the decision journal. A struct key keeps arbitrary
// caller-supplied IDs unambiguous — a string concatenation would
// collide for IDs containing the separator.
type pairID struct {
	query, candidate string
}

// installSnapshot loads a compacted state into a fresh store. Called
// before the store is shared, so field access needs no locks.
func (s *Store) installSnapshot(snap *persist.Snapshot) error {
	if snap.IndexShards > 0 {
		s.installMapped(snap)
	}
	for _, re := range snap.Records {
		r := re.Record
		if r.ID == "" {
			return fmt.Errorf("resolve: snapshot record without ID")
		}
		sh := s.shardFor(r.ID)
		text := r.Serialize()
		sh.insertLocked(r, text, s.extractFor(text))
	}
	for _, sh := range s.shards {
		s.count.Add(int64(sh.ix.Len()))
	}
	s.pstate.recoveredRecords = s.Len()
	for _, g := range snap.Groups {
		// A stored record's singleton group — every inline-records
		// snapshot of an older build lists them — is implicit in memory.
		if len(g) == 1 && s.stored(g[0]) {
			continue
		}
		for _, id := range g {
			s.graph.Union(g[0], id) // adds g[0] itself first
		}
	}
	for _, je := range snap.LegacyJournal {
		q := je.QueryID
		je.QueryID = ""
		s.journalDecisions(q, []persist.DecisionEntry{je})
	}
	// Rebuild the deferred queue from the snapshot's carried query
	// records. A snapshot cut mid-redecide can hold a queue entry whose
	// journal decision is already final (removal happens after commit);
	// the journal check filters those.
	if s.res != nil {
		for _, de := range snap.Deferred {
			je, ok := s.journal[pairID{query: de.Query.ID, candidate: de.CandidateID}]
			if !ok || !je.Deferred {
				continue
			}
			s.res.enqueue(deferredPair{
				query:       de.Query,
				candidateID: de.CandidateID,
				blockScore:  de.BlockScore,
				probability: de.Probability,
			})
		}
	}
	s.totals = totals{resolves: snap.Resolves, redecided: snap.Redecided, report: snap.Totals}
	s.pstate.recoveredDecisions += len(s.journal)
	s.pstate.recoveredResolves += snap.Resolves
	return nil
}

// installMapped adopts the per-shard EMIX index snapshots the JSON
// snapshot binds to (IndexEpoch/IndexShards): each shard's index —
// records included — is mmap'ed into place instead of replaying the
// ingest, so no record is re-serialized, re-extracted or re-indexed at
// open; extractions materialize lazily as records surface as resolve
// candidates, and no record is walked into the entity graph, where
// singleton groups are implicit (non-singleton groups and resolved-query
// singletons ride snap.Groups as always).
//
// Degradation is deliberate and silent at the API: a torn, truncated,
// missing or version-mismatched index file — or a directory written
// by an mmap-capable build opened on a platform without mmap — leaves
// the fresh empty shards in place and recovery continues with
// whatever the JSON snapshot and the WAL carry, while the unreadable
// generation's files are quarantined (never garbage-collected) so a
// correct binary can still recover them; a shard-count change
// re-inserts every mapped record under the new routing (a full
// rebuild, exactly the pre-mmap cost). Called before the store is
// shared, so field access needs no locks.
func (s *Store) installMapped(snap *persist.Snapshot) {
	dir := s.opts.PersistDir
	opened := make([]*blocking.Index, 0, snap.IndexShards)
	for i := 0; i < snap.IndexShards; i++ {
		ix, err := blocking.OpenMapped(filepath.Join(dir, persist.IndexFileName(snap.IndexEpoch, i)), s.opts.Blocking)
		if err != nil {
			for _, o := range opened {
				o.Close()
			}
			// The committed generation stays the committed generation even
			// though this build cannot read it: later checkpoints must not
			// re-use its epoch number (renaming over still-referenced
			// files would let a crash commit a mixed-generation store) and
			// must quarantine its files rather than delete state a
			// correctly-versioned binary could still recover.
			s.pstate.mappedFallback = true
			s.pstate.fallbackEpoch = snap.IndexEpoch
			s.pstate.indexEpoch = snap.IndexEpoch
			return
		}
		opened = append(opened, ix)
	}
	s.pstate.indexEpoch = snap.IndexEpoch
	if snap.IndexShards == len(s.shards) {
		var bm telemetry.BlockingMetrics
		if s.opts.Telemetry != nil {
			bm = s.opts.Telemetry.Blocking
		}
		for i, ix := range opened {
			ix.SetMetrics(bm)
			sh := s.shards[i]
			sh.ix = ix
			sh.ext = make([]*features.Extracted, ix.Len())
			s.pstate.mappedShards++
		}
		return
	}
	for _, ix := range opened {
		for pos := 0; pos < ix.Len(); pos++ {
			r := ix.Record(pos)
			sh := s.shardFor(r.ID)
			text := r.Serialize()
			sh.insertLocked(r, text, s.extractFor(text))
		}
		ix.Close()
	}
}

// replay applies WAL entries on top of the snapshot state, decisions
// through the apply functions the live path uses. Duplicate record
// entries — the legitimate residue of a crash between snapshot rename
// and WAL reset — are skipped; decision replays overwrite the journal
// with identical values and re-union merged groups, both idempotent,
// and the entries' sequence numbers keep their reports from counting
// twice. No LLM call is ever issued here.
func (s *Store) replay(entries []persist.Entry) error {
	for _, e := range entries {
		switch e.Type {
		case persist.EntryRecord:
			re, err := persist.DecodeRecord(e.Payload)
			if err != nil {
				return err
			}
			r := re.Record
			sh := s.shardFor(r.ID)
			if _, ok := sh.posLocked(r.ID); ok {
				continue // already in the snapshot
			}
			text := r.Serialize()
			sh.insertLocked(r, text, s.extractFor(text))
			s.count.Add(1)
			s.pstate.recoveredRecords++
		case persist.EntryResolve:
			rv, err := persist.DecodeResolve(e.Payload)
			if err != nil {
				return err
			}
			res := Result{Query: rv.Query, Decisions: make([]PairDecision, len(rv.Decisions)), Cost: rv.Report}
			for i, d := range rv.Decisions {
				res.Decisions[i] = decisionOf(d)
			}
			// After a crash between rename and WAL reset the snapshot
			// already counts this report.
			counted := rv.Seq == 0 || uint64(rv.Seq) > s.totals.resolves
			s.applyResolve(&res, rv.Decisions, counted)
			s.pstate.recoveredDecisions += len(rv.Decisions)
			if counted {
				s.pstate.recoveredResolves++
			}
		case persist.EntryRedecide:
			rd, err := persist.DecodeRedecide(e.Payload)
			if err != nil {
				return err
			}
			s.applyRedecide(rd, rd.Seq == 0 || uint64(rd.Seq) > s.totals.redecided)
		default:
			// Unknown entry types are skipped so older builds can read
			// logs written by newer ones.
		}
	}
	return nil
}

// checkpointLocked commits the store's state in five ordered steps:
// write the index files, append the decisions journaled since the last
// checkpoint to journal.log, fsync it, write and rename snapshot.json
// — the single commit point, vouching for that journal.log length —
// and reset the WAL (docs/ARCHITECTURE.md walks the crash windows).
// Caller holds persistMu, which blocks concurrent appends; any
// in-memory mutation not yet journaled lands in the snapshot and its
// late WAL entry replays idempotently.
//
// The ingested records normally go out as per-shard EMIX index
// snapshots (records, postings and token table in one mmap-ready
// file), written for a fresh epoch before snapshot.json commits the
// binding — the next Open then maps the shards instead of replaying
// the ingest. Each shard's file is written under its read lock, so
// Adds to that shard wait out its write. The records are inlined in
// the JSON snapshot — exactly the pre-mmap format — instead whenever
// the index files would not be authoritative: on platforms whose
// OpenMapped cannot read them back (blocking.MmapSupported is false;
// WriteSnapshot itself is plain file I/O and would succeed), or when
// any index write fails.
func (s *Store) checkpointLocked() error {
	var t0 time.Time
	if tel := s.opts.Telemetry; tel != nil && tel.Persist.SnapshotSeconds != nil {
		t0 = time.Now()
	}
	snap := &persist.Snapshot{}
	emxOK := blocking.MmapSupported
	var epoch uint64
	if emxOK {
		// The new generation's number must be fresh against both the
		// committed binding and every file on disk: after a
		// mapped-fallback open the in-memory counter alone can lag what
		// snapshot.json references, and renaming shard files over a
		// still-referenced generation would let a crash mid-checkpoint
		// commit a mix of generations under one epoch.
		epoch = s.pstate.indexEpoch + 1
		if m := persist.MaxIndexEpoch(s.opts.PersistDir); m >= epoch {
			epoch = m + 1
		}
		for i, sh := range s.shards {
			p := filepath.Join(s.opts.PersistDir, persist.IndexFileName(epoch, i))
			sh.mu.RLock()
			err := sh.ix.WriteSnapshot(p)
			sh.mu.RUnlock()
			if err != nil {
				emxOK = false
				// Drop whatever the failed pass wrote of the new epoch
				// (the previous epoch stays — the committed snapshot
				// references it until the rename below).
				persist.RemoveIndexFiles(s.opts.PersistDir, s.keepEpochs(s.pstate.indexEpoch)...)
				break
			}
		}
	}
	if emxOK {
		snap.IndexEpoch = epoch
		snap.IndexShards = len(s.shards)
	} else {
		for _, sh := range s.shards {
			sh.mu.RLock()
			for pos := 0; pos < sh.ix.Len(); pos++ {
				snap.Records = append(snap.Records, persist.RecordEntry{Record: sh.ix.Record(pos)})
			}
			sh.mu.RUnlock()
		}
	}
	// Only what took part in a resolve: stored records the graph has
	// not seen are singletons on disk as in memory, by their absence.
	s.graphMu.Lock()
	snap.Groups = s.graph.Groups()
	s.graphMu.Unlock()
	if s.res != nil {
		s.res.mu.Lock()
		for _, dp := range s.res.queue {
			snap.Deferred = append(snap.Deferred, persist.DeferredEntry{
				Query:       dp.query,
				CandidateID: dp.candidateID,
				BlockScore:  dp.blockScore,
				Probability: dp.probability,
			})
		}
		s.res.mu.Unlock()
	}
	t := s.lifetime()
	snap.Resolves, snap.Redecided, snap.Totals = t.resolves, t.redecided, t.report
	// Until the rename below the extension is an uncommitted tail: a
	// reopen cuts it away, and wal.log still holds its decisions.
	var err error
	if len(s.pstate.journalDelta) > 0 {
		if err = s.jlog.AppendEntries(s.pstate.journalDelta); err == nil {
			err = s.jlog.Sync()
		}
		if err == nil {
			s.pstate.journalDelta = nil
		}
	}
	if err == nil {
		snap.JournalBytes = s.jlog.Bytes()
		err = persist.WriteSnapshot(s.opts.PersistDir, snap)
	}
	if err != nil {
		if emxOK {
			// snapshot.json still references the previous epoch — drop
			// the orphaned new files, keep the referenced generation.
			persist.RemoveIndexFiles(s.opts.PersistDir, s.keepEpochs(s.pstate.indexEpoch)...)
		}
		return err
	}
	// The rename committed: snap.IndexEpoch (or, on fallback, the
	// inline records) is now authoritative — every other index
	// generation is garbage, except a quarantined unreadable one.
	s.pstate.indexEpoch = snap.IndexEpoch
	persist.RemoveIndexFiles(s.opts.PersistDir, s.keepEpochs(snap.IndexEpoch)...)
	if err := s.wal.Reset(); err != nil {
		return err
	}
	if tel := s.opts.Telemetry; tel != nil {
		if !t0.IsZero() {
			tel.Persist.SnapshotSeconds.ObserveSince(t0)
		}
		tel.Persist.Snapshots.Inc()
		if fi, err := os.Stat(filepath.Join(s.opts.PersistDir, persist.SnapshotFile)); err == nil {
			tel.Persist.SnapshotBytes.Set(fi.Size())
		}
		tel.Persist.JournalBytes.Set(snap.JournalBytes)
	}
	s.pstate.snapshots++
	s.pstate.sinceSnapshot = 0
	s.pstate.sinceSync = 0
	return nil
}

// Checkpoint forces a snapshot+compaction now, independent of the
// SnapshotEvery cadence. A no-op on in-memory stores.
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.pstate.closed {
		return persist.ErrClosed
	}
	return s.checkpointLocked()
}

// Flush fsyncs the WAL, making every journaled mutation durable
// against OS crashes. A no-op on in-memory stores.
func (s *Store) Flush() error {
	if s.wal == nil {
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.pstate.closed {
		return persist.ErrClosed
	}
	s.pstate.sinceSync = 0
	return s.wal.Sync()
}

// Close shuts the store down: the micro-batching dispatcher (if
// enabled) is drained — pending uncertain pairs are flushed and their
// waiting Resolve calls complete — then the WAL is flushed, finally
// snapshotted and closed. The store must not be used afterwards:
// mutations would fail with a closed-WAL or closed-dispatcher error.
// Idempotent; an in-memory store only drains the dispatcher.
func (s *Store) Close() error {
	// The re-escalator goes first: it issues LLM calls and WAL appends
	// of its own, which must not race the final snapshot. Pairs still
	// queued land in the snapshot's Deferred set and resume after the
	// next Open.
	s.stopResilience()
	if s.disp != nil {
		// Drained first so no batch is abandoned mid-flight. Callers
		// wanting the drained decisions in the final snapshot must wait
		// for their Resolve calls to return before closing — emserve
		// does, by draining the HTTP server ahead of the store.
		s.disp.Close()
	}
	if s.wal == nil {
		s.closeShards()
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.pstate.closed {
		return nil
	}
	s.pstate.closed = true
	err := errors.Join(s.checkpointLocked(), s.wal.Close(), s.jlog.Close())
	s.closeShards()
	return err
}

// closeShards releases the shard indexes' mmaps — a no-op per shard
// unless the store was opened from mapped index snapshots.
func (s *Store) closeShards() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.ix.Close()
		sh.mu.Unlock()
	}
}

// PersistStats snapshots the durability counters of a store.
type PersistStats struct {
	// Enabled reports whether the store is durably backed; every other
	// field is zero when it is not.
	Enabled bool
	// Dir is the persistence directory.
	Dir string
	// RecoveredRecords, RecoveredDecisions and RecoveredResolves count
	// the state rebuilt from disk when the store was opened.
	RecoveredRecords   int
	RecoveredDecisions int
	RecoveredResolves  uint64
	// TruncatedTail reports that recovery dropped a torn final WAL
	// entry — the signature of a crash mid-append.
	TruncatedTail bool
	// MappedShards counts shards served straight from an mmap'ed index
	// snapshot at open (no ingest replay); MappedFallback reports that
	// the snapshot referenced index files recovery could not map —
	// torn, truncated, wrong version or no mmap support — so the store
	// degraded to the JSON snapshot and WAL contents.
	MappedShards   int
	MappedFallback bool
	// IndexEpoch is the committed generation of the per-shard index
	// snapshots (zero before the first mapped checkpoint).
	IndexEpoch uint64
	// WALEntries and WALBytes describe appends since open; Snapshots
	// counts compactions since open.
	WALEntries uint64
	WALBytes   int64
	Snapshots  uint64
	// JournalBytes is journal.log's size, JournalSize the number of
	// durably decided pairs (Stats.JournalHits counts the Resolve
	// decisions served from them).
	JournalBytes int64
	JournalSize  uint64
}

// persistStats gathers PersistStats under persistMu.
func (s *Store) persistStats() PersistStats {
	if s.wal == nil {
		return PersistStats{}
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	return PersistStats{
		Enabled:            true,
		Dir:                s.opts.PersistDir,
		RecoveredRecords:   s.pstate.recoveredRecords,
		RecoveredDecisions: s.pstate.recoveredDecisions,
		RecoveredResolves:  s.pstate.recoveredResolves,
		TruncatedTail:      s.pstate.truncatedTail,
		MappedShards:       s.pstate.mappedShards,
		MappedFallback:     s.pstate.mappedFallback,
		IndexEpoch:         s.pstate.indexEpoch,
		WALEntries:         s.wal.Entries(),
		WALBytes:           s.wal.Bytes(),
		Snapshots:          s.pstate.snapshots,
		JournalBytes:       s.jlog.Bytes(),
		JournalSize:        uint64(len(s.journal)),
	}
}
