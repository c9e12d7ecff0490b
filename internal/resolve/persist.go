package resolve

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	"llm4em/internal/blocking"
	"llm4em/internal/llm"
	"llm4em/internal/persist"
	"llm4em/internal/telemetry"
)

// Open returns a store resolving against the client, durably backed
// by opts.PersistDir when that field is set (with an empty
// PersistDir, Open is New). Opening an existing directory recovers
// the previous state — ingested records, entity groups, the decision
// journal and the lifetime cost totals — by loading the last snapshot,
// indexing the journal.log frames it commits (their decisions stay on
// disk until their query resolves again) and replaying the write-ahead
// log on top, without a single LLM call. A torn WAL tail (crash
// mid-append) is detected, dropped and truncated; replaying entries the
// snapshot already contains (crash between snapshot and log reset) is
// idempotent.
// Damaged committed state — an index file the snapshot references that
// is torn, missing or of another format version, or a short or corrupt
// committed journal.log prefix — fails Open with a typed error before
// any file is touched.
//
// Pairs found in the recovered decision journal short-circuit later
// Resolve calls: the durable decision is reused instead of re-running
// the cascade or re-paying the LLM.
func Open(client llm.Client, opts Options) (*Store, error) {
	// The re-escalator starts only after recovery has rebuilt the
	// deferred queue, so the drain never races replay's lock-free
	// state building.
	s := newStore(client, opts)
	dir, fsys := s.opts.PersistDir, s.opts.FS
	if dir == "" {
		s.startResilience()
		return s, nil
	}
	// The directories MkdirAll creates are entries of their parents,
	// and vanish in an OS crash, with everything under them, until those
	// are synced: best effort, as below.
	var made []string
	for d := filepath.Clean(dir); d != filepath.Dir(d); d = filepath.Dir(d) {
		if _, err := fsys.List(d); !errors.Is(err, fs.ErrNotExist) {
			break
		}
		made = append(made, d)
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("resolve: create persist dir: %w", err)
	}
	for _, d := range made {
		fsys.SyncDir(filepath.Dir(d))
	}
	snap, ok, err := persist.ReadSnapshotFS(fsys, dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		snap = &persist.Snapshot{} // commits no journal bytes
	}
	// The index files before the logs, whose opening truncates tails.
	if err := s.installMapped(snap); err != nil {
		return nil, err
	}
	jlog, jrec, err := persist.OpenLog(fsys, filepath.Join(dir, persist.JournalFile), snap.JournalBytes)
	if err != nil {
		s.closeShards()
		return nil, err
	}
	wal, rec, err := persist.OpenLog(fsys, filepath.Join(dir, persist.WALFile), -1)
	if err != nil {
		jlog.Close()
		s.closeShards()
		return nil, err
	}
	// Best effort, as in persist.WriteAtomic: a fresh directory's logs
	// must not vanish with the appends SyncEvery made durable in them.
	fsys.SyncDir(dir)
	// Set before recovery: the apply functions journal on a store that
	// has a WAL, at replay as live.
	s.wal, s.journal.log = wal, jlog
	// The journal first: installSnapshot filters the deferred queue by it.
	err = s.journal.load(jrec.Entries)
	if err == nil {
		err = s.installSnapshot(snap)
	}
	if err == nil {
		err = s.replay(rec.Entries)
	}
	if err != nil {
		wal.Close()
		jlog.Close()
		s.closeShards()
		return nil, err
	}
	if tel := s.opts.Telemetry; tel != nil {
		wal.SetMetrics(tel.Persist)
		// journal.log's appends are checkpoint work, which
		// em_snapshot_seconds times; its fsyncs are timed with the WAL's.
		jlog.SetMetrics(telemetry.PersistMetrics{FsyncSeconds: tel.Persist.FsyncSeconds})
		tel.Persist.JournalBytes.Set(jlog.Bytes())
	}
	s.pstate.truncatedTail = rec.TruncatedTail
	s.pstate.recoveredDecisions = int(s.journal.pairs)
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
	// indexEpoch is the generation of the per-shard index snapshots the
	// last committed snapshot.json references (zero before the first
	// checkpoint); mappedShards counts shards served straight from their
	// index snapshot at open.
	indexEpoch   uint64
	mappedShards int
}

// installSnapshot loads the rest of a compacted state — the records
// are in place (installMapped) and the journal is indexed — into a
// fresh store. Called before the store is shared, so field access needs
// no locks.
func (s *Store) installSnapshot(snap *persist.Snapshot) error {
	for _, sh := range s.shards {
		s.count.Add(int64(sh.ix.Len()))
	}
	s.pstate.recoveredRecords = s.Len()
	for _, g := range snap.Groups {
		// A stored record's singleton group — snapshots of older builds
		// list every one — is implicit in memory.
		if len(g) == 1 && s.stored(g[0]) {
			continue
		}
		for _, id := range g {
			s.graph.Union(g[0], id) // adds g[0] itself first
		}
	}
	// Rebuild the deferred queue from the snapshot's carried query
	// records. A snapshot cut mid-redecide can hold a queue entry whose
	// journal decision is already final (removal happens after commit);
	// the journal check filters those.
	for _, de := range snap.Deferred {
		je, ok, err := s.journal.decided(de.Query.ID, de.CandidateID)
		if err != nil {
			return err
		}
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
	s.totals = totals{resolves: snap.Resolves, redecided: snap.Redecided, report: snap.Totals}
	s.pstate.recoveredResolves += snap.Resolves
	return nil
}

// installMapped adopts the per-shard EMIX index snapshots the JSON
// snapshot binds to (IndexEpoch/IndexShards), the only place the
// stored records live: each shard's index — records included — is
// mapped into place instead of replaying the ingest, so no record is
// re-serialized, re-extracted or re-indexed at open; extractions
// materialize lazily as records surface as resolve candidates, and no
// record is walked into the entity graph, where singleton groups are
// implicit (non-singleton groups and resolved-query singletons ride
// snap.Groups as always). A shard-count change re-inserts every mapped
// record under the new routing (a full rebuild).
//
// A torn, missing or version-skewed file fails with an error that wraps
// blocking.ErrSnapshotTorn, blocking.ErrSnapshotVersion or
// fs.ErrNotExist and names the file; nothing has been written then.
// Called before the store is shared, so field access needs no locks.
func (s *Store) installMapped(snap *persist.Snapshot) error {
	opened := make([]*blocking.Index, 0, snap.IndexShards)
	for i := 0; i < snap.IndexShards; i++ {
		name := persist.IndexFileName(snap.IndexEpoch, i)
		ix, err := s.openIndex(name)
		if err != nil {
			for _, o := range opened {
				o.Close()
			}
			return fmt.Errorf("resolve: index snapshot %s: %w", name, err)
		}
		opened = append(opened, ix)
	}
	s.pstate.indexEpoch = snap.IndexEpoch
	if snap.IndexShards == len(s.shards) {
		for i, ix := range opened {
			s.shards[i].install(ix).Close()
		}
		s.pstate.mappedShards = len(opened)
		return nil
	}
	for _, ix := range opened {
		for pos := 0; pos < ix.Len(); pos++ {
			r := ix.Record(pos)
			s.shardFor(r.ID).insertLocked(r, r.Serialize())
		}
		ix.Close()
	}
	return nil
}

// openIndex maps one index file of the persistence directory, wired
// to the store's index instruments.
func (s *Store) openIndex(name string) (*blocking.Index, error) {
	ix, err := blocking.OpenFS(s.opts.FS, filepath.Join(s.opts.PersistDir, name), blocking.IndexOptions{})
	if err == nil && s.opts.Telemetry != nil {
		ix.SetMetrics(s.opts.Telemetry.Blocking)
	}
	return ix, err
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
			r, err := persist.DecodeRecord(e.Payload)
			if err != nil {
				return err
			}
			sh := s.shardFor(r.ID)
			if _, ok := sh.ix.RecordPos(r.ID); ok {
				continue // already in the snapshot
			}
			sh.insertLocked(r, r.Serialize())
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
			counted := uint64(rv.Seq) > s.totals.resolves
			s.applyResolve(&res, rv.Decisions, counted)
			if counted {
				s.pstate.recoveredResolves++
			}
		case persist.EntryRedecide:
			rd, err := persist.DecodeRedecide(e.Payload)
			if err != nil {
				return err
			}
			s.applyRedecide(rd, uint64(rd.Seq) > s.totals.redecided)
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
// The ingested records go out as per-shard EMIX index snapshots
// (records, postings and token table in one mmap-ready file), written
// for a fresh epoch before snapshot.json commits the binding; then the
// shards serve them (serveWritten), as the next Open maps them. The
// shards' files are written concurrently, each under its shard's read
// lock, so Adds to a shard wait out its own write. A failed index write
// fails the checkpoint like a failed snapshot.json write, once every
// other write has finished: the WAL is not reset, so nothing is lost,
// and the next cadence retries.
func (s *Store) checkpointLocked() error {
	var t0 time.Time
	if tel := s.opts.Telemetry; tel != nil && tel.Persist.SnapshotSeconds != nil {
		t0 = time.Now()
	}
	dir, fsys := s.opts.PersistDir, s.opts.FS
	snap := &persist.Snapshot{
		IndexEpoch:  max(s.pstate.indexEpoch, persist.MaxIndexEpoch(fsys, dir)) + 1,
		IndexShards: len(s.shards),
	}
	errs := make([]error, len(s.shards))
	s.eachShard(func(i int, sh *shard) {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		errs[i] = persist.WriteAtomic(fsys, filepath.Join(dir, persist.IndexFileName(snap.IndexEpoch, i)), sh.ix.Encode)
	})
	err := errors.Join(errs...)
	// Only what took part in a resolve: stored records the graph has
	// not seen are singletons on disk as in memory, by their absence.
	s.graphMu.Lock()
	snap.Groups = s.graph.Groups()
	snap.Resolves, snap.Redecided, snap.Totals = s.totals.resolves, s.totals.redecided, s.totals.report
	s.graphMu.Unlock()
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
	// Until the rename below the extension is an uncommitted tail: a
	// reopen cuts it away, and wal.log still holds its decisions. Once it
	// is synced, lookups read those frames from journal.log, which holds
	// them for this process whether or not the rename succeeds.
	if j := &s.journal; err == nil && len(j.delta) > 0 {
		if err = j.log.AppendEntries(j.delta); err == nil {
			err = j.log.Sync()
		}
		if err == nil {
			j.committed()
		}
	}
	var size int
	if err == nil {
		snap.JournalBytes = s.journal.log.Bytes()
		size, err = persist.WriteSnapshotFS(fsys, dir, snap)
	}
	if err != nil {
		// WriteSnapshotFS fails only before its rename, so snapshot.json
		// still references the previous epoch — drop what this pass wrote
		// of the new one, keep the referenced generation.
		persist.RemoveIndexFiles(fsys, dir, s.pstate.indexEpoch)
		return err
	}
	// The rename committed: snap.IndexEpoch is now authoritative and
	// every other index generation is garbage.
	s.pstate.indexEpoch = snap.IndexEpoch
	persist.RemoveIndexFiles(fsys, dir, snap.IndexEpoch)
	if !s.pstate.closed {
		s.serveWritten(snap.IndexEpoch)
	}
	if err := s.wal.Reset(); err != nil {
		return err
	}
	if tel := s.opts.Telemetry; tel != nil {
		if !t0.IsZero() {
			tel.Persist.SnapshotSeconds.ObserveSince(t0)
		}
		tel.Persist.Snapshots.Inc()
		tel.Persist.SnapshotBytes.Set(int64(size))
		tel.Persist.JournalBytes.Set(snap.JournalBytes)
	}
	s.pstate.snapshots++
	s.pstate.sinceSnapshot = 0
	s.pstate.sinceSync = 0
	return nil
}

// serveWritten makes the EMIX file a committed checkpoint wrote each
// shard's base (install), so the heap keeps only what was added since:
// the records that reached a shard after its write. Positions are
// stable — the writer emits base then tail in position order. The
// shards are mapped and installed concurrently; each old index is
// released after its lock; a shard whose file fails to open stays on
// the heap.
func (s *Store) serveWritten(epoch uint64) {
	s.eachShard(func(i int, sh *shard) {
		name := persist.IndexFileName(epoch, i)
		ix, err := s.openIndex(name)
		if err != nil {
			s.opts.Telemetry.Warn("resolve: shard stays on the heap, "+name+" did not open", err)
			return
		}
		sh.install(ix).Close()
	})
}

// eachShard runs f on every shard, one goroutine each, and returns once
// all have.
func (s *Store) eachShard(f func(i int, sh *shard)) {
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i, sh)
		}()
	}
	wg.Wait()
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

// Close shuts the store down: the micro-batching dispatcher is drained
// — pending uncertain pairs are flushed and their waiting Resolve calls
// complete — then the WAL is flushed, finally snapshotted and closed.
// The store must not be used afterwards: mutations would fail with a
// closed-WAL or closed-dispatcher error. Idempotent; an in-memory store
// only drains the dispatcher.
func (s *Store) Close() error {
	// The re-escalator goes first: it issues LLM calls and WAL appends
	// of its own, which must not race the final snapshot. Pairs still
	// queued land in the snapshot's Deferred set and resume after the
	// next Open.
	s.stopResilience()
	// Drained first so no awaited batch is abandoned mid-flight. Callers
	// wanting the drained decisions in the final snapshot must wait for
	// their Resolve calls to return before closing — emserve does, by
	// draining the HTTP server ahead of the store.
	s.esc.close()
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
	err := errors.Join(s.checkpointLocked(), s.wal.Close(), s.journal.log.Close())
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
	// the state rebuilt from disk when the store was opened;
	// RecoveredDecisions is JournalSize as Open left it, each decided
	// pair once however many frames and WAL entries repeat it.
	RecoveredRecords   int
	RecoveredDecisions int
	RecoveredResolves  uint64
	// TruncatedTail reports that recovery dropped a torn final WAL
	// entry — the signature of a crash mid-append.
	TruncatedTail bool
	// MappedShards counts shards served straight from their index
	// snapshot at open (no ingest replay; zero after a shard-count
	// change, which re-inserts every record).
	MappedShards int
	// IndexEpoch is the committed generation of the per-shard index
	// snapshots (zero before the first checkpoint).
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
		IndexEpoch:         s.pstate.indexEpoch,
		WALEntries:         s.wal.Entries(),
		WALBytes:           s.wal.Bytes(),
		Snapshots:          s.pstate.snapshots,
		JournalBytes:       s.journal.log.Bytes(),
		JournalSize:        s.journal.pairs,
	}
}
