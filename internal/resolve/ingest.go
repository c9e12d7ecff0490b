package resolve

import (
	"errors"
	"fmt"

	"llm4em/internal/entity"
	"llm4em/internal/features"
	"llm4em/internal/persist"
)

// extractFor runs ingest-time feature extraction — or defers it to the
// first resolve that surfaces the record (Options.DeferExtraction).
func (s *Store) extractFor(text string) *features.Extracted {
	if s.opts.DeferExtraction {
		return nil
	}
	e := features.ExtractText(text).Stored()
	return &e
}

// Add inserts a record into the store: it becomes findable by Resolve
// and forms a singleton entity until matched. Records with empty or
// duplicate IDs are rejected. Serialization and feature extraction
// run before the shard lock is taken, so concurrent Adds contend only
// on the map/index insert itself.
func (s *Store) Add(r entity.Record) error {
	if r.ID == "" {
		return ErrNoID
	}
	text := r.Serialize()
	ext := s.extractFor(text)
	sh := s.shardFor(r.ID)
	sh.mu.Lock()
	if _, dup := sh.posLocked(r.ID); dup {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicateID, r.ID)
	}
	sh.insertLocked(r, text, ext)
	sh.mu.Unlock()
	s.count.Add(1)

	if s.wal != nil {
		s.persistMu.Lock()
		err := s.appendRecordsLocked([]entity.Record{r})
		s.persistMu.Unlock()
		if err != nil {
			return fmt.Errorf("resolve: journal record %q: %w", r.ID, err)
		}
	}
	return nil
}

// BatchError reports a partially applied AddBatch: Added records are
// in the store (a batch is not transactional), Err is the failure.
// Unwrap exposes Err, so errors.Is(err, ErrDuplicateID) still works.
type BatchError struct {
	Added int
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("resolve: batch add failed after %d records: %v", e.Added, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// AddBatch inserts the records, paying each lock — shard, persistence
// — once per batch instead of once per record. Records with empty IDs
// or IDs duplicated within the batch reject the whole batch upfront; an
// ID already in the store stops the insert with a *BatchError reporting
// how many records made it in (records of a failed batch are not rolled
// back). Records are processed grouped by shard, not in input order.
func (s *Store) AddBatch(rs []entity.Record) error {
	if len(rs) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(rs))
	for _, r := range rs {
		if r.ID == "" {
			return &BatchError{Err: ErrNoID}
		}
		if seen[r.ID] {
			return &BatchError{Err: fmt.Errorf("%w in batch: %q", ErrDuplicateID, r.ID)}
		}
		seen[r.ID] = true
	}

	// Serialize and extract outside any lock, then insert shard by
	// shard under one lock acquisition each.
	type prepared struct {
		rec  entity.Record
		text string
		ext  *features.Extracted
	}
	byShard := make([][]prepared, len(s.shards))
	for _, r := range rs {
		text := r.Serialize()
		i := s.shardIndex(r.ID)
		byShard[i] = append(byShard[i], prepared{rec: r, text: text, ext: s.extractFor(text)})
	}

	var inserted []entity.Record
	var insertErr error
insert:
	for i, group := range byShard {
		if len(group) == 0 {
			continue
		}
		sh := s.shards[i]
		sh.mu.Lock()
		for _, p := range group {
			if _, dup := sh.posLocked(p.rec.ID); dup {
				insertErr = fmt.Errorf("%w: %q", ErrDuplicateID, p.rec.ID)
				sh.mu.Unlock()
				break insert
			}
			sh.insertLocked(p.rec, p.text, p.ext)
			inserted = append(inserted, p.rec)
		}
		sh.mu.Unlock()
	}
	s.count.Add(int64(len(inserted)))

	// Journal everything that was inserted, even on a failed batch:
	// the durable log must cover the in-memory state.
	if s.wal != nil && len(inserted) > 0 {
		s.persistMu.Lock()
		err := s.appendRecordsLocked(inserted)
		s.persistMu.Unlock()
		if err != nil {
			// Keep a pending insert error (e.g. the duplicate ID that
			// stopped the batch) visible alongside the journal failure,
			// so errors.Is still finds the typed cause.
			return &BatchError{Added: len(inserted),
				Err: errors.Join(insertErr, fmt.Errorf("journal %d records: %w", len(inserted), err))}
		}
	}
	if insertErr != nil {
		return &BatchError{Added: len(inserted), Err: insertErr}
	}
	return nil
}

// Record returns a stored record by ID.
func (s *Store) Record(id string) (entity.Record, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if pos, ok := sh.posLocked(id); ok {
		return sh.ix.Record(pos), true
	}
	return entity.Record{}, false
}

// stored reports whether a record with the ID is in the store.
func (s *Store) stored(id string) bool {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.posLocked(id)
	return ok
}

// Len returns the number of stored records.
func (s *Store) Len() int { return int(s.count.Load()) }

// appendRecordsLocked journals ingested records with one WAL write:
// all of them land or none. Caller holds persistMu.
func (s *Store) appendRecordsLocked(rs []entity.Record) error {
	entries := make([]persist.Entry, len(rs))
	for i, r := range rs {
		payload, err := persist.EncodeRecord(r)
		if err != nil {
			return err
		}
		entries[i] = persist.Entry{Type: persist.EntryRecord, Payload: payload}
	}
	if err := s.wal.AppendEntries(entries); err != nil {
		return err
	}
	return s.afterAppendLocked(len(entries))
}
