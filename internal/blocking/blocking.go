// Package blocking provides candidate generation for end-to-end
// matching pipelines. The paper's experiments start from given record
// pairs; a deployed matcher (the "central step in most data
// integration pipelines" of the introduction) first needs a blocker
// that reduces the quadratic pair space to likely candidates, and a
// clusterer that turns pairwise decisions into entity groups. The
// online resolution store (internal/resolve) is that pipeline: it
// keeps one Index per shard and folds its decisions with UnionFind.
//
// The candidate index (Index) has one postings representation —
// delta+varint streams, postings.go — one scorer, the term-at-a-time
// scan of index.go, an mmap snapshot format (snapshot.go) and one
// options struct, IndexOptions, holding the stop-token fraction.
package blocking
