package chaos

import (
	"fmt"
	"sync/atomic"
	"syscall"

	"llm4em/internal/persist"
)

// FSOptions configures write-path fault injection. Ordinals are
// 1-based and count calls across every file the FS has opened; zero
// disables that fault. Each fault fires exactly once — the call at
// the configured ordinal fails, later calls succeed — modelling a
// transient disk error rather than a permanently broken device (a
// permanently full disk is just a store that can't append; the
// interesting behaviour is what one failure does to durability).
type FSOptions struct {
	// FailSyncAt makes the Nth Sync call return an injected error.
	FailSyncAt int64
	// ShortWriteAt makes the Nth Write call write only half its
	// buffer to the underlying file before failing.
	ShortWriteAt int64
	// ENOSPCAt makes the Nth Write call fail with syscall.ENOSPC
	// without writing anything.
	ENOSPCAt int64
}

// FS wraps a persist.FS with fault injection on the files it opens.
// Inject it through resolve.Options.WALFS.
type FS struct {
	inner  persist.FS
	opts   FSOptions
	writes atomic.Int64
	syncs  atomic.Int64
}

// NewFS returns a fault-injecting filesystem over the real one.
func NewFS(o FSOptions) *FS { return WrapFS(persist.OS, o) }

// WrapFS returns a fault-injecting filesystem over inner.
func WrapFS(inner persist.FS, o FSOptions) *FS {
	return &FS{inner: inner, opts: o}
}

// Writes returns the number of Write calls seen across all files.
func (f *FS) Writes() int64 { return f.writes.Load() }

// OpenFile opens path through the inner FS and wraps the handle so
// its writes and fsyncs draw from this FS's fault schedule.
func (f *FS) OpenFile(path string) (persist.File, error) {
	inner, err := f.inner.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &file{File: inner, fs: f}, nil
}

// file wraps a persist.File, sharing the owning FS's call counters so
// fault ordinals are stable regardless of how many files the store
// opens. Read, Seek, Truncate and Close pass through untouched: the
// harness targets the append path (Write/Sync), and rollback after a
// failed append must work or the poison path would dominate every
// test.
type file struct {
	persist.File
	fs *FS
}

func (c *file) Write(p []byte) (int, error) {
	n := c.fs.writes.Add(1)
	switch {
	case c.fs.opts.ENOSPCAt > 0 && n == c.fs.opts.ENOSPCAt:
		return 0, fmt.Errorf("chaos: injected disk full (write %d): %w", n, syscall.ENOSPC)
	case c.fs.opts.ShortWriteAt > 0 && n == c.fs.opts.ShortWriteAt:
		written, err := c.File.Write(p[:len(p)/2])
		if err != nil {
			return written, err
		}
		return written, fmt.Errorf("chaos: injected short write (%d of %d bytes, write %d)", written, len(p), n)
	}
	return c.File.Write(p)
}

func (c *file) Sync() error {
	n := c.fs.syncs.Add(1)
	if c.fs.opts.FailSyncAt > 0 && n == c.fs.opts.FailSyncAt {
		return fmt.Errorf("chaos: injected fsync failure (sync %d)", n)
	}
	return c.File.Sync()
}
