package chaos

import (
	"fmt"
	"sync/atomic"
	"syscall"

	"llm4em/internal/persist"
)

// Op names one operation of a persist.FS or of a file it opened, as
// FSOptions.Fail sees it.
type Op string

// The operations FS passes to FSOptions.Fail. Seek is not one: it
// touches no byte.
const (
	OpOpen     Op = "open"   // FS.OpenFile
	OpCreate   Op = "create" // FS.Create
	OpMap      Op = "map"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpList     Op = "list"
	OpMkdir    Op = "mkdir"
	OpSyncDir  Op = "syncdir"
	OpRead     Op = "read"  // File.Read and File.ReadAt
	OpWrite    Op = "write" // File.Write and File.WriteAt
	OpTruncate Op = "truncate"
	OpSync     Op = "sync" // File.Sync
	OpClose    Op = "close"
)

// Mutates reports whether op can change what a crash leaves on disk.
func (op Op) Mutates() bool {
	switch op {
	case OpMap, OpList, OpRead, OpClose:
		return false
	}
	return true
}

// FSOptions configures fault injection. The ordinal faults model a
// flaky disk under the logs' append path: they are 1-based and count
// the Write and Sync calls of every file OpenFile opened (wal.log and
// journal.log), zero disabling one. Each fires exactly once — the call
// at the configured ordinal fails, later calls succeed — modelling a
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
	// Fail, when set, is asked before every operation of the FS and of
	// the files it opened, with the operation's path (a rename's
	// source); an error fails that call without reaching the inner FS,
	// except that a failed Close still closes the inner file. It may be
	// called from several goroutines at once.
	Fail func(op Op, path string) error
}

// FS wraps a persist.FS with fault injection on every operation.
// Inject it through resolve.Options.FS.
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

// Writes returns the number of Write calls seen across the logs.
func (f *FS) Writes() int64 { return f.writes.Load() }

func (f *FS) fail(op Op, path string) error {
	if f.opts.Fail == nil {
		return nil
	}
	return f.opts.Fail(op, path)
}

// OpenFile opens path through the inner FS and wraps the handle so
// its writes and fsyncs draw from this FS's fault schedule.
func (f *FS) OpenFile(path string) (persist.File, error) {
	return f.open(OpOpen, path, f.inner.OpenFile)
}

// Create creates path through the inner FS; only Fail reaches the
// handle.
func (f *FS) Create(path string) (persist.File, error) {
	return f.open(OpCreate, path, f.inner.Create)
}

func (f *FS) open(op Op, path string, open func(string) (persist.File, error)) (persist.File, error) {
	if err := f.fail(op, path); err != nil {
		return nil, err
	}
	inner, err := open(path)
	if err != nil {
		return nil, err
	}
	return &file{File: inner, fs: f, path: path, log: op == OpOpen}, nil
}

func (f *FS) Map(path string) ([]byte, func() error, error) {
	if err := f.fail(OpMap, path); err != nil {
		return nil, nil, err
	}
	return f.inner.Map(path)
}

func (f *FS) Rename(from, to string) error {
	if err := f.fail(OpRename, from); err != nil {
		return err
	}
	return f.inner.Rename(from, to)
}

func (f *FS) Remove(path string) error {
	if err := f.fail(OpRemove, path); err != nil {
		return err
	}
	return f.inner.Remove(path)
}

func (f *FS) List(dir string) ([]string, error) {
	if err := f.fail(OpList, dir); err != nil {
		return nil, err
	}
	return f.inner.List(dir)
}

func (f *FS) MkdirAll(dir string) error {
	if err := f.fail(OpMkdir, dir); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

func (f *FS) SyncDir(dir string) error {
	if err := f.fail(OpSyncDir, dir); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// file wraps a persist.File. A log's handle shares the owning FS's
// ordinal counters, so fault ordinals are stable regardless of how
// many files the store opens. Seek passes through untouched, and the
// ordinals leave Read, Truncate and Close alone: rollback after a
// failed append must work or the poison path would dominate every
// test.
type file struct {
	persist.File
	fs   *FS
	path string
	log  bool
}

func (c *file) Read(p []byte) (int, error) {
	if err := c.fs.fail(OpRead, c.path); err != nil {
		return 0, err
	}
	return c.File.Read(p)
}

func (c *file) ReadAt(p []byte, off int64) (int, error) {
	if err := c.fs.fail(OpRead, c.path); err != nil {
		return 0, err
	}
	return c.File.ReadAt(p, off)
}

func (c *file) Write(p []byte) (int, error) {
	if err := c.fs.fail(OpWrite, c.path); err != nil {
		return 0, err
	}
	if !c.log {
		return c.File.Write(p)
	}
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

func (c *file) WriteAt(p []byte, off int64) (int, error) {
	if err := c.fs.fail(OpWrite, c.path); err != nil {
		return 0, err
	}
	return c.File.WriteAt(p, off)
}

func (c *file) Truncate(size int64) error {
	if err := c.fs.fail(OpTruncate, c.path); err != nil {
		return err
	}
	return c.File.Truncate(size)
}

func (c *file) Sync() error {
	if err := c.fs.fail(OpSync, c.path); err != nil {
		return err
	}
	if c.log {
		n := c.fs.syncs.Add(1)
		if c.fs.opts.FailSyncAt > 0 && n == c.fs.opts.FailSyncAt {
			return fmt.Errorf("chaos: injected fsync failure (sync %d)", n)
		}
	}
	return c.File.Sync()
}

func (c *file) Close() error {
	err := c.fs.fail(OpClose, c.path)
	if cerr := c.File.Close(); err == nil {
		err = cerr
	}
	return err
}
