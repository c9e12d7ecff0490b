package persist

import (
	"fmt"
	"io"
	"path/filepath"
)

// File is an open file of an FS. *os.File satisfies it.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.WriterAt
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// FS is the only way to disk: every file of a persistence directory is
// created, written, synced, read, renamed, listed and removed through
// it. OS is the real filesystem; tests substitute one that crashes or
// fails on cue (internal/chaos).
type FS interface {
	// OpenFile opens path read-write, creating it if absent.
	OpenFile(path string) (File, error)
	// Create opens path for writing, truncating or creating it.
	Create(path string) (File, error)
	// Map returns path's bytes read-only, mapped where MmapSupported;
	// they must not be used after release.
	Map(path string) (data []byte, release func() error, err error)
	Rename(from, to string) error
	Remove(path string) error
	// List returns the names in dir, sorted.
	List(dir string) ([]string, error)
	MkdirAll(dir string) error
	// SyncDir makes the creates, renames and removes in dir durable.
	SyncDir(dir string) error
}

// WriteAtomic replaces path with what write puts into a fresh file:
// temporary file, write, fsync, close, rename over path, directory
// sync. A crash leaves the old file or the new one, never a partial
// one; an error means the rename did not happen, and the temporary
// file is removed. The directory sync is best-effort: some filesystems
// refuse it, and an error after the rename would report the old file
// as standing.
func WriteAtomic(fsys FS, path string, write func(File) error) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("persist: create %s: %w", filepath.Base(tmp), err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("persist: write %s: %w", filepath.Base(path), err)
	}
	fsys.SyncDir(filepath.Dir(path))
	return nil
}
