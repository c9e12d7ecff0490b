package chaos

import (
	"io"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"sync"

	"llm4em/internal/persist"
)

// MemFS is an in-memory persist.FS that keeps synced and unsynced
// state apart, so Crash can drop what an OS crash would: a file's
// bytes become durable at its File.Sync, and the creates, renames and
// removes inside a directory at that directory's SyncDir. Directories
// themselves are durable once made. Safe for concurrent use.
type MemFS struct {
	mu   sync.Mutex
	dirs map[string]*memDir
}

// memDir is one directory's entries as the running process sees them
// (live) and as they stood at its last SyncDir (durable).
type memDir struct {
	live, durable map[string]*inode
}

// inode is one file's bytes as written and as of its last Sync.
type inode struct {
	data, synced []byte
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{dirs: map[string]*memDir{}} }

// Crash reduces the filesystem to what survives an OS crash: each
// directory's entries as of its last SyncDir, each file's bytes as of
// its last Sync. Handles opened before the crash no longer reach the
// surviving files.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.dirs {
		d.live = make(map[string]*inode, len(d.durable))
		for name, ino := range d.durable {
			// synced is replaced, never written in place: share it.
			ino = &inode{data: slices.Clone(ino.synced), synced: ino.synced}
			d.live[name], d.durable[name] = ino, ino
		}
	}
}

// lookup returns path's directory and base name; the directory must
// exist. Callers hold mu.
func (m *MemFS) lookup(op, path string) (*memDir, string, error) {
	d := m.dirs[filepath.Dir(filepath.Clean(path))]
	if d == nil {
		return nil, "", &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
	}
	return d, filepath.Base(path), nil
}

// open returns path's inode, creating it if absent, and with truncate
// empties it.
func (m *MemFS) open(op, path string, truncate bool) (persist.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, name, err := m.lookup(op, path)
	if err != nil {
		return nil, err
	}
	ino := d.live[name]
	if ino == nil {
		ino = &inode{}
		d.live[name] = ino
	}
	if truncate {
		ino.data = nil
	}
	return &memFile{fs: m, ino: ino}, nil
}

func (m *MemFS) OpenFile(path string) (persist.File, error) { return m.open("open", path, false) }

func (m *MemFS) Create(path string) (persist.File, error) { return m.open("create", path, true) }

// Map returns a copy of path's bytes, as reading a file into memory
// would.
func (m *MemFS) Map(path string) ([]byte, func() error, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, name, err := m.lookup("open", path)
	if err == nil && d.live[name] == nil {
		err = &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	if err != nil {
		return nil, nil, err
	}
	return slices.Clone(d.live[name].data), func() error { return nil }, nil
}

func (m *MemFS) Rename(from, to string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	fd, fname, err := m.lookup("rename", from)
	if err != nil {
		return err
	}
	td, tname, err := m.lookup("rename", to)
	if err != nil {
		return err
	}
	ino := fd.live[fname]
	if ino == nil {
		return &fs.PathError{Op: "rename", Path: from, Err: fs.ErrNotExist}
	}
	delete(fd.live, fname)
	td.live[tname] = ino
	return nil
}

func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, name, err := m.lookup("remove", path)
	if err == nil && d.live[name] == nil {
		err = &fs.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	}
	if err != nil {
		return err
	}
	delete(d.live, name)
	return nil
}

func (m *MemFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[filepath.Clean(dir)]
	if d == nil {
		return nil, &fs.PathError{Op: "readdir", Path: dir, Err: fs.ErrNotExist}
	}
	names := make([]string, 0, len(d.live))
	for name := range d.live {
		names = append(names, name)
	}
	slices.Sort(names)
	return names, nil
}

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for dir = filepath.Clean(dir); m.dirs[dir] == nil; dir = filepath.Dir(dir) {
		m.dirs[dir] = &memDir{live: map[string]*inode{}, durable: map[string]*inode{}}
	}
	return nil
}

func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[filepath.Clean(dir)]
	if d == nil {
		return &fs.PathError{Op: "sync", Path: dir, Err: fs.ErrNotExist}
	}
	d.durable = maps.Clone(d.live)
	return nil
}

// memFile is an open handle on an inode, with its own offset.
type memFile struct {
	fs     *MemFS
	ino    *inode
	off    int64
	closed bool
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	n, err := f.readAt(p, f.off)
	f.off += int64(n)
	return n, err
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.readAt(p, off)
}

func (f *memFile) readAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, fs.ErrClosed
	}
	if off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	n, err := f.writeAt(p, f.off)
	f.off += int64(n)
	return n, err
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.writeAt(p, off)
}

func (f *memFile) writeAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, fs.ErrClosed
	}
	if end := off + int64(len(p)); end > int64(len(f.ino.data)) {
		f.ino.data = append(f.ino.data, make([]byte, end-int64(len(f.ino.data)))...)
	}
	return copy(f.ino.data[off:], p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += int64(len(f.ino.data))
	}
	if offset < 0 {
		return 0, fs.ErrInvalid
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	if size <= int64(len(f.ino.data)) {
		f.ino.data = f.ino.data[:size:size]
	} else {
		f.ino.data = append(f.ino.data, make([]byte, size-int64(len(f.ino.data)))...)
	}
	return nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.ino.synced = slices.Clone(f.ino.data)
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.closed = true
	return nil
}
