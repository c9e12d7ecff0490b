package persist

import "os"

// OS is the real filesystem, the one FS that calls the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(path string) (File, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
}

func (osFS) Create(path string) (File, error) { return os.Create(path) }

func (osFS) Map(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() == 0 { // nothing to map
		return nil, func() error { return nil }, err
	}
	return mapFile(f, int(st.Size()))
}

func (osFS) Rename(from, to string) error { return os.Rename(from, to) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// SyncDir fsyncs dir. Windows cannot flush the read-only handle
// os.Open returns, and some filesystems refuse to sync a directory.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
