//go:build unix

package persist

import (
	"os"
	"syscall"
)

// MmapSupported reports whether OS.Map maps files or reads them.
const MmapSupported = true

// mapFile maps size bytes of f read-only. f may be closed as soon as
// mapFile returns: the mapping keeps the pages alive until release.
func mapFile(f *os.File, size int) ([]byte, func() error, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
