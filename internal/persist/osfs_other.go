//go:build !unix

package persist

import (
	"io"
	"os"
)

// MmapSupported reports whether OS.Map maps files or reads them.
const MmapSupported = false

// mapFile reads size bytes of f into the heap on platforms without
// mmap, so the same files serve everywhere; release has nothing to
// unmap.
func mapFile(f *os.File, size int) ([]byte, func() error, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
