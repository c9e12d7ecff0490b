//go:build !unix

package blocking

import (
	"io"
	"os"
)

const mmapSupported = false

// mmapFile reads size bytes of f into the heap on platforms without
// mmap, so OpenMapped serves the same files everywhere; the release
// function has nothing to unmap.
func mmapFile(f *os.File, size int) ([]byte, func() error, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
