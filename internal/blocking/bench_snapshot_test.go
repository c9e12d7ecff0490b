package blocking

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkSnapshotWrite measures writing the mmap snapshot of a
// 100k-record index.
func BenchmarkSnapshotWrite(b *testing.B) {
	records := syntheticRecords(100000)
	ix := BuildIndex(records, IndexOptions{})
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, "bench.emx")
		if err := ix.WriteSnapshot(path); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		os.Remove(path)
		b.StartTimer()
	}
}

// BenchmarkOpenMapped measures the restart path: opening a written
// snapshot into a serving index. The header walk plus one token-table
// sweep is what turns a 10M-record restart from an ingest replay into
// a page-cache mmap.
func BenchmarkOpenMapped(b *testing.B) {
	records := syntheticRecords(100000)
	ix := BuildIndex(records, IndexOptions{})
	path := filepath.Join(b.TempDir(), "bench.emx")
	if err := ix.WriteSnapshot(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := OpenMapped(path, IndexOptions{})
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}
