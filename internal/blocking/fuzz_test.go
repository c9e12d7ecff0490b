package blocking

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"llm4em/internal/entity"
)

// FuzzOpenMapped feeds mutated EMIX files to OpenMapped — the on-disk
// state after bit rot past the rename's atomicity — and pins the open
// contract: a refusal is ErrSnapshotTorn or ErrSnapshotVersion, and an
// accepted index answers Len, then Record, RecordID and
// RecordPos(RecordID(pos)) for every position, and a query of an absent
// token, without a panic or a hang; every attribute name a Record
// returns is in the file's names table. The seeds are an empty index,
// one record, 200 WDC records, and a file whose records mix schemas:
// WDC records, records with other attribute names, one with no
// attributes and one that repeats a name. Every input's header CRC is
// fixed up first, so mutations reach the section-table, names and
// token-table checks rather than dying at the checksum. Posting
// streams stay trusted by design (see the format comment in
// snapshot.go): the query names a token no seed holds, so the target
// never decodes them.
//
// The seeds are 20–66 KB, so minimizing each new interesting input at
// the default -fuzzminimizetime (60s) would take up a short run: run it
// with -fuzzminimizetime 100x.
func FuzzOpenMapped(f *testing.F) {
	wdc, _ := wdcCorpus(f, 200)
	bib := entity.Schema{Domain: entity.Publication, Attributes: []string{"authors", "title", "venue", "year"}}
	mixed := append(slices.Clip(wdc[:60]),
		bib.NewRecord("b1", "j smith", "scalable entity matching", "vldb", "2004"),
		entity.Record{ID: "bare"},
		entity.Record{ID: "repeat", Attrs: []entity.Attr{{Name: "title", Value: "sony camera"}, {Name: "note", Value: "boxed"}, {Name: "title", Value: "dsc-120b"}}},
		bib.NewRecord("b2", "m garcia", "approximate joins", "sigmod", "2007"),
	)
	for _, recs := range [][]entity.Record{nil, wdc[:1], wdc, mixed} {
		path := filepath.Join(f.TempDir(), "seed.emx")
		if err := BuildIndex(recs, IndexOptions{}).WriteSnapshot(path); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		ix, err := OpenMapped(path, IndexOptions{})
		if err != nil {
			f.Fatal(err)
		}
		for pos, r := range recs {
			if got := ix.Record(pos); got.ID != r.ID || !slices.Equal(got.Attrs, r.Attrs) {
				f.Fatalf("seed of %d records: Record(%d) = %+v, want %+v", len(recs), pos, got, r)
			}
		}
		ix.Close()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		if len(data) >= emixHeaderSize {
			binary.LittleEndian.PutUint32(data[emixHeaderSize-4:], crc32.ChecksumIEEE(data[:emixHeaderSize-4]))
		}
		path := filepath.Join(t.TempDir(), "fuzz.emx")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := OpenMapped(path, IndexOptions{})
		if err != nil {
			if !errors.Is(err, ErrSnapshotTorn) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("OpenMapped refused with an untyped error: %v", err)
			}
			return
		}
		defer ix.Close()
		for pos := 0; pos < ix.Len(); pos++ {
			for _, a := range ix.Record(pos).Attrs {
				if !slices.Contains(ix.base.names, a.Name) {
					t.Fatalf("Record(%d) has attribute name %q, which the names table %q does not hold", pos, a.Name, ix.base.names)
				}
			}
			_, _ = ix.RecordPos(ix.RecordID(pos))
		}
		_ = ix.QueryTokens([]string{"zzzabsenttoken"}, 10, 0)
	})
}
