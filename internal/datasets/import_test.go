package datasets

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"llm4em/internal/entity"
)

func TestReadCSVPairsRoundTrip(t *testing.T) {
	d := MustLoad("wa")
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf, d.Test[:25]); err != nil {
		t.Fatal(err)
	}
	schema, pairs, err := ReadCSVPairs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 25 {
		t.Fatalf("read %d pairs, want 25", len(pairs))
	}
	if len(schema.Attributes) != len(d.Schema.Attributes) {
		t.Fatalf("schema = %v, want %v", schema.Attributes, d.Schema.Attributes)
	}
	if schema.Domain != entity.Product {
		t.Errorf("domain = %v, want product", schema.Domain)
	}
	for i, p := range pairs {
		orig := d.Test[i]
		if p.Match != orig.Match {
			t.Errorf("pair %d label mismatch", i)
		}
		if p.A.Serialize() != orig.A.Serialize() || p.B.Serialize() != orig.B.Serialize() {
			t.Errorf("pair %d serialization mismatch:\n%q\n%q", i, p.A.Serialize(), orig.A.Serialize())
		}
	}
}

func TestReadCSVPairsPublicationDomain(t *testing.T) {
	d := MustLoad("ds")
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf, d.Test[:5]); err != nil {
		t.Fatal(err)
	}
	schema, _, err := ReadCSVPairs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if schema.Domain != entity.Publication {
		t.Errorf("domain = %v, want publication", schema.Domain)
	}
}

func TestReadCSVPairsRejectsBadHeaders(t *testing.T) {
	bad := []string{
		"id,label,left_title,right_title\nx,1,a,b",       // wrong first column
		"pair_id,label\nx,1",                             // no attributes
		"pair_id,label,left_title,right_name\nx,1,a,b",   // mismatched right
		"pair_id,label,left_a,left_b,right_a\nx,1,a,b,c", // unbalanced
	}
	for _, csv := range bad {
		if _, _, err := ReadCSVPairs(strings.NewReader(csv)); err == nil {
			t.Errorf("header should be rejected: %q", strings.SplitN(csv, "\n", 2)[0])
		}
	}
}

func TestReadCSVPairsLabelForms(t *testing.T) {
	csv := "pair_id,label,left_title,right_title\np1,1,a,b\np2,0,c,d\np3,true,e,f\np4,FALSE,g,h\np5,True,i,j\n"
	_, pairs, err := ReadCSVPairs(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false, true}
	for i, p := range pairs {
		if p.Match != want[i] {
			t.Errorf("pair %s: label parsed as %v, want %v", p.ID, p.Match, want[i])
		}
	}
	if len(pairs) != len(want) {
		t.Fatalf("read %d pairs, want %d", len(pairs), len(want))
	}
	// Any other label is an error naming its line, never a silent
	// non-match.
	for _, label := range []string{"yes", "2", "", "-1", "t", " 1"} {
		csv := "pair_id,label,left_title,right_title\np1,1,a,b\np2," + label + ",c,d\n"
		_, _, err := ReadCSVPairs(strings.NewReader(csv))
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("label %q: err = %v, want an error naming line 3", label, err)
		}
	}
}

// FuzzReadCSVPairs checks that arbitrary bytes never panic the reader
// and that WriteCSV → ReadCSVPairs returns every pair ID, label and
// attribute value exactly.
func FuzzReadCSVPairs(f *testing.F) {
	f.Add([]byte("pair_id,label,left_title,right_title\np1,1,a,b\n"), "p1", "sony a7", "19.99", "sony \"a7\", black", "", true)
	f.Add([]byte("pair_id,label,left_a,right_a\nx,yes,\"\n"), "q,2", "line\nbreak", " 3 ", "\\.", "x", false)
	f.Fuzz(func(t *testing.T, raw []byte, id, titleA, priceA, titleB, priceB string, match bool) {
		ReadCSVPairs(bytes.NewReader(raw))

		// encoding/csv reads a quoted "\r\n" back as "\n".
		for _, s := range []string{id, titleA, priceA, titleB, priceB} {
			if strings.Contains(s, "\r\n") {
				t.Skip()
			}
		}
		d := &Dataset{Schema: entity.Schema{Attributes: []string{"title", "price"}}}
		in := entity.Pair{
			ID:    id,
			A:     d.Schema.NewRecord(id+"-a", titleA, priceA),
			B:     d.Schema.NewRecord(id+"-b", titleB, priceB),
			Match: match,
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf, []entity.Pair{in}); err != nil {
			t.Fatal(err)
		}
		_, out, err := ReadCSVPairs(&buf)
		if err != nil {
			t.Fatalf("read back %q: %v", buf.String(), err)
		}
		if len(out) != 1 || !reflect.DeepEqual(out[0], in) {
			t.Fatalf("round trip of %q:\n got %+v\nwant %+v", buf.String(), out, in)
		}
	})
}
