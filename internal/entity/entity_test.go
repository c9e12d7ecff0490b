package entity

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSerializeSkipsEmptyValues(t *testing.T) {
	r := Record{ID: "r1", Attrs: []Attr{
		{Name: "brand", Value: "DYMO"},
		{Name: "title", Value: "D1 Tape 12mm"},
		{Name: "currency", Value: ""},
		{Name: "price", Value: "12.99"},
	}}
	got := r.Serialize()
	want := "DYMO D1 Tape 12mm 12.99"
	if got != want {
		t.Errorf("Serialize() = %q, want %q", got, want)
	}
}

func TestSerializeEmptyRecord(t *testing.T) {
	r := Record{ID: "r"}
	if got := r.Serialize(); got != "" {
		t.Errorf("Serialize() = %q, want empty", got)
	}
}

func TestSerializeOrderMatters(t *testing.T) {
	a := Record{Attrs: []Attr{{Name: "x", Value: "1"}, {Name: "y", Value: "2"}}}
	b := Record{Attrs: []Attr{{Name: "y", Value: "2"}, {Name: "x", Value: "1"}}}
	if a.Serialize() == b.Serialize() {
		t.Error("attribute order should affect serialization")
	}
}

func TestGetSet(t *testing.T) {
	r := Record{Attrs: []Attr{{Name: "title", Value: "foo"}}}
	if v, ok := r.Get("title"); !ok || v != "foo" {
		t.Errorf("Get(title) = %q, %v", v, ok)
	}
	if _, ok := r.Get("missing"); ok {
		t.Error("Get(missing) should not be found")
	}
	if _, ok := r.Get("empty"); ok {
		t.Error("Get of empty value should not be found")
	}
	r.Set("title", "bar")
	if v, _ := r.Get("title"); v != "bar" {
		t.Errorf("after Set, Get(title) = %q", v)
	}
	r.Set("new", "baz")
	if v, _ := r.Get("new"); v != "baz" {
		t.Errorf("Set should append missing attribute, got %q", v)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := Record{ID: "a", Attrs: []Attr{{Name: "t", Value: "v"}}}
	c := r.Clone()
	c.Set("t", "changed")
	if v, _ := r.Get("t"); v != "v" {
		t.Error("Clone shares attribute storage with original")
	}
}

func TestSchemaNewRecord(t *testing.T) {
	s := Schema{Domain: Product, Attributes: []string{"brand", "title", "price"}}
	r := s.NewRecord("id1", "Sony", "WH-1000XM4")
	if err := s.Validate(r); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if v, _ := r.Get("brand"); v != "Sony" {
		t.Errorf("brand = %q", v)
	}
	if _, ok := r.Get("price"); ok {
		t.Error("price should be empty")
	}
}

func TestSchemaValidateErrors(t *testing.T) {
	s := Schema{Attributes: []string{"a", "b"}}
	if err := s.Validate(Record{Attrs: []Attr{{Name: "a"}}}); err == nil {
		t.Error("Validate should reject wrong attribute count")
	}
	bad := Record{Attrs: []Attr{{Name: "a"}, {Name: "c"}}}
	if err := s.Validate(bad); err == nil {
		t.Error("Validate should reject wrong attribute name")
	}
}

func TestDomainStrings(t *testing.T) {
	if Product.String() != "product" || Publication.String() != "publication" {
		t.Error("unexpected domain names")
	}
	if Product.Noun() != "product descriptions" {
		t.Errorf("Product.Noun() = %q", Product.Noun())
	}
	if Publication.Noun() != "publications" {
		t.Errorf("Publication.Noun() = %q", Publication.Noun())
	}
	if Domain(99).Noun() != "entity descriptions" {
		t.Error("unknown domain should fall back to generic noun")
	}
}

func TestPairKey(t *testing.T) {
	p := Pair{
		A: Record{ID: "l1", Attrs: []Attr{{Name: "t", Value: "x"}}},
		B: Record{ID: "r9", Attrs: []Attr{{Name: "t", Value: "y"}}},
	}
	if p.Key() != "l1|r9" {
		t.Errorf("Key() = %q", p.Key())
	}
}

func TestCount(t *testing.T) {
	pairs := []Pair{{Match: true}, {Match: false}, {Match: true}, {Match: false}, {Match: false}}
	c := Count(pairs)
	if c.Pos != 2 || c.Neg != 3 || c.Total() != 5 {
		t.Errorf("Count = %+v", c)
	}
}

func TestSerializeNoDoubleBlanks(t *testing.T) {
	// Property: serialization never contains consecutive blanks caused
	// by empty attribute values, regardless of where gaps appear.
	f := func(v1, v2, v3 bool) bool {
		val := func(use bool, s string) string {
			if use {
				return s
			}
			return ""
		}
		r := Record{Attrs: []Attr{
			{Name: "a", Value: val(v1, "alpha")},
			{Name: "b", Value: val(v2, "beta")},
			{Name: "c", Value: val(v3, "gamma")},
		}}
		s := r.Serialize()
		return !strings.Contains(s, "  ") && !strings.HasPrefix(s, " ") && !strings.HasSuffix(s, " ")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
