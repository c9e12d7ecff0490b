// Package entity defines the data model shared by every component of
// the entity-matching system: entity descriptions (records) consisting
// of ordered attribute/value pairs, labelled record pairs, and the
// serialization scheme of the paper (Section 2): attribute values are
// concatenated with single blanks, without attribute names, in the
// order fixed by the dataset schema.
package entity

import (
	"fmt"
	"strings"
)

// Domain identifies the topical domain of a dataset. The paper covers
// two: product offers and bibliographic publications.
type Domain int

// Supported domains.
const (
	Product Domain = iota
	Publication
)

// String returns the lower-case domain name.
func (d Domain) String() string {
	switch d {
	case Product:
		return "product"
	case Publication:
		return "publication"
	default:
		return fmt.Sprintf("domain(%d)", int(d))
	}
}

// Noun returns the noun phrase used by domain-specific task
// descriptions, e.g. "product descriptions" or "publications".
func (d Domain) Noun() string {
	switch d {
	case Product:
		return "product descriptions"
	case Publication:
		return "publications"
	default:
		return "entity descriptions"
	}
}

// Attr is a single named attribute value of an entity description.
type Attr struct {
	Name  string
	Value string
}

// Record is one entity description: an ordered list of attribute
// values. Order matters because serialization concatenates values in
// schema order.
type Record struct {
	// ID uniquely identifies the record within its dataset side.
	ID string
	// Attrs holds the attribute values in schema order. Missing values
	// are represented by empty strings and skipped by Serialize.
	Attrs []Attr
}

// Get returns the value of the named attribute and whether it exists
// with a non-empty value.
func (r Record) Get(name string) (string, bool) {
	for _, a := range r.Attrs {
		if a.Name == name && a.Value != "" {
			return a.Value, true
		}
	}
	return "", false
}

// Set replaces the value of the named attribute, or appends it if the
// record has no attribute of that name.
func (r *Record) Set(name, value string) {
	for i := range r.Attrs {
		if r.Attrs[i].Name == name {
			r.Attrs[i].Value = value
			return
		}
	}
	r.Attrs = append(r.Attrs, Attr{Name: name, Value: value})
}

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	cp := Record{ID: r.ID, Attrs: make([]Attr, len(r.Attrs))}
	copy(cp.Attrs, r.Attrs)
	return cp
}

// Serialize concatenates the record's attribute values with single
// blanks, skipping empty values, exactly as described in Section 2 of
// the paper: serialize(e) := ValA1 ValA2 ... ValAn. Attribute names
// are deliberately not included; the paper found that adding them
// hurt performance.
func (r Record) Serialize() string {
	var b strings.Builder
	for _, a := range r.Attrs {
		if a.Value == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.Value)
	}
	return b.String()
}

// String implements fmt.Stringer using the serialized form.
func (r Record) String() string { return r.Serialize() }

// Pair is a labelled pair of entity descriptions. Match is the gold
// label: true if both descriptions refer to the same real-world
// entity.
type Pair struct {
	ID    string
	A, B  Record
	Match bool
}

// Key returns a stable identity for the pair based on the record IDs.
func (p Pair) Key() string {
	return p.A.ID + "|" + p.B.ID
}

// Schema describes the attributes of a dataset in serialization order,
// together with its topical domain.
type Schema struct {
	Domain     Domain
	Attributes []string
}

// NewRecord builds a record conforming to the schema from the given
// values. Extra values are ignored; missing values become empty
// attributes.
func (s Schema) NewRecord(id string, values ...string) Record {
	r := Record{ID: id, Attrs: make([]Attr, len(s.Attributes))}
	for i, name := range s.Attributes {
		r.Attrs[i].Name = name
		if i < len(values) {
			r.Attrs[i].Value = values[i]
		}
	}
	return r
}

// Validate reports an error if the record's attributes do not follow
// the schema's names and order.
func (s Schema) Validate(r Record) error {
	if len(r.Attrs) != len(s.Attributes) {
		return fmt.Errorf("entity: record %s has %d attributes, schema has %d", r.ID, len(r.Attrs), len(s.Attributes))
	}
	for i, name := range s.Attributes {
		if r.Attrs[i].Name != name {
			return fmt.Errorf("entity: record %s attribute %d is %q, schema expects %q", r.ID, i, r.Attrs[i].Name, name)
		}
	}
	return nil
}

// Counts summarises the matches and non-matches within a set of pairs.
type Counts struct {
	Pos, Neg int
}

// Count tallies positive and negative pairs.
func Count(pairs []Pair) Counts {
	var c Counts
	for _, p := range pairs {
		if p.Match {
			c.Pos++
		} else {
			c.Neg++
		}
	}
	return c
}

// Total returns the number of pairs counted.
func (c Counts) Total() int { return c.Pos + c.Neg }
