package datasets

import (
	"reflect"
	"strings"
	"testing"

	"llm4em/internal/entity"
)

// corruptionFixtures returns a spread of records the knob tests run
// over: full product and publication shapes plus degenerate ones.
func corruptionFixtures() []entity.Record {
	prodSchema := entity.Schema{Domain: entity.Product,
		Attributes: []string{"brand", "title", "modelno", "price"}}
	bibSchema := entity.Schema{Domain: entity.Publication,
		Attributes: []string{"authors", "title", "venue", "year"}}
	return []entity.Record{
		prodSchema.NewRecord("p1", "sony", "cybershot digital camera pro", "dsc-120b", "348.00"),
		prodSchema.NewRecord("p2", "canon", "powershot camera silver 8gb", "sx620", "219.99"),
		bibSchema.NewRecord("b1", "j smith a jones", "scalable entity matching systems", "vldb", "2004"),
		bibSchema.NewRecord("b2", "m garcia", "approximate joins revisited", "sigmod conference", "2007"),
		{ID: "tiny", Attrs: []entity.Attr{{Name: "title", Value: "x"}}},
		{ID: "empty", Attrs: []entity.Attr{{Name: "title", Value: ""}, {Name: "price", Value: ""}}},
	}
}

// TestCorruptorDeterminism pins that corruption is a pure function of
// (seed, kind, level, record): repeated application and fresh
// corruptors yield identical output, and a different seed yields
// different output for at least one fixture.
func TestCorruptorDeterminism(t *testing.T) {
	recs := corruptionFixtures()
	for _, kind := range CorruptionKinds() {
		// Seed sensitivity is aggregated across levels: embed at high
		// levels collapses every attribute of small records, where no
		// permutation choice remains for the seed to steer.
		seedMatters := false
		for _, level := range []int{1, 2, 3} {
			c1 := ForLevel("seed-a", kind, level)
			c2 := ForLevel("seed-a", kind, level)
			diffSeed := ForLevel("seed-b", kind, level)
			for _, r := range recs {
				a, b := c1.Corrupt(r), c2.Corrupt(r)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s level %d: two corruptors with the same seed disagree on %s:\n%v\n%v",
						kind, level, r.ID, a, b)
				}
				if again := c1.Corrupt(r); !reflect.DeepEqual(a, again) {
					t.Fatalf("%s level %d: repeated corruption of %s diverges", kind, level, r.ID)
				}
				if !reflect.DeepEqual(a, diffSeed.Corrupt(r)) {
					seedMatters = true
				}
			}
		}
		// Schema divergence renames deterministically; only its keyed
		// shuffle is seed-sensitive, which single-attribute fixtures
		// cannot show — every other kind must show seed sensitivity.
		if !seedMatters && kind != CorruptSchema {
			t.Errorf("%s: corruption ignores the seed entirely", kind)
		}
	}
}

// TestCorruptorInputUntouched pins that Corrupt never mutates its
// argument: the shard caches of the resolve store hand out shared
// records, so in-place corruption would poison the store.
func TestCorruptorInputUntouched(t *testing.T) {
	for _, kind := range CorruptionKinds() {
		for _, orig := range corruptionFixtures() {
			snapshot := orig.Clone()
			ForLevel("mut", kind, 3).Corrupt(orig)
			if !reflect.DeepEqual(orig, snapshot) {
				t.Fatalf("%s: Corrupt mutated its input %s", kind, orig.ID)
			}
		}
	}
}

// TestCorruptorLevelZeroIdentity pins that level 0 is the identity
// for every kind.
func TestCorruptorLevelZeroIdentity(t *testing.T) {
	for _, kind := range CorruptionKinds() {
		c := ForLevel("z", kind, 0)
		if !c.IsIdentity() {
			t.Errorf("%s: ForLevel(0) = %v, want identity", kind, c)
		}
		for _, r := range corruptionFixtures() {
			if got := c.Corrupt(r); !reflect.DeepEqual(got, r) {
				t.Fatalf("%s level 0 changed %s: %v", kind, r.ID, got)
			}
		}
	}
}

// changedFields counts the attribute slots whose name or value differ
// between an original record and its corrupted version, plus any
// length difference: the realized corruption.
func changedFields(orig, corrupted entity.Record) int {
	n := 0
	common := min(len(orig.Attrs), len(corrupted.Attrs))
	for i := 0; i < common; i++ {
		if orig.Attrs[i] != corrupted.Attrs[i] {
			n++
		}
	}
	n += len(orig.Attrs) - common + len(corrupted.Attrs) - common
	return n
}

// TestCorruptorLevelMonotone pins the level semantics: for every
// kind, a higher level changes at least as many attribute slots of
// every fixture as a lower level.
func TestCorruptorLevelMonotone(t *testing.T) {
	for _, kind := range CorruptionKinds() {
		for _, r := range corruptionFixtures() {
			prev := -1
			for level := 0; level <= 4; level++ {
				got := ForLevel("mono", kind, level).Corrupt(r)
				changed := changedFields(r, got)
				if changed < prev {
					t.Fatalf("%s on %s: level %d changes %d fields, level %d changed %d (not monotone)",
						kind, r.ID, level, changed, level-1, prev)
				}
				prev = changed
			}
		}
	}
}

// TestCorruptorEmbedCollapses pins embed semantics: the chosen values
// all survive inside one blob value and the donors are emptied —
// information preserved, field boundaries destroyed.
func TestCorruptorEmbedCollapses(t *testing.T) {
	schema := entity.Schema{Domain: entity.Product,
		Attributes: []string{"brand", "title", "modelno", "price"}}
	r := schema.NewRecord("e1", "sony", "cybershot camera", "dsc120", "348.00")
	got := Corruptor{Seed: "embed-test", EmbedK: 4}.Corrupt(r)
	nonEmpty := 0
	var blob string
	for _, a := range got.Attrs {
		if a.Value != "" {
			nonEmpty++
			blob = a.Value
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("embed-4 left %d non-empty slots, want 1: %v", nonEmpty, got.Attrs)
	}
	for _, want := range []string{"sony", "cybershot camera", "dsc120", "348.00"} {
		if !strings.Contains(blob, want) {
			t.Errorf("embed blob %q lost value %q", blob, want)
		}
	}
	if got.Serialize() == "" {
		t.Error("embedded record serializes to nothing")
	}
}

// TestCorruptorMisfieldPreservesMultiset pins misfield semantics:
// values move under wrong names but none is lost or invented.
func TestCorruptorMisfieldPreservesMultiset(t *testing.T) {
	schema := entity.Schema{Domain: entity.Publication,
		Attributes: []string{"authors", "title", "venue", "year"}}
	r := schema.NewRecord("m1", "j smith", "entity matching", "vldb", "2004")
	got := Corruptor{Seed: "misfield-test", MisfieldK: 3}.Corrupt(r)
	want := map[string]int{}
	have := map[string]int{}
	moved := 0
	for i := range r.Attrs {
		want[r.Attrs[i].Value]++
		have[got.Attrs[i].Value]++
		if got.Attrs[i].Value != r.Attrs[i].Value {
			moved++
		}
		if got.Attrs[i].Name != r.Attrs[i].Name {
			t.Errorf("misfield renamed attribute %d to %q", i, got.Attrs[i].Name)
		}
	}
	if !reflect.DeepEqual(want, have) {
		t.Fatalf("misfield changed the value multiset: %v -> %v", want, have)
	}
	if moved < 2 {
		t.Fatalf("misfield-3 moved only %d values", moved)
	}
}

// TestCorruptorNullOutRates pins that the null-out knob blanks more
// fields at a higher probability and nothing at zero.
func TestCorruptorNullOutRates(t *testing.T) {
	ds := MustLoad("wdc")
	blanks := func(p float64) int {
		c := Corruptor{Seed: "null-test", NullOut: p}
		n := 0
		for _, pair := range ds.Test[:200] {
			for _, side := range []entity.Record{c.Corrupt(pair.A), c.Corrupt(pair.B)} {
				for _, a := range side.Attrs {
					if a.Value == "" {
						n++
					}
				}
			}
		}
		return n
	}
	base := blanks(0)
	low, high := blanks(0.2), blanks(0.7)
	if !(base <= low && low < high) {
		t.Fatalf("null-out blanks not increasing: p=0 %d, p=0.2 %d, p=0.7 %d", base, low, high)
	}
}

// TestCorruptorSchemaDivergence pins that schema divergence renames
// every attribute and that corrupted records no longer validate
// against the original schema while keeping every value.
func TestCorruptorSchemaDivergence(t *testing.T) {
	ds := MustLoad("ds")
	c := Corruptor{Seed: "schema-test", DivergeSchema: true}
	r := ds.Test[0].A
	got := c.Corrupt(r)
	if err := ds.Schema.Validate(got); err == nil {
		t.Error("schema-divergent record still validates against the original schema")
	}
	origNames := map[string]bool{}
	for _, a := range r.Attrs {
		origNames[a.Name] = true
	}
	vals := map[string]int{}
	for _, a := range r.Attrs {
		vals[a.Value]++
	}
	for _, a := range got.Attrs {
		if origNames[a.Name] {
			t.Errorf("attribute %q kept its canonical name", a.Name)
		}
		vals[a.Value]--
	}
	for v, n := range vals {
		if n != 0 {
			t.Errorf("schema divergence changed value multiset at %q (delta %d)", v, n)
		}
	}
}

// TestParseCorruptionKind covers the flag-parsing helper.
func TestParseCorruptionKind(t *testing.T) {
	for _, k := range CorruptionKinds() {
		got, err := ParseCorruptionKind(" " + strings.ToUpper(string(k)) + " ")
		if err != nil || got != k {
			t.Errorf("ParseCorruptionKind(%q) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseCorruptionKind("meteor"); err == nil {
		t.Error("unknown kind parsed without error")
	}
}

// TestCorruptorString covers the knob description used in dataset
// names and reports.
func TestCorruptorString(t *testing.T) {
	if got := (Corruptor{}).String(); got != "clean" {
		t.Errorf("identity corruptor describes itself as %q", got)
	}
	c := Corruptor{EmbedK: 3, TypoRate: 0.16, DivergeSchema: true}
	got := c.String()
	for _, want := range []string{"embed-3", "typo-0.16", "schema"} {
		if !strings.Contains(got, want) {
			t.Errorf("Corruptor.String() = %q, missing %q", got, want)
		}
	}
}
