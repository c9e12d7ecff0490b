package tokenize

import (
	"testing"
)

func TestVocabInterning(t *testing.T) {
	v := NewVocab()
	a := v.IDBytes([]byte("sony"))
	b := v.IDBytes([]byte("camera"))
	if a == b {
		t.Fatal("distinct tokens share an ID")
	}
	if got := v.IDBytes([]byte("sony")); got != a {
		t.Fatalf("re-interning changed the ID: %d vs %d", got, a)
	}
	if got, ok := v.Lookup("camera"); !ok || got != b {
		t.Fatalf("Lookup(camera) = %d,%v want %d,true", got, ok, b)
	}
	if _, ok := v.Lookup("unknown"); ok {
		t.Fatal("Lookup invented an ID")
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if v.Token(a) != "sony" || v.Token(b) != "camera" {
		t.Fatal("Token round-trip broken")
	}
}

// TestScannerMatchesWords: the Scanner must split exactly like Words,
// including unicode case folding and mixed alphanumerics — the blocking
// index's Add scans, its queries arrive as Words — and scanning known
// tokens into a reused buffer, as Add does, must not allocate.
func TestScannerMatchesWords(t *testing.T) {
	inputs := []string{
		"Sony DSC-120B Camera (black)",
		"  multiple   spaces\tand\npunctuation!!",
		"X500B stays one token, X500-B splits",
		"ÜBER Größe łódź",
		"",
		"...",
		"a",
	}
	var sc Scanner
	for _, s := range inputs {
		var got []string
		sc.Reset(s, sc.Buf())
		for tok, ok := sc.Next(); ok; tok, ok = sc.Next() {
			got = append(got, string(tok))
		}
		words := Words(s)
		if len(got) != len(words) {
			t.Fatalf("%q: Scanner yields %q, Words %q", s, got, words)
		}
		for i := range got {
			if got[i] != words[i] {
				t.Fatalf("%q token %d: Scanner yields %q, Words says %q", s, i, got[i], words[i])
			}
		}
	}

	v := NewVocab()
	text := "sony camera model500 pro kit"
	for _, w := range Words(text) {
		v.IDBytes([]byte(w))
	}
	intern := func() {
		sc.Reset(text, sc.Buf())
		for tok, ok := sc.Next(); ok; tok, ok = sc.Next() {
			v.IDBytes(tok)
		}
	}
	if avg := testing.AllocsPerRun(100, intern); avg > 0 {
		t.Fatalf("Scanner + IDBytes allocates %.1f times per text of interned tokens, want 0", avg)
	}
}
