package tokenize

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestWords(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Sony WH-1000XM4", []string{"sony", "wh", "1000xm4"}},
		{"", nil},
		{"  ", nil},
		{"Hello, World!", []string{"hello", "world"}},
		{"price: $12.99", []string{"price", "12", "99"}},
		{"ABC123def", []string{"abc123def"}},
	}
	for _, tt := range tests {
		if got := Words(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Words(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestWordsKeepAlnum(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"WD-5000AAKS drive", []string{"wd-5000aaks", "drive"}},
		{"model- x", []string{"model", "x"}},
		{"a/b", []string{"a/b"}},
		{"v1.2 beta", []string{"v1.2", "beta"}},
		{"", nil},
	}
	for _, tt := range tests {
		if got := WordsKeepAlnum(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("WordsKeepAlnum(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestWordsAreLowercase(t *testing.T) {
	f := func(s string) bool {
		for _, w := range Words(s) {
			if w != strings.ToLower(w) || w == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetAndCounts(t *testing.T) {
	toks := []string{"a", "b", "a", "c"}
	s := Set(toks)
	if len(s) != 3 || !s["a"] || !s["b"] || !s["c"] {
		t.Errorf("Set = %v", s)
	}
	c := Counts(toks)
	if c["a"] != 2 || c["b"] != 1 {
		t.Errorf("Counts = %v", c)
	}
}

func TestPredicates(t *testing.T) {
	if !HasDigit("abc1") || HasDigit("abc") {
		t.Error("HasDigit wrong")
	}
	if !HasLetter("1a") || HasLetter("123") {
		t.Error("HasLetter wrong")
	}
	if !IsNumeric("12.5") || !IsNumeric("7") || IsNumeric("1.2.3") || IsNumeric("x1") || IsNumeric("") || IsNumeric(".") {
		t.Error("IsNumeric wrong")
	}
}

func TestEstimateTokens(t *testing.T) {
	if EstimateTokens("") != 0 {
		t.Error("empty string should have 0 tokens")
	}
	// Short words ~1 token each.
	n := EstimateTokens("the cat sat")
	if n != 3 {
		t.Errorf("EstimateTokens(the cat sat) = %d, want 3", n)
	}
	// Longer words split.
	long := EstimateTokens("internationalization")
	if long < 4 || long > 6 {
		t.Errorf("EstimateTokens(internationalization) = %d, want 4-6", long)
	}
	// Punctuation counts.
	if EstimateTokens("yes.") != 2 {
		t.Errorf("EstimateTokens(yes.) = %d, want 2", EstimateTokens("yes."))
	}
}

func TestEstimateTokensMonotoneInRepetition(t *testing.T) {
	a := EstimateTokens("word word word")
	b := EstimateTokens("word word word word word word")
	if b != 2*a {
		t.Errorf("doubling words should double tokens: %d vs %d", a, b)
	}
}

func TestEstimateTokensNonNegative(t *testing.T) {
	f := func(s string) bool { return EstimateTokens(s) >= 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
