package textsim

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"llm4em/internal/tokenize"
)

// refTruncRunes, refJaro and refGeneralizedJaccard are the slice-and-
// sort.SliceStable formulation the package shipped before its kernel
// moved to stack arrays and pooled scratch. They are the oracle the
// kernel must match bit for bit.
func refTruncRunes(s string, n int) []rune {
	rs := make([]rune, 0, min(n, len(s)))
	for _, r := range s {
		if len(rs) == n {
			break
		}
		rs = append(rs, r)
	}
	return rs
}

func refJaro(a, b string) float64 {
	ra := refTruncRunes(a, maxJaroRunes)
	rb := refTruncRunes(b, maxJaroRunes)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(0, i-window)
		hi := min(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

func refGeneralizedJaccard(a, b []string, sim func(x, y string) float64, threshold float64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(a)*len(b) > maxFuzzyPairs {
		return exactGeneralizedJaccard(a, b)
	}
	type cand struct {
		i, j int
		s    float64
	}
	var cands []cand
	for i, x := range a {
		for j, y := range b {
			s := sim(x, y)
			if s >= threshold {
				cands = append(cands, cand{i, j, s})
			}
		}
	}
	sort.SliceStable(cands, func(x, y int) bool { return cands[x].s > cands[y].s })
	usedA := make([]bool, len(a))
	usedB := make([]bool, len(b))
	sum := 0.0
	matched := 0
	for _, c := range cands {
		if usedA[c.i] || usedB[c.j] {
			continue
		}
		usedA[c.i] = true
		usedB[c.j] = true
		sum += c.s
		matched++
	}
	return sum / float64(len(a)+len(b)-matched)
}

// sameBits reports bitwise float64 equality (NaN-safe, -0 ≠ +0).
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// fuzzTokens splits s on spaces into a token list (empty tokens kept)
// and repeats it rep+1 times, so a short input reaches duplicates and,
// repeated, the > maxFuzzyPairs exact path.
func fuzzTokens(s string, rep uint8) []string {
	ts := strings.Split(s, " ")
	out := make([]string, 0, len(ts)*(int(rep)+1))
	for range int(rep) + 1 {
		out = append(out, ts...)
	}
	return out
}

// FuzzGeneralizedJaccard pins the kernel to the reference: bitwise the
// same Jaro per token pair and the same Generalized Jaccard per list
// pair, on arbitrary UTF-8 (valid or not), tokens past maxJaroRunes,
// duplicate tokens and lists long enough for the exact path. The
// kernel decodes each token once and runs Jaro only on unequal tokens
// that share a rune; the reference runs it on every pair.
func FuzzGeneralizedJaccard(f *testing.F) {
	long := strings.Repeat("ab", 40) // 80 runes: truncated to 64
	f.Add("sony wh-1000xm4 wireless headphones black", "sony wh1000xm4 wireless headphone black", uint8(0))
	f.Add("windows xp professional", "window xp profesional", uint8(0))
	f.Add("a a b b", "a b a b", uint8(0))
	f.Add(long+"x "+long+"y", long+"y "+long, uint8(0))
	f.Add("héllo wörld ñandú 日本語", "hello world nandu 日本", uint8(0))
	f.Add("\xff\xfe abc \xc3", "abc \xc3\xa9 \xff", uint8(0))
	f.Add("", "x", uint8(0))
	f.Add("alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi omicron pi",
		"alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi omicron rho", uint8(9))
	// Equal tokens, which score 1 without Jaro; lists with no character
	// in common, whose pairs the rune masks skip; runes that differ but
	// share their low six bits (a, á = U+00E1, ᙡ = U+1661, all 33 mod
	// 64), which the masks cannot tell apart; and tokens past 64 runes
	// that are equal, or differ only after the 64th rune.
	f.Add("sony sony camera", "camera sony sony", uint8(0))
	f.Add("abc def", "xyz uvw", uint8(0))
	f.Add("a á ᙡ aá", "á ᙡ a áa", uint8(0))
	f.Add(long+"x "+long+"x", long+"x "+long+"y", uint8(1))
	f.Fuzz(func(t *testing.T, sa, sb string, rep uint8) {
		a, b := fuzzTokens(sa, rep), fuzzTokens(sb, rep)
		for _, x := range a[:min(len(a), 8)] {
			for _, y := range b[:min(len(b), 8)] {
				if got, want := Jaro(x, y), refJaro(x, y); !sameBits(got, want) {
					t.Fatalf("Jaro(%q, %q) = %v, reference %v", x, y, got, want)
				}
			}
		}
		if got, want := GeneralizedJaccard(a, b), refGeneralizedJaccard(a, b, refJaro, 0.5); !sameBits(got, want) {
			t.Fatalf("GeneralizedJaccard(%q, %q) = %v, reference %v", a, b, got, want)
		}
	})
}

// TestKernelAllocs pins the serving kernel allocation-free: Jaro on
// stack arrays, GeneralizedJaccard on pooled scratch once warm.
func TestKernelAllocs(t *testing.T) {
	x := tokenize.Words("sony wh-1000xm4 wireless noise canceling headphones black 348.00")
	y := tokenize.Words("sony wh1000xm4 wireless noise cancelling headphone black 349.99")
	if avg := testing.AllocsPerRun(200, func() { sink = Jaro("cancelling", "canceling") }); avg != 0 {
		t.Errorf("Jaro allocates %.1f times, want 0", avg)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; the pooled kernel's budget holds only without it")
	}
	if avg := testing.AllocsPerRun(200, func() { sink = GeneralizedJaccard(x, y) }); avg != 0 {
		t.Errorf("GeneralizedJaccard allocates %.1f times, want 0", avg)
	}
}

// TestGeneralizedJaccardConcurrent runs callers of different list sizes
// against the shared pool at once (meant for -race): a scratch handed
// to two calls, or returned still in use, would corrupt a result.
func TestGeneralizedJaccardConcurrent(t *testing.T) {
	inputs := [][2]string{
		{"sony wh-1000xm4 wireless headphones black", "sony wh1000xm4 wireless headphone black"},
		{"windows xp professional", "window xp profesional"},
		{"adobe photoshop elements 5.0 full version", "photoshop elements 5 upgrade"},
		{"a b c d e f g h i j k l m n o p", "p o n m l k j i h g f e d c b a"},
	}
	want := make([]float64, len(inputs))
	for i, in := range inputs {
		want[i] = refGeneralizedJaccard(tokenize.Words(in[0]), tokenize.Words(in[1]), refJaro, 0.5)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 200 {
				i := (g + k) % len(inputs)
				a, b := tokenize.Words(inputs[i][0]), tokenize.Words(inputs[i][1])
				if got := GeneralizedJaccard(a, b); !sameBits(got, want[i]) {
					t.Errorf("goroutine %d: GeneralizedJaccard(%q) = %v, want %v", g, inputs[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
