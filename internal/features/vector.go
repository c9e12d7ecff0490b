package features

import (
	"math"
	"strings"

	"llm4em/internal/entity"
	"llm4em/internal/textsim"
	"llm4em/internal/tokenize"
)

// Feature identifies one dimension of the unified pair feature
// vector. The vector spans both topical domains; features whose
// evidence is absent from a pair are marked missing in the Presence
// mask and contribute nothing to scores.
type Feature int

// The unified feature dimensions.
const (
	TitleGenJaccard  Feature = iota // Generalized Jaccard of residual title tokens
	TitleCosine                     // cosine of residual title tokens
	TitleContainment                // max directional containment of title tokens
	BrandMatch                      // brand equality / similarity
	ModelMatch                      // best model-number correspondence
	PriceMatch                      // relative price similarity
	VersionMatch                    // version-token overlap (software offers)
	VariantMatch                    // quantity-variant overlap ("8gb" vs "16gb")
	EditionMatch                    // software-edition overlap ("upgrade" vs "full version")
	AuthorMatch                     // author-surname overlap
	VenueMatch                      // canonical venue equality
	YearMatch                       // year equality (0.5 for off-by-one)
	OverallJaccard                  // Jaccard of the full serializations
	NumFeatures                     // number of features
)

// String returns the attribute name used in explanations for the
// feature.
func (f Feature) String() string {
	switch f {
	case TitleGenJaccard:
		return "title"
	case TitleCosine:
		return "title wording"
	case TitleContainment:
		return "title containment"
	case BrandMatch:
		return "brand"
	case ModelMatch:
		return "model"
	case PriceMatch:
		return "price"
	case VersionMatch:
		return "version"
	case VariantMatch:
		return "variant"
	case EditionMatch:
		return "edition"
	case AuthorMatch:
		return "authors"
	case VenueMatch:
		return "venue"
	case YearMatch:
		return "year"
	case OverallJaccard:
		return "overall tokens"
	default:
		return "feature"
	}
}

// Vector holds one value per feature, each in [0, 1].
type Vector [NumFeatures]float64

// Presence marks which features could be computed for a pair (both
// sides supplied the evidence).
type Presence [NumFeatures]bool

// PairFeatures computes the unified feature vector for two extracted
// entity descriptions.
func PairFeatures(a, b Extracted) (Vector, Presence) {
	var v Vector
	var p Presence

	ta, tb := a.TitleTokens, b.TitleTokens
	if len(ta) == 0 {
		ta = a.Tokens
	}
	if len(tb) == 0 {
		tb = b.Tokens
	}
	v[TitleGenJaccard] = textsim.GeneralizedJaccard(ta, tb, textsim.Jaro, 0.5)
	p[TitleGenJaccard] = true
	v[TitleCosine] = textsim.Cosine(ta, tb)
	p[TitleCosine] = true
	v[TitleContainment] = math.Max(textsim.Containment(ta, tb), textsim.Containment(tb, ta))
	p[TitleContainment] = true

	if a.Brand != "" && b.Brand != "" {
		if a.Brand == b.Brand {
			v[BrandMatch] = 1
		} else {
			v[BrandMatch] = textsim.JaroWinkler(a.Brand, b.Brand) * 0.5
		}
		p[BrandMatch] = true
	}

	if len(a.Models) > 0 && len(b.Models) > 0 {
		v[ModelMatch] = bestModelSim(a.Models, b.Models)
		p[ModelMatch] = true
	}

	if a.HasPrice && b.HasPrice {
		v[PriceMatch] = textsim.NumericSim(a.Price, b.Price)
		p[PriceMatch] = true
	}

	// Software offers often carry their version as a bare year
	// ("Office 2007"); for product-domain strings the year evidence is
	// folded into the version comparison rather than YearMatch.
	va, vb := effectiveVersions(a), effectiveVersions(b)
	if len(va) > 0 && len(vb) > 0 {
		v[VersionMatch] = versionSim(va, vb)
		p[VersionMatch] = true
	}

	if s, ok := variantSim(a, b); ok {
		v[VariantMatch] = s
		p[VariantMatch] = true
	}

	// Edition evidence is meaningful even one-sided: an offer that
	// states "upgrade" while the other does not is weak evidence for
	// different SKUs of the same product line.
	switch {
	case len(a.Editions) > 0 && len(b.Editions) > 0:
		v[EditionMatch] = textsim.Jaccard(a.Editions, b.Editions)
		p[EditionMatch] = true
	case len(a.Editions) > 0 || len(b.Editions) > 0:
		v[EditionMatch] = 0.35
		p[EditionMatch] = true
	}

	if len(a.Authors) > 0 && len(b.Authors) > 0 {
		v[AuthorMatch] = textsim.MongeElkanSym(a.Authors, b.Authors, textsim.JaroWinkler)
		p[AuthorMatch] = true
	}

	if a.Venue != "" && b.Venue != "" {
		if a.Venue == b.Venue {
			v[VenueMatch] = 1
		} else {
			v[VenueMatch] = textsim.JaroWinkler(strings.ToLower(a.Venue), strings.ToLower(b.Venue)) * 0.4
		}
		p[VenueMatch] = true
	}

	if a.HasYear && b.HasYear && (a.Domain == entity.Publication || b.Domain == entity.Publication) {
		switch diff := abs(a.Year - b.Year); diff {
		case 0:
			v[YearMatch] = 1
		case 1:
			v[YearMatch] = 0.5
		default:
			v[YearMatch] = 0
		}
		p[YearMatch] = true
	}

	wa, wb := a.WordTokens, b.WordTokens
	if wa == nil {
		wa = tokenize.Words(a.Raw)
	}
	if wb == nil {
		wb = tokenize.Words(b.Raw)
	}
	v[OverallJaccard] = textsim.Jaccard(wa, wb)
	p[OverallJaccard] = true

	return v, p
}

// Stored returns the part of the extraction a stored candidate needs:
// exactly what PairFeatures reads from it. Raw goes once WordTokens
// stands in for it, Tokens once TitleTokens does — PairFeatures reads
// either only as the fallback for the other. What is left no longer
// keeps the serialized text or the full token slice alive, which is
// what a long-lived per-record cache pays for; query-side extractions
// and internal/llm's own (which read Raw and Tokens) stay whole.
func (e Extracted) Stored() Extracted {
	if e.WordTokens != nil {
		e.Raw = ""
	}
	if len(e.TitleTokens) > 0 {
		e.Tokens = nil
	}
	return e
}

// PairFeaturesText extracts both sides and computes their features.
func PairFeaturesText(a, b string) (Vector, Presence) {
	return PairFeatures(ExtractText(a), ExtractText(b))
}

// effectiveVersions returns the version evidence of an extraction:
// explicit version tokens, plus the year token for product-domain
// strings (software year-versions).
func effectiveVersions(e Extracted) []string {
	vs := e.Versions
	if e.Domain == entity.Product && e.HasYear {
		vs = append(vs[:len(vs):len(vs)], itoa(e.Year))
	}
	return vs
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for x > 0 {
		i--
		b[i] = byte('0' + x%10)
		x /= 10
	}
	return string(b[i:])
}

// bestModelSim aligns the two model-token lists greedily by pairwise
// similarity and returns the weakest aligned correspondence. Offers
// often carry several model-like tokens (a line identifier such as
// "m18" plus the true model number); taking the minimum over the
// alignment ensures that one shared line token cannot mask a
// conflicting model number.
func bestModelSim(as, bs []string) float64 {
	n := min(len(as), len(bs))
	if n == 0 {
		return 0
	}
	type cand struct {
		i, j int
		s    float64
	}
	var cands []cand
	for i, x := range as {
		for j, y := range bs {
			cands = append(cands, cand{i, j, modelSim(x, y)})
		}
	}
	// Insertion sort by decreasing similarity keeps determinism.
	for k := 1; k < len(cands); k++ {
		c := cands[k]
		l := k - 1
		for l >= 0 && cands[l].s < c.s {
			cands[l+1] = cands[l]
			l--
		}
		cands[l+1] = c
	}
	usedA := make([]bool, len(as))
	usedB := make([]bool, len(bs))
	worst := 1.0
	aligned := 0
	for _, c := range cands {
		if usedA[c.i] || usedB[c.j] {
			continue
		}
		usedA[c.i], usedB[c.j] = true, true
		if c.s < worst {
			worst = c.s
		}
		aligned++
		if aligned == n {
			break
		}
	}
	return worst
}

// modelSim grades two normalized model tokens. Identical tokens score
// 1; tokens sharing the full digit run but differing in a suffix
// letter score 0.5; tokens sharing only the letter stem score 0.2;
// anything else scores a scaled Jaro-Winkler.
func modelSim(x, y string) float64 {
	if x == y {
		return 1
	}
	dx, dy := digitRun(x), digitRun(y)
	sx, sy := letterPrefix(x), letterPrefix(y)
	switch {
	case sx == sy && dx == dy && dx != "":
		return 0.5 // e.g. dsc120a vs dsc120b
	case sx == sy && sx != "":
		return 0.2 // same family stem, different number
	default:
		return textsim.JaroWinkler(x, y) * 0.3
	}
}

func digitRun(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func letterPrefix(s string) string {
	for i, r := range s {
		if r >= '0' && r <= '9' {
			return s[:i]
		}
	}
	return s
}

// variantSim compares quantity and color variants per unit class:
// "8gb" vs "16gb" conflict (same unit, different value), while "8gb"
// vs "19-inch" are incommensurable and yield no evidence. Colors form
// their own unit class. The result is the mean agreement over shared
// unit classes; ok is false when the sides share no unit class.
func variantSim(a, b Extracted) (sim float64, ok bool) {
	ua, ub := variantsByUnit(a.Variants), variantsByUnit(b.Variants)
	if len(a.Colors) > 0 {
		ua["color"] = a.Colors[0]
	}
	if len(b.Colors) > 0 {
		ub["color"] = b.Colors[0]
	}
	total, n := 0.0, 0
	for unit, va := range ua {
		vb, shared := ub[unit]
		if !shared {
			continue
		}
		n++
		if va == vb {
			total++
		}
	}
	if n == 0 {
		return 0, false
	}
	return total / float64(n), true
}

// variantsByUnit maps unit class -> value string ("gb" -> "8").
func variantsByUnit(vs []string) map[string]string {
	m := map[string]string{}
	for _, v := range vs {
		i := 0
		for i < len(v) && (v[i] >= '0' && v[i] <= '9' || v[i] == '.' || v[i] == '/' || v[i] == '-') {
			i++
		}
		if i == 0 || i >= len(v) {
			continue
		}
		m[v[i:]] = strings.Trim(v[:i], "-./")
	}
	return m
}

// versionSim compares version token lists: exact overlap scores 1,
// otherwise a numeric comparison of the closest pair.
func versionSim(as, bs []string) float64 {
	best := 0.0
	for _, x := range as {
		for _, y := range bs {
			var s float64
			switch {
			case x == y:
				s = 1
			case normVersion(x) == normVersion(y):
				s = 0.9
			default:
				s = 0.1
			}
			if s > best {
				best = s
			}
		}
	}
	return best
}

// normVersion canonicalizes version surface forms so "5" == "5.0" and
// "07" == "2007".
func normVersion(v string) string {
	v = strings.TrimPrefix(v, "v")
	v = strings.TrimSuffix(v, ".0")
	if len(v) == 2 {
		return "20" + v
	}
	return v
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
