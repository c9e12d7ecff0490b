package datasets

import (
	"fmt"
	"strings"

	"llm4em/internal/detrand"
	"llm4em/internal/vocab"
)

// author is a generated publication author.
type author struct {
	first, last string
}

func (a author) full() string    { return a.first + " " + a.last }
func (a author) initial() string { return a.first[:1] + ". " + a.last }

// publication is one entry of the bibliographic universe. Families
// group sibling publications (extended versions, same-topic papers by
// the same group) that produce bibliographic corner cases.
type publication struct {
	authors []author
	title   string
	venue   vocab.Venue
	year    int
	family  int
}

// bibStyle controls how a bibliographic source renders records.
// DBLP is clean; Google Scholar records are noisy (initials, missing
// fields, venue variants); ACM is clean with minor variants.
type bibStyle struct {
	initialsProb    float64 // render author first names as initials
	dropAuthorProb  float64 // drop trailing authors ("et al." effect)
	venueVariantP   float64 // use an alternative venue surface form
	missingVenueP   float64
	missingYearP    float64
	wrongYearProb   float64 // off-by-one year (common Scholar error)
	titleAbbrevProb float64
	titleTruncProb  float64 // drop trailing title words
	typoProb        float64
	lowercaseProb   float64
}

// buildBibUniverse creates cfg.families publication families. Each
// family contains a base paper plus 1-2 siblings: an extended journal
// version (same authors and topic, later year, journal venue) and/or
// a same-topic paper with an overlapping author list.
func buildBibUniverse(cfg config[bibStyle]) []publication {
	rng := detrand.New("universe", cfg.key)
	confVenues, journalVenues := splitVenues()
	var all []publication
	for f := 0; f < cfg.families; f++ {
		nAuthors := 1 + rng.Intn(4)
		authors := make([]author, nAuthors)
		for i := range authors {
			authors[i] = author{
				first: vocab.FirstNames[rng.Intn(len(vocab.FirstNames))],
				last:  vocab.LastNames[rng.Intn(len(vocab.LastNames))],
			}
		}
		topic := vocab.TopicPhrases[rng.Intn(len(vocab.TopicPhrases))]
		title := strings.Join(topic, " ")
		if rng.Bool(0.4) {
			title = vocab.TitleModifiers[rng.Intn(len(vocab.TitleModifiers))] + " " + title
		}
		venue := confVenues[rng.Intn(len(confVenues))]
		year := 1995 + rng.Intn(15)

		base := publication{authors: authors, title: title, venue: venue, year: year, family: f}
		all = append(all, base)

		if rng.Bool(0.55) {
			// Extended journal version: same authors, near-identical
			// title, later year, journal venue — a non-match despite
			// extreme surface similarity.
			ext := base
			ext.venue = journalVenues[rng.Intn(len(journalVenues))]
			ext.year = year + 1 + rng.Intn(2)
			if rng.Bool(0.5) {
				ext.title = base.title + ": an extended study"
			}
			all = append(all, ext)
		}
		if rng.Bool(0.45) {
			// Same-group follow-up on the same topic. The follow-up is
			// forced to differ in contribution word, year and venue —
			// two distinct same-topic papers at the same venue in the
			// same year would be indistinguishable even to an expert.
			sib := base
			mod := vocab.TitleModifiers[rng.Intn(len(vocab.TitleModifiers))]
			for strings.HasPrefix(base.title, mod) {
				mod = vocab.TitleModifiers[rng.Intn(len(vocab.TitleModifiers))]
			}
			sib.title = mod + " " + strings.Join(topic, " ")
			sib.year = year + 1 + rng.Intn(2)
			if len(sib.authors) > 1 && rng.Bool(0.5) {
				sib.authors = sib.authors[:len(sib.authors)-1]
			}
			sv := confVenues[rng.Intn(len(confVenues))]
			for sv.Full == base.venue.Full {
				sv = confVenues[rng.Intn(len(confVenues))]
			}
			sib.venue = sv
			all = append(all, sib)
		}
	}
	return all
}

func splitVenues() (conf, journal []vocab.Venue) {
	for _, v := range vocab.Venues {
		if v.Journal {
			journal = append(journal, v)
		} else {
			conf = append(conf, v)
		}
	}
	return conf, journal
}

// bibSampler draws a bibliographic benchmark's pairs.
func bibSampler(cfg config[bibStyle]) sampler[publication, bibStyle] {
	return sampler[publication, bibStyle]{
		config:   cfg,
		universe: buildBibUniverse(cfg),
		family:   func(p publication) int { return p.family },
		render:   renderBib,
		harden:   hardenBib,
	}
}

// renderBib renders a publication's attribute values under a style.
func renderBib(p publication, st bibStyle, rng *detrand.RNG) map[string]string {
	// Authors.
	var names []string
	for i, a := range p.authors {
		if i > 0 && rng.Bool(st.dropAuthorProb) {
			break
		}
		if rng.Bool(st.initialsProb) {
			names = append(names, a.initial())
		} else {
			names = append(names, a.full())
		}
	}
	authors := strings.Join(names, ", ")

	// Title.
	title := p.title
	if rng.Bool(st.titleTruncProb) {
		words := strings.Fields(title)
		if len(words) > 3 {
			title = strings.Join(words[:len(words)-1-rng.Intn(2)], " ")
		}
	}
	title = maybeAbbreviate(title, st.titleAbbrevProb, rng)
	title = maybeTypo(title, st.typoProb, rng)
	if rng.Bool(st.lowercaseProb) {
		title = strings.ToLower(title)
	}

	// Venue.
	venue := p.venue.Full
	if rng.Bool(st.venueVariantP) {
		venue = p.venue.Variants[rng.Intn(len(p.venue.Variants))]
	}
	if rng.Bool(st.missingVenueP) {
		venue = ""
	}

	// Year.
	year := fmt.Sprintf("%d", p.year)
	if rng.Bool(st.wrongYearProb) {
		year = fmt.Sprintf("%d", p.year+1-2*rng.Intn(2))
	}
	if rng.Bool(st.missingYearP) {
		year = ""
	}

	return map[string]string{"authors": authors, "title": title, "venue": venue, "year": year}
}

// hardenBib intensifies a style for corner-case matches.
func hardenBib(st bibStyle) bibStyle {
	st.initialsProb = min(st.initialsProb+0.5, 0.95)
	st.dropAuthorProb = min(st.dropAuthorProb+0.3, 0.6)
	st.venueVariantP = min(st.venueVariantP+0.4, 0.95)
	st.titleTruncProb = min(st.titleTruncProb+0.3, 0.6)
	st.titleAbbrevProb = min(st.titleAbbrevProb+0.2, 0.5)
	st.missingYearP = min(st.missingYearP+0.25, 0.5)
	return st
}
