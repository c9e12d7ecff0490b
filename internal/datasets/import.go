package datasets

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"llm4em/internal/entity"
)

// ReadCSVPairs parses labelled pairs from CSV in the layout WriteCSV
// produces: a header of pair_id, label, left_<attr>..., right_<attr>...
// followed by one row per pair. A label is 1, 0, true or false in any
// case; any other label is an error naming its line. It returns the
// attribute schema implied by the header and the pairs. Domain is
// guessed from the attribute names (authors/venue/year mean
// publications).
func ReadCSVPairs(r io.Reader) (entity.Schema, []entity.Pair, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return entity.Schema{}, nil, fmt.Errorf("datasets: read csv header: %w", err)
	}
	if len(header) < 4 || header[0] != "pair_id" || header[1] != "label" {
		return entity.Schema{}, nil, fmt.Errorf("datasets: csv header must start with pair_id,label, got %v", header)
	}
	var attrs []string
	for _, col := range header[2:] {
		name, ok := strings.CutPrefix(col, "left_")
		if !ok {
			break
		}
		attrs = append(attrs, name)
	}
	if len(attrs) == 0 || len(header) != 2+2*len(attrs) {
		return entity.Schema{}, nil, fmt.Errorf("datasets: csv header has unbalanced left_/right_ columns: %v", header)
	}
	for i, name := range attrs {
		if header[2+len(attrs)+i] != "right_"+name {
			return entity.Schema{}, nil, fmt.Errorf("datasets: right_ column %d is %q, want %q", i, header[2+len(attrs)+i], "right_"+name)
		}
	}

	schema := entity.Schema{Domain: guessDomain(attrs), Attributes: attrs}
	var pairs []entity.Pair
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return entity.Schema{}, nil, fmt.Errorf("datasets: read csv line %d: %w", line, err)
		}
		match, ok := parseLabel(row[1])
		if !ok {
			at, _ := cr.FieldPos(1)
			return entity.Schema{}, nil, fmt.Errorf("datasets: csv line %d: label %q is not 1, 0, true or false", at, row[1])
		}
		pairs = append(pairs, entity.Pair{
			ID:    row[0],
			A:     schema.NewRecord(row[0]+"-a", row[2:2+len(attrs)]...),
			B:     schema.NewRecord(row[0]+"-b", row[2+len(attrs):]...),
			Match: match,
		})
	}
	return schema, pairs, nil
}

// parseLabel reads a CSV label: 1 or true is a match, 0 or false a
// non-match, in any case; anything else is rejected.
func parseLabel(s string) (match, ok bool) {
	switch strings.ToLower(s) {
	case "1", "true":
		return true, true
	case "0", "false":
		return false, true
	}
	return false, false
}

// guessDomain infers the topical domain from attribute names.
func guessDomain(attrs []string) entity.Domain {
	for _, a := range attrs {
		switch a {
		case "authors", "venue", "year":
			return entity.Publication
		}
	}
	return entity.Product
}
