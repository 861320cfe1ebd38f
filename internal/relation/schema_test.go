package relation

import (
	"strings"
	"testing"
)

// scanOrdinal is the reference lookup: an exact match, then the stored
// suffix for a qualified name, then a scan of every stored name for an
// unqualified one ("." + name suffix, -1 when two match).
func scanOrdinal(s *Schema, name string) int {
	key := strings.ToLower(name)
	if i, ok := s.index[key]; ok {
		return i
	}
	if dot := strings.LastIndexByte(key, '.'); dot >= 0 {
		if i, ok := s.index[key[dot+1:]]; ok {
			return i
		}
		return -1
	}
	match := -1
	for stored, i := range s.index {
		if strings.HasSuffix(stored, "."+key) {
			if match >= 0 {
				return -1
			}
			match = i
		}
	}
	return match
}

// Property: Ordinal agrees with the reference scan on every schema
// built from a subset of names that mixes unqualified, qualified,
// multi-dot and suffix-sharing columns, for lookups that are exact,
// mixed-case, qualified by the right or a wrong alias, multi-dot,
// ambiguous or absent.
func TestSchemaOrdinalMatchesScan(t *testing.T) {
	stored := []string{"img", "c.img", "s.img", "Name", "a.b.c", "b.c", "x.Score", "T.id", "c", "a.b", "q."}
	lookups := []string{
		"img", "IMG", "c.img", "C.Img", "x.img", "s.img", "y.z.img",
		"name", "NAME", "c.name", "Name",
		"a.b.c", "A.B.C", "b.c", "z.b.c", "c", "x.c", "a.b", "b", "a",
		"score", "Score", "x.score", "y.score", "x.y.score",
		"id", "t.id", "T.ID", "u.id",
		"", ".", "q", "q.", "missing", "m.missing",
	}
	for mask := 0; mask < 1<<len(stored); mask++ {
		var cols []Column
		for i, n := range stored {
			if mask&(1<<i) != 0 {
				cols = append(cols, Column{Name: n, Kind: KindText})
			}
		}
		// Both column orders, so the winning ordinal of a unique suffix
		// and the ambiguity of a shared one do not depend on position.
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				for a, b := 0, len(cols)-1; a < b; a, b = a+1, b-1 {
					cols[a], cols[b] = cols[b], cols[a]
				}
			}
			s := MustSchema(cols...)
			for _, name := range lookups {
				if got, want := s.Ordinal(name), scanOrdinal(s, name); got != want {
					t.Fatalf("schema %s: Ordinal(%q) = %d, scan = %d", s, name, got, want)
				}
			}
		}
	}
}
