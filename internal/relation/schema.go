package relation

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	// Name is the column name as referenced in queries (case-insensitive).
	Name string
	// Kind is the column's value type.
	Kind Kind
}

// Schema is an ordered list of columns. Schemas are immutable once built;
// operators derive new schemas rather than mutating existing ones.
type Schema struct {
	cols  []Column
	index map[string]int
	// suffix maps the part after the last dot of each qualified name to
	// its ordinal, or to -1 when two qualified names share it. It is nil
	// when no name is qualified. It stays apart from index so that a
	// qualified lookup ("x.img") never matches another alias ("c.img").
	suffix map[string]int
}

// NewSchema builds a schema from columns. Column names must be unique
// case-insensitively.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{
		cols:  make([]Column, len(cols)),
		index: make(map[string]int, len(cols)),
	}
	copy(s.cols, cols)
	for i, c := range s.cols {
		key := strings.ToLower(c.Name)
		if key == "" {
			return nil, fmt.Errorf("relation: empty column name at position %d", i)
		}
		if _, dup := s.index[key]; dup {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		s.index[key] = i
		if dot := strings.LastIndexByte(key, '.'); dot >= 0 {
			if s.suffix == nil {
				s.suffix = make(map[string]int, len(cols))
			}
			suf := key[dot+1:]
			if _, seen := s.suffix[suf]; seen {
				s.suffix[suf] = -1
			} else {
				s.suffix[suf] = i
			}
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Column returns the i'th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column {
	out := make([]Column, len(s.cols))
	copy(out, s.cols)
	return out
}

// Ordinal returns the position of the named column (case-insensitive),
// or -1 if absent. Qualified names ("c.img") match their suffix if the
// schema stores qualified names, and vice versa.
func (s *Schema) Ordinal(name string) int {
	key := strings.ToLower(name)
	if i, ok := s.index[key]; ok {
		return i
	}
	// "alias.col" lookup against unqualified schema, and the reverse.
	if dot := strings.LastIndexByte(key, '.'); dot >= 0 {
		if i, ok := s.index[key[dot+1:]]; ok {
			return i
		}
	} else if i, ok := s.suffix[key]; ok {
		return i // -1 when ambiguous
	}
	return -1
}

// Has reports whether the named column exists.
func (s *Schema) Has(name string) bool { return s.Ordinal(name) >= 0 }

// Project returns a schema containing only the named columns, in order.
func (s *Schema) Project(names ...string) (*Schema, []int, error) {
	cols := make([]Column, 0, len(names))
	idx := make([]int, 0, len(names))
	for _, n := range names {
		i := s.Ordinal(n)
		if i < 0 {
			return nil, nil, fmt.Errorf("relation: no column %q in schema %s", n, s)
		}
		cols = append(cols, s.cols[i])
		idx = append(idx, i)
	}
	out, err := NewSchema(cols...)
	if err != nil {
		return nil, nil, err
	}
	return out, idx, nil
}

// Qualify returns a copy of the schema with every column renamed to
// "alias.name". Used when a table is scanned under an alias so joined
// schemas stay unambiguous.
func (s *Schema) Qualify(alias string) *Schema {
	cols := make([]Column, len(s.cols))
	for i, c := range s.cols {
		name := c.Name
		if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
			name = name[dot+1:]
		}
		cols[i] = Column{Name: alias + "." + name, Kind: c.Kind}
	}
	out, err := NewSchema(cols...)
	if err != nil {
		// Aliasing cannot introduce duplicates if the source was valid.
		panic(err)
	}
	return out
}

// Concat returns the schema of a join result: s's columns followed by o's.
func (s *Schema) Concat(o *Schema) (*Schema, error) {
	cols := make([]Column, 0, len(s.cols)+len(o.cols))
	cols = append(cols, s.cols...)
	cols = append(cols, o.cols...)
	return NewSchema(cols...)
}

// String renders the schema as "(name type, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Kind)
	}
	b.WriteByte(')')
	return b.String()
}
