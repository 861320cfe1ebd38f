package relation

import (
	"bytes"
	"strings"
	"testing"
)

func celebSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(Column{Name: "name", Kind: KindText}, Column{Name: "img", Kind: KindURL})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := celebSchema(t)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Ordinal("name") != 0 || s.Ordinal("IMG") != 1 {
		t.Error("ordinal lookup failed")
	}
	if s.Ordinal("missing") != -1 {
		t.Error("missing column should be -1")
	}
	if !s.Has("img") || s.Has("nope") {
		t.Error("Has broken")
	}
}

func TestSchemaDuplicateRejected(t *testing.T) {
	_, err := NewSchema(Column{Name: "a", Kind: KindText}, Column{Name: "A", Kind: KindInt})
	if err == nil {
		t.Fatal("duplicate (case-insensitive) column accepted")
	}
	_, err = NewSchema(Column{Name: "", Kind: KindText})
	if err == nil {
		t.Fatal("empty column name accepted")
	}
}

func TestSchemaQualifyAndSuffixLookup(t *testing.T) {
	s := celebSchema(t).Qualify("c")
	if s.Column(0).Name != "c.name" {
		t.Fatalf("qualified name = %q", s.Column(0).Name)
	}
	// Unqualified lookup matches the suffix.
	if s.Ordinal("name") != 0 {
		t.Error("suffix lookup failed")
	}
	// Qualified lookup of a qualified schema.
	if s.Ordinal("c.img") != 1 {
		t.Error("qualified lookup failed")
	}
	// Another alias's column is not a match.
	if got := s.Ordinal("x.img"); got != -1 {
		t.Errorf("mismatched alias lookup = %d, want -1", got)
	}
	// Re-qualifying strips the old alias.
	s2 := s.Qualify("d")
	if s2.Column(0).Name != "d.name" {
		t.Errorf("requalified = %q", s2.Column(0).Name)
	}
}

func TestSchemaAmbiguousSuffix(t *testing.T) {
	a := MustSchema(Column{Name: "c.img", Kind: KindURL}, Column{Name: "p.img", Kind: KindURL})
	if got := a.Ordinal("img"); got != -1 {
		t.Errorf("ambiguous suffix lookup = %d, want -1", got)
	}
}

func TestSchemaConcat(t *testing.T) {
	a := celebSchema(t).Qualify("c")
	b := celebSchema(t).Qualify("p")
	j, err := a.Concat(b)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 4 {
		t.Fatalf("concat len = %d", j.Len())
	}
	if _, err := a.Concat(a); err == nil {
		t.Error("self-concat should fail with duplicate columns")
	}
}

func TestTupleAccessorsAndWith(t *testing.T) {
	s := celebSchema(t)
	tp := MustTuple(s, Text("Brad"), URL("http://x/brad.jpg"))
	if v, ok := tp.Get("name"); !ok || v.Text() != "Brad" {
		t.Fatalf("Get(name) = %v, %v", v, ok)
	}
	if _, ok := tp.Get("zzz"); ok {
		t.Error("Get(zzz) should fail")
	}
	tp2, err := tp.With("name", Text("Angelina"))
	if err != nil {
		t.Fatal(err)
	}
	if tp2.MustGet("name").Text() != "Angelina" || tp.MustGet("name").Text() != "Brad" {
		t.Error("With should copy, not mutate")
	}
	if _, err := tp.With("zzz", Null()); err == nil {
		t.Error("With(zzz) should fail")
	}
}

func TestTupleArityValidation(t *testing.T) {
	s := celebSchema(t)
	if _, err := NewTuple(s, Text("only one")); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestTupleKeyStability(t *testing.T) {
	s := celebSchema(t)
	a := MustTuple(s, Text("Brad"), URL("u"))
	b := MustTuple(s, Text("Brad"), URL("u"))
	c := MustTuple(s, Text("Brad"), URL("v"))
	if a.Key() != b.Key() {
		t.Error("identical tuples should share a key")
	}
	if a.Key() == c.Key() {
		t.Error("different tuples should (almost surely) differ")
	}
}

func TestRelationSelectProjectSortLimit(t *testing.T) {
	s := MustSchema(Column{Name: "label", Kind: KindText}, Column{Name: "size", Kind: KindInt})
	r := New("squares", s)
	for i := int64(5); i >= 1; i-- {
		if err := r.AppendValues(Text(strings.Repeat("x", int(i))), Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d", r.Len())
	}
	big := r.Select(func(t Tuple) bool { return t.MustGet("size").Int() >= 3 })
	if big.Len() != 3 {
		t.Errorf("Select: %d rows, want 3", big.Len())
	}
	sorted, err := r.SortByColumn("size")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sorted.Len(); i++ {
		if sorted.Row(i).MustGet("size").Int() != int64(i+1) {
			t.Fatalf("sorted[%d] = %v", i, sorted.Row(i))
		}
	}
	proj, err := r.Project("size")
	if err != nil {
		t.Fatal(err)
	}
	if proj.Schema().Len() != 1 || proj.Len() != 5 {
		t.Error("projection wrong shape")
	}
	if lim := r.Limit(2); lim.Len() != 2 {
		t.Error("limit wrong")
	}
	if lim := r.Limit(100); lim.Len() != 5 {
		t.Error("limit beyond len wrong")
	}
}

func TestRelationCrossProduct(t *testing.T) {
	s := celebSchema(t)
	a := New("celeb", s.Qualify("c"))
	b := New("photos", s.Qualify("p"))
	for i := 0; i < 3; i++ {
		_ = a.AppendValues(Text("a"), URL("u"))
	}
	for i := 0; i < 4; i++ {
		_ = b.AppendValues(Text("b"), URL("v"))
	}
	x, err := a.CrossProduct(b)
	if err != nil {
		t.Fatal(err)
	}
	if x.Len() != 12 {
		t.Fatalf("cross product = %d rows, want 12", x.Len())
	}
	if x.Schema().Len() != 4 {
		t.Fatalf("cross schema = %d cols, want 4", x.Schema().Len())
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	s := celebSchema(t)
	c.Register(New("celeb", s))
	c.RegisterAs("photos", New("p", s))
	if _, err := c.Table("CELEB"); err != nil {
		t.Error("case-insensitive lookup failed")
	}
	if _, err := c.Table("photos"); err != nil {
		t.Error("RegisterAs lookup failed")
	}
	if _, err := c.Table("nope"); err == nil {
		t.Error("missing table should error")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "celeb" || names[1] != "photos" {
		t.Errorf("Names = %v", names)
	}
	c.Drop("celeb")
	if _, err := c.Table("celeb"); err == nil {
		t.Error("dropped table still present")
	}
}

func TestReadWriteDelimitedRoundTrip(t *testing.T) {
	in := "name,img\nBrad,http://x/b.jpg\nAngelina,http://x/a.jpg\n"
	r, err := ReadDelimited("celeb", strings.NewReader(in), LoadOptions{Header: true, Kinds: []Kind{KindText, KindURL}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Schema().Column(1).Kind != KindURL {
		t.Fatalf("loaded %v", r)
	}
	var buf bytes.Buffer
	if err := WriteDelimited(r, &buf, ','); err != nil {
		t.Fatal(err)
	}
	if buf.String() != in {
		t.Errorf("round trip:\n got %q\nwant %q", buf.String(), in)
	}
}

func TestReadDelimitedErrors(t *testing.T) {
	if _, err := ReadDelimited("x", strings.NewReader(""), LoadOptions{Header: true}); err == nil {
		t.Error("empty input should error")
	}
	bad := "a,b\n1\n"
	if _, err := ReadDelimited("x", strings.NewReader(bad), LoadOptions{Header: true}); err == nil {
		t.Error("ragged rows should error")
	}
	notInt := "n\nxyz\n"
	if _, err := ReadDelimited("x", strings.NewReader(notInt), LoadOptions{Header: true, Kinds: []Kind{KindInt}}); err == nil {
		t.Error("bad int should error")
	}
}

func TestReadDelimitedNoHeader(t *testing.T) {
	r, err := ReadDelimited("x", strings.NewReader("a,b\nc,d\n"), LoadOptions{Header: false})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Schema().Column(0).Name != "col0" {
		t.Errorf("no-header load: %v", r)
	}
}
