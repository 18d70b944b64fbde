package engine

import (
	"errors"
	"fmt"
	"testing"

	"llmq/internal/dataset"
)

func mustSchema(t *testing.T, cols ...string) Schema {
	t.Helper()
	s, err := NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchema(t *testing.T) {
	s := mustSchema(t, "x1", "x2", "u")
	if s.Arity() != 3 {
		t.Errorf("arity = %d", s.Arity())
	}
	if i, err := s.ColumnIndex("x2"); err != nil || i != 1 {
		t.Errorf("ColumnIndex = %d, %v", i, err)
	}
	if _, err := s.ColumnIndex("nope"); !errors.Is(err, ErrColumnNotFound) {
		t.Errorf("missing column err = %v", err)
	}
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema("a", "a"); err == nil {
		t.Error("duplicate columns accepted")
	}
	if _, err := NewSchema("a", ""); err == nil {
		t.Error("empty column name accepted")
	}
}

// load loads a fixture relation into c: the rows xs with outputs us, under
// the given input names and the output name "u".
func load(t *testing.T, c *Catalog, name string, xs [][]float64, us []float64, inputs ...string) *Table {
	t.Helper()
	ds, err := dataset.FromPoints(name, xs, us)
	if err != nil {
		t.Fatal(err)
	}
	ds.InputNames, ds.OutputName = inputs, "u"
	tab, err := c.LoadDataset("", ds)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTableInsertAndAccess(t *testing.T) {
	c := NewCatalog()
	fresh, err := c.Create("empty", mustSchema(t, "x", "y", "u"))
	if err != nil || fresh.Len() != 0 {
		t.Fatalf("fresh table: len %d, %v", fresh.Len(), err)
	}
	tab := load(t, c, "points", [][]float64{{1, 2}, {4, 5}}, []float64{3, 6}, "x", "y")
	if tab.Name() != "points" || tab.Len() != 2 {
		t.Fatalf("loaded table: %q len %d", tab.Name(), tab.Len())
	}
	if got := tab.ColumnAt(1); got[1] != 5 {
		t.Errorf("ColumnAt(1) = %v", got)
	}
	if _, err := tab.Schema().ColumnIndex("zz"); !errors.Is(err, ErrColumnNotFound) {
		t.Errorf("missing column err = %v", err)
	}
	if got := tab.ColumnAt(2); got[0] != 3 {
		t.Errorf("ColumnAt = %v", got)
	}
	row := tab.Row(1)
	if row[0] != 4 || row[2] != 6 {
		t.Errorf("Row = %v", row)
	}
	if tab.Schema().Arity() != 3 {
		t.Error("Schema accessor broken")
	}
}

func TestTablePanics(t *testing.T) {
	tab := load(t, NewCatalog(), "p", [][]float64{{1}}, []float64{2}, "a")
	cases := []func(){
		func() { tab.Row(5) },
		func() { tab.Row(-1) },
		func() { tab.ColumnAt(3) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestScanAndFilterAndProject(t *testing.T) {
	xs, us := make([][]float64, 10), make([]float64, 10)
	for i := range xs {
		xs[i], us[i] = []float64{float64(i)}, float64(i*i)
	}
	tab := load(t, NewCatalog(), "p", xs, us, "x")
	var visited int
	tab.Scan(func(rowID int) bool {
		visited++
		return rowID < 4 // stop early after seeing row 4
	})
	if visited != 5 {
		t.Errorf("early-stop scan visited %d rows", visited)
	}
	visited = 0
	tab.Scan(func(int) bool { visited++; return true })
	if visited != 10 {
		t.Errorf("full scan visited %d rows", visited)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	s := mustSchema(t, "x", "u")
	tab, err := c.Create("pts", s)
	if err != nil || tab == nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := c.Create("pts", s); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate create err = %v", err)
	}
	got, err := c.Get("pts")
	if err != nil || got != tab {
		t.Errorf("Get = %v, %v", got, err)
	}
	if _, err := c.Get("zz"); !errors.Is(err, ErrTableNotFound) {
		t.Errorf("missing get err = %v", err)
	}
	if _, err := c.Create("more", s); err != nil {
		t.Fatal(err)
	}
	names := c.List()
	if len(names) != 2 || names[0] != "more" || names[1] != "pts" {
		t.Errorf("List = %v", names)
	}
}

func TestLoadDataset(t *testing.T) {
	ds, err := dataset.FromPoints("seis", [][]float64{{1, 2}, {3, 4}}, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	ds.InputNames = []string{"lon", "lat"}
	ds.OutputName = "pwave"
	c := NewCatalog()
	tab, err := c.LoadDataset("", ds)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name() != "seis" || tab.Len() != 2 {
		t.Errorf("loaded table %q with %d rows", tab.Name(), tab.Len())
	}
	if got := tab.Schema().Columns; len(got) != 3 || got[0] != "lon" || got[1] != "lat" || got[2] != "pwave" {
		t.Errorf("columns = %v", got)
	}
	if u := tab.ColumnAt(2); u[1] != 20 {
		t.Errorf("output column = %v", u)
	}
	if lat := tab.ColumnAt(1); lat[0] != 2 {
		t.Errorf("lat = %v", lat)
	}
	// Named load and duplicate detection.
	if _, err := c.LoadDataset("other", ds); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadDataset("other", ds); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate load err = %v", err)
	}
	// Invalid dataset is rejected.
	bad := *ds
	bad.Us = bad.Us[:1]
	if _, err := c.LoadDataset("bad", &bad); err == nil {
		t.Error("invalid dataset accepted")
	}
}

func TestConcurrentCatalogAccess(t *testing.T) {
	c := NewCatalog()
	s := mustSchema(t, "a")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if _, err := c.Create(fmt.Sprintf("t%d", i), s); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 100; i++ {
		_, _ = c.Get(fmt.Sprintf("t%d", i))
		_ = c.List()
	}
	<-done
	if n := len(c.List()); n != 100 {
		t.Errorf("List has %d tables, want 100", n)
	}
}
