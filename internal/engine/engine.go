// Package engine is a catalog of relations with columnar storage for float64
// attributes, each loaded once from a dataset and read by column. It backs
// only exec.NewExecutorWithGrid, the wrapper the benchmark harness and tests
// build executors through: llmq and the experiment harness hand their flat
// arrays to exec.NewExecutor and never hold a table.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"llmq/internal/dataset"
)

// Errors returned by the engine.
var (
	ErrTableExists    = errors.New("engine: table already exists")
	ErrTableNotFound  = errors.New("engine: table not found")
	ErrColumnNotFound = errors.New("engine: column not found")
)

// Schema describes the columns of a relation. All attributes are float64;
// the analytics workload in the paper is purely numeric.
type Schema struct {
	// Columns holds the ordered column names.
	Columns []string
}

// NewSchema builds a schema from column names. Names must be unique and
// non-empty.
func NewSchema(columns ...string) (Schema, error) {
	if len(columns) == 0 {
		return Schema{}, errors.New("engine: schema needs at least one column")
	}
	seen := make(map[string]bool, len(columns))
	for _, c := range columns {
		if c == "" {
			return Schema{}, errors.New("engine: empty column name")
		}
		if seen[c] {
			return Schema{}, fmt.Errorf("engine: duplicate column %q", c)
		}
		seen[c] = true
	}
	return Schema{Columns: append([]string(nil), columns...)}, nil
}

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Columns) }

// ColumnIndex returns the position of the named column, or an error.
func (s Schema) ColumnIndex(name string) (int, error) {
	for i, c := range s.Columns {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrColumnNotFound, name)
}

// Table is a columnar relation: one []float64 per column, row-aligned.
type Table struct {
	name   string
	schema Schema
	cols   [][]float64
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table {
	cols := make([][]float64, schema.Arity())
	return &Table{name: name, schema: schema, cols: cols}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int {
	if len(t.cols) == 0 {
		return 0
	}
	return len(t.cols[0])
}

// ColumnAt returns the backing slice of the i-th column, which callers must
// not write.
func (t *Table) ColumnAt(i int) []float64 {
	if i < 0 || i >= len(t.cols) {
		panic(fmt.Sprintf("engine: column index %d out of range [0,%d)", i, len(t.cols)))
	}
	return t.cols[i]
}

// Row materializes the i-th row as a new slice.
func (t *Table) Row(i int) []float64 {
	if i < 0 || i >= t.Len() {
		panic(fmt.Sprintf("engine: row %d out of range [0,%d)", i, t.Len()))
	}
	out := make([]float64, t.schema.Arity())
	for j := range t.cols {
		out[j] = t.cols[j][i]
	}
	return out
}

// Scan calls fn for every row id in order. If fn returns false the scan
// stops early.
func (t *Table) Scan(fn func(rowID int) bool) {
	n := t.Len()
	for i := 0; i < n; i++ {
		if !fn(i) {
			return
		}
	}
}

// Catalog is a thread-safe registry of tables — the "database".
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Create registers a new empty table.
func (c *Catalog) Create(name string, schema Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	t := NewTable(name, schema)
	c.tables[name] = t
	return t, nil
}

// Get returns the named table.
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrTableNotFound, name)
	}
	return t, nil
}

// List returns the table names in sorted order.
func (c *Catalog) List() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LoadDataset creates a table named after the dataset (or name if non-empty)
// whose columns are the dataset's input attributes followed by the output
// attribute, and bulk-loads every observation.
func (c *Catalog) LoadDataset(name string, ds *dataset.Dataset) (*Table, error) {
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("engine: invalid dataset: %w", err)
	}
	if name == "" {
		name = ds.Name
	}
	cols := append(append([]string(nil), ds.InputNames...), ds.OutputName)
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	t, err := c.Create(name, schema)
	if err != nil {
		return nil, err
	}
	// Validate has checked every row's arity, so the columns can be sized
	// once and filled one at a time.
	for j := range ds.InputNames {
		col := make([]float64, len(ds.Xs))
		for i, x := range ds.Xs {
			col[i] = x[j]
		}
		t.cols[j] = col
	}
	t.cols[len(cols)-1] = append([]float64(nil), ds.Us...)
	return t, nil
}
