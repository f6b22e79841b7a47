package sqldb

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/sqltypes"
)

// Column is a column in a table schema.
type Column struct {
	Name    string
	Type    sqltypes.TypeInfo
	NotNull bool
	Default *sqltypes.Value
}

// ForeignKey is a referential-integrity constraint from this table's Cols
// to RefTable's RefCols. The engine enforces RESTRICT semantics on both
// sides, matching the paper's reliance on catalogue FK metadata for
// hyperlink browsing.
type ForeignKey struct {
	Cols     []string
	RefTable string
	RefCols  []string
}

// TableSchema is the full declared shape of a table.
type TableSchema struct {
	Name        string
	Cols        []Column
	PrimaryKey  []string
	Uniques     [][]string
	ForeignKeys []ForeignKey

	colIdx map[string]int // upper-cased name → position
	dlCols []int          // positions of the DATALINK columns
}

// ColIndex returns the position of the named column (case-insensitive),
// or -1 when absent.
func (t *TableSchema) ColIndex(name string) int {
	if i, ok := t.colIdx[strings.ToUpper(name)]; ok {
		return i
	}
	return -1
}

// Col returns the column definition by (case-insensitive) name.
func (t *TableSchema) Col(name string) (Column, bool) {
	i := t.ColIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return t.Cols[i], true
}

// ColNames returns the column names in declaration order.
func (t *TableSchema) ColNames() []string {
	names := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		names[i] = c.Name
	}
	return names
}

// DatalinkColumns returns the indexes of DATALINK columns, used by the
// executor to route link-control work. The slice is the schema's own:
// callers must not modify it.
func (t *TableSchema) DatalinkColumns() []int { return t.dlCols }

func (t *TableSchema) rebuildIndex() {
	t.colIdx = make(map[string]int, len(t.Cols))
	t.dlCols = nil
	for i, c := range t.Cols {
		t.colIdx[strings.ToUpper(c.Name)] = i
		if c.Type.Kind == sqltypes.KindDatalink {
			t.dlCols = append(t.dlCols, i)
		}
	}
}

// Catalog holds every table schema, keyed by upper-cased table name.
// It is the metadata source for XUIS generation: table names, column
// names/types, primary keys and foreign keys, exactly the inventory the
// paper's default-XUIS tool extracts via JDBC.
//
// DDL (under the engine's barrier) never changes a published map: it
// copies it, edits the copy and publishes that, so readers load one
// immutable map and need no lock, whatever DDL runs beside them.
type Catalog struct {
	tables atomic.Pointer[map[string]*TableSchema]
}

// NewCatalog returns an empty catalogue.
func NewCatalog() *Catalog {
	c := &Catalog{}
	c.tables.Store(&map[string]*TableSchema{})
	return c
}

func (c *Catalog) load() map[string]*TableSchema { return *c.tables.Load() }

// Table looks up a schema by case-insensitive name.
func (c *Catalog) Table(name string) (*TableSchema, bool) {
	t, ok := c.load()[strings.ToUpper(name)]
	return t, ok
}

// TableNames returns all table names, sorted.
func (c *Catalog) TableNames() []string { return sortedNames(c.load()) }

func sortedNames(tables map[string]*TableSchema) []string {
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// ReferencedBy returns, for the given table's primary-key columns, every
// (table, column) pair that declares a foreign key to it. This powers the
// paper's "primary key browsing": SIMULATION_KEY links to the three
// tables in which it appears as a foreign key.
func (c *Catalog) ReferencedBy(table string) []FKRef {
	tables := c.load()
	target, ok := tables[strings.ToUpper(table)]
	if !ok {
		return nil
	}
	var out []FKRef
	for _, name := range sortedNames(tables) {
		t := tables[name]
		for _, fk := range t.ForeignKeys {
			if strings.EqualFold(fk.RefTable, target.Name) {
				for i, col := range fk.Cols {
					out = append(out, FKRef{Table: t.Name, Column: col, RefColumn: fk.RefCols[i]})
				}
			}
		}
	}
	return out
}

// FKRef identifies one referencing column of a foreign key.
type FKRef struct {
	Table     string // referencing table
	Column    string // referencing column
	RefColumn string // referenced (PK) column
}

// addTable validates a CREATE TABLE statement against the catalogue and
// installs the schema.
func (c *Catalog) addTable(stmt *CreateTableStmt) (*TableSchema, error) {
	key := strings.ToUpper(stmt.Table)
	if _, exists := c.Table(key); exists {
		return nil, fmt.Errorf("sqldb: table %s already exists", stmt.Table)
	}
	if len(stmt.Cols) == 0 {
		return nil, fmt.Errorf("sqldb: table %s has no columns", stmt.Table)
	}
	t := &TableSchema{
		Name:       strings.ToUpper(stmt.Table),
		PrimaryKey: upperAll(stmt.PrimaryKey),
	}
	seen := map[string]bool{}
	for _, cd := range stmt.Cols {
		name := strings.ToUpper(cd.Name)
		if seen[name] {
			return nil, fmt.Errorf("sqldb: duplicate column %s in table %s", cd.Name, stmt.Table)
		}
		seen[name] = true
		col := Column{Name: name, Type: cd.Type, NotNull: cd.NotNull}
		if cd.Default != nil {
			dv, err := sqltypes.CoerceFor(cd.Type, *cd.Default)
			if err != nil {
				return nil, fmt.Errorf("sqldb: default for %s.%s: %w", stmt.Table, cd.Name, err)
			}
			col.Default = &dv
		}
		if cd.Type.Kind == sqltypes.KindDatalink && cd.Type.Datalink != nil {
			if err := cd.Type.Datalink.Validate(); err != nil {
				return nil, err
			}
		}
		t.Cols = append(t.Cols, col)
	}
	t.rebuildIndex()
	for _, pk := range t.PrimaryKey {
		i := t.ColIndex(pk)
		if i < 0 {
			return nil, fmt.Errorf("sqldb: PRIMARY KEY column %s not in table %s", pk, stmt.Table)
		}
		t.Cols[i].NotNull = true
	}
	for _, u := range stmt.Uniques {
		uu := upperAll(u)
		for _, col := range uu {
			if t.ColIndex(col) < 0 {
				return nil, fmt.Errorf("sqldb: UNIQUE column %s not in table %s", col, stmt.Table)
			}
		}
		t.Uniques = append(t.Uniques, uu)
	}
	for _, fk := range stmt.ForeignKeys {
		def := ForeignKey{Cols: upperAll(fk.Cols), RefTable: strings.ToUpper(fk.RefTable), RefCols: upperAll(fk.RefCols)}
		if len(def.Cols) != len(def.RefCols) {
			return nil, fmt.Errorf("sqldb: foreign key column count mismatch on table %s", stmt.Table)
		}
		for _, col := range def.Cols {
			if t.ColIndex(col) < 0 {
				return nil, fmt.Errorf("sqldb: FOREIGN KEY column %s not in table %s", col, stmt.Table)
			}
		}
		ref, ok := c.Table(def.RefTable)
		if !ok && def.RefTable != t.Name {
			return nil, fmt.Errorf("sqldb: foreign key references unknown table %s", fk.RefTable)
		}
		if ok {
			for _, rc := range def.RefCols {
				if ref.ColIndex(rc) < 0 {
					return nil, fmt.Errorf("sqldb: foreign key references unknown column %s.%s", fk.RefTable, rc)
				}
			}
		}
		t.ForeignKeys = append(t.ForeignKeys, def)
	}
	m := maps.Clone(c.load()) // callers hold the barrier: no concurrent edit
	m[key] = t
	c.tables.Store(&m)
	return t, nil
}

func (c *Catalog) dropTable(name string) error {
	key := strings.ToUpper(name)
	tables := c.load()
	if _, ok := tables[key]; !ok {
		return fmt.Errorf("sqldb: table %s does not exist", name)
	}
	// RESTRICT: refuse to drop a table still referenced by another.
	for _, other := range tables {
		if other.Name == key {
			continue
		}
		for _, fk := range other.ForeignKeys {
			if fk.RefTable == key {
				return fmt.Errorf("sqldb: cannot drop %s: referenced by %s", name, other.Name)
			}
		}
	}
	m := maps.Clone(tables)
	delete(m, key)
	c.tables.Store(&m)
	return nil
}

func upperAll(in []string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = strings.ToUpper(s)
	}
	return out
}
