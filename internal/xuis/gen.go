package xuis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/sqltypes"
)

// Generator builds the default XUIS for a database, mirroring the
// paper's tool: "Written in Java, uses JDBC to extract data and schema
// information from the database being used to archive simulation
// results." Here it walks the engine catalogue directly and samples
// column values with ordinary SELECTs.
type Generator struct {
	// MaxSamples bounds the sample values captured per column.
	MaxSamples int
	// SampleLOBs controls whether BLOB/CLOB/DATALINK columns get sample
	// values (off by default: the UI shows sizes, not contents).
	SampleLOBs bool
}

// Generate produces the default XUIS: every table, every column, types,
// sample data values, and the primary-key / foreign-key relationship
// markup that powers browsing.
func (g Generator) Generate(db *sqldb.DB, databaseName string) (*Spec, error) {
	if g.MaxSamples <= 0 {
		g.MaxSamples = 4
	}
	cat := db.Catalog()
	spec := &Spec{Database: strings.ToUpper(databaseName), Version: "1.0"}
	for _, name := range cat.TableNames() {
		schema, _ := cat.Table(name)
		t := &Table{
			Name:       schema.Name,
			PrimaryKey: pkAttr(schema),
			Alias:      titleCase(schema.Name),
		}
		refs := cat.ReferencedBy(schema.Name)
		for _, col := range schema.Cols {
			c := &Column{
				Name:  col.Name,
				ColID: schema.Name + "." + col.Name,
				Alias: titleCase(col.Name),
				Type:  typeSpecFor(col.Type),
			}
			// <pk><refby …/></pk> on primary-key columns.
			if isPKCol(schema, col.Name) {
				var refby []RefBy
				for _, r := range refs {
					if strings.EqualFold(r.RefColumn, col.Name) {
						refby = append(refby, RefBy{TableColumn: r.Table + "." + r.Column})
					}
				}
				sort.Slice(refby, func(i, j int) bool { return refby[i].TableColumn < refby[j].TableColumn })
				c.PK = &PKSpec{RefBy: refby}
			}
			// <fk tablecolumn=…/> on foreign-key columns.
			for _, fk := range schema.ForeignKeys {
				for i, fkCol := range fk.Cols {
					if strings.EqualFold(fkCol, col.Name) {
						c.FK = &FKSpec{TableColumn: fk.RefTable + "." + fk.RefCols[i]}
					}
				}
			}
			if samples, err := g.sampleColumn(db, schema, col); err != nil {
				return nil, err
			} else if len(samples) > 0 {
				c.Samples = &Samples{Values: samples}
			}
			t.Columns = append(t.Columns, c)
		}
		spec.Tables = append(spec.Tables, t)
	}
	return spec, nil
}

func (g Generator) sampleColumn(db *sqldb.DB, schema *sqldb.TableSchema, col sqldb.Column) ([]string, error) {
	switch col.Type.Kind {
	case sqltypes.KindBytes, sqltypes.KindClob, sqltypes.KindDatalink:
		if !g.SampleLOBs {
			return nil, nil
		}
	}
	sql := fmt.Sprintf("SELECT DISTINCT %s FROM %s WHERE %s IS NOT NULL ORDER BY %s LIMIT %d",
		col.Name, schema.Name, col.Name, col.Name, g.MaxSamples)
	rows, err := db.Query(sql)
	if err != nil {
		return nil, fmt.Errorf("xuis: sampling %s.%s: %w", schema.Name, col.Name, err)
	}
	defer rows.Close()
	var out []string
	for _, r := range rows.Data {
		out = append(out, r[0].AsString())
	}
	return out, nil
}

func pkAttr(schema *sqldb.TableSchema) string {
	parts := make([]string, len(schema.PrimaryKey))
	for i, col := range schema.PrimaryKey {
		parts[i] = schema.Name + "." + col
	}
	return strings.Join(parts, " ")
}

func isPKCol(schema *sqldb.TableSchema, col string) bool {
	for _, pk := range schema.PrimaryKey {
		if strings.EqualFold(pk, col) {
			return true
		}
	}
	return false
}

func typeSpecFor(t sqltypes.TypeInfo) TypeSpec {
	name := t.Kind.String()
	return TypeSpec{SQLType: name, Size: t.Size}
}

// titleCase turns "RESULT_FILE" into "Result File" for default aliases.
func titleCase(name string) string {
	words := strings.Split(strings.ToLower(name), "_")
	for i, w := range words {
		if w == "" {
			continue
		}
		words[i] = strings.ToUpper(w[:1]) + w[1:]
	}
	return strings.Join(words, " ")
}
