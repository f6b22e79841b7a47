package sqldb

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sqltypes"
)

// execStmtLocked dispatches a parsed statement. It returns a Result for
// DML/DDL or Rows for SELECT. The caller holds db.mu and owns commit or
// rollback of tx.
func (db *DB) execStmtLocked(tx *txState, stmt Statement, params []sqltypes.Value) (Result, *Rows, error) {
	switch s := stmt.(type) {
	case *CreateTableStmt:
		return db.execCreateTableLocked(tx, s)
	case *DropTableStmt:
		return db.execDropTableLocked(tx, s)
	case *CreateIndexStmt:
		return db.execCreateIndexLocked(tx, s)
	case *DropIndexStmt:
		return db.execDropIndexLocked(tx, s)
	case *InsertStmt:
		res, err := db.execInsertLocked(tx, s, params)
		return res, nil, err
	case *UpdateStmt:
		res, err := db.execUpdateLocked(tx, s, params)
		return res, nil, err
	case *DeleteStmt:
		res, err := db.execDeleteLocked(tx, s, params)
		return res, nil, err
	case *SelectStmt:
		rows, err := db.execSelectLocked(s, params, tx.intr)
		return Result{RowsAffected: 0}, rows, err
	default:
		return Result{}, nil, fmt.Errorf("sqldb: unsupported statement %T", stmt)
	}
}

// ---------- DDL ----------

// renderCreateTable reconstructs canonical DDL text for the DDL log, so
// snapshots replay through the normal code path.
func renderCreateTable(s *CreateTableStmt) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", strings.ToUpper(s.Table))
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", strings.ToUpper(c.Name), c.Type.String())
		if c.NotNull {
			b.WriteString(" NOT NULL")
		}
		if c.Default != nil {
			fmt.Fprintf(&b, " DEFAULT %s", c.Default.String())
		}
	}
	if len(s.PrimaryKey) > 0 {
		fmt.Fprintf(&b, ", PRIMARY KEY (%s)", strings.Join(upperAll(s.PrimaryKey), ", "))
	}
	for _, u := range s.Uniques {
		fmt.Fprintf(&b, ", UNIQUE (%s)", strings.Join(upperAll(u), ", "))
	}
	for _, fk := range s.ForeignKeys {
		fmt.Fprintf(&b, ", FOREIGN KEY (%s) REFERENCES %s (%s)",
			strings.Join(upperAll(fk.Cols), ", "), strings.ToUpper(fk.RefTable), strings.Join(upperAll(fk.RefCols), ", "))
	}
	b.WriteString(")")
	return b.String()
}

func (db *DB) execCreateTableLocked(tx *txState, s *CreateTableStmt) (Result, *Rows, error) {
	if s.IfNotExists {
		if _, exists := db.cat.Table(s.Table); exists {
			return Result{}, nil, nil
		}
	}
	schema, err := db.cat.addTable(s)
	if err != nil {
		return Result{}, nil, err
	}
	db.data[schema.Name] = newTableData(schema)
	ddl := renderCreateTable(s)
	db.ddlLog = append(db.ddlLog, ddl)
	db.schemaEpoch++ // invalidate cached plans
	db.flushResultCache()
	tx.redo = append(tx.redo, walRecord{op: walOpDDL, ddl: ddl})
	return Result{}, nil, nil
}

func (db *DB) execDropTableLocked(tx *txState, s *DropTableStmt) (Result, *Rows, error) {
	schema, ok := db.cat.Table(s.Table)
	if !ok {
		if s.IfExists {
			return Result{}, nil, nil
		}
		return Result{}, nil, fmt.Errorf("sqldb: table %s does not exist", s.Table)
	}
	td := db.data[schema.Name]
	if td != nil && td.live.Load() > 0 {
		// Unlink every controlled DATALINK before the table vanishes.
		dlCols := schema.DatalinkColumns()
		if len(dlCols) > 0 {
			var err error
			td.scan(snapLatest, func(_ *rowSlot, vals []sqltypes.Value) bool {
				for _, ci := range dlCols {
					if e := db.unlinkValueLocked(tx, schema, ci, vals[ci]); e != nil {
						err = e
						return false
					}
				}
				return true
			})
			if err != nil {
				return Result{}, nil, err
			}
		}
	}
	if err := db.cat.dropTable(s.Table); err != nil {
		return Result{}, nil, err
	}
	delete(db.data, schema.Name)
	for name, def := range db.indexes {
		if def.Table == schema.Name {
			delete(db.indexes, name)
		}
	}
	ddl := "DROP TABLE " + schema.Name
	db.ddlLog = append(db.ddlLog, ddl)
	db.schemaEpoch++ // invalidate cached plans
	db.flushResultCache()
	tx.redo = append(tx.redo, walRecord{op: walOpDDL, ddl: ddl})
	return Result{}, nil, nil
}

func (db *DB) execCreateIndexLocked(tx *txState, s *CreateIndexStmt) (Result, *Rows, error) {
	name := strings.ToUpper(s.Name)
	if _, exists := db.indexes[name]; exists {
		return Result{}, nil, fmt.Errorf("sqldb: index %s already exists", s.Name)
	}
	schema, ok := db.cat.Table(s.Table)
	if !ok {
		return Result{}, nil, fmt.Errorf("sqldb: table %s does not exist", s.Table)
	}
	if len(s.Columns) == 0 {
		return Result{}, nil, fmt.Errorf("sqldb: index %s has no columns", s.Name)
	}
	cols := upperAll(s.Columns)
	seen := map[string]bool{}
	for _, col := range cols {
		if schema.ColIndex(col) < 0 {
			return Result{}, nil, fmt.Errorf("sqldb: column %s not in table %s", col, s.Table)
		}
		if seen[col] {
			return Result{}, nil, fmt.Errorf("sqldb: duplicate column %s in index %s", col, s.Name)
		}
		seen[col] = true
	}
	td := db.data[schema.Name]
	if td.index(name) != nil {
		return Result{}, nil, fmt.Errorf("sqldb: index %s already exists", s.Name)
	}
	// Only named indexes count as duplicates: a DDL log written before
	// constraints became planner-visible indexes may hold a CREATE INDEX
	// over a PRIMARY KEY's columns, and it must keep replaying.
	for _, def := range db.indexes {
		if def.Table == schema.Name && sameCols(def.Columns, cols) {
			return Result{}, nil, fmt.Errorf("sqldb: columns (%s) of %s are already indexed",
				strings.Join(cols, ", "), s.Table)
		}
	}
	idx := newOrderedIndex(name, schema, cols)
	// Backfill under the DDL barrier: every row is committed and no
	// snapshot that predates the index can be open, so entries carry the
	// always-visible base stamp.
	td.scan(snapLatest, func(s *rowSlot, vals []sqltypes.Value) bool {
		idx.addRow(vals, liveEntry(s))
		return true
	})
	td.addIndex(idx)
	db.indexes[name] = indexDef{Name: name, Table: schema.Name, Columns: cols}
	ddl := fmt.Sprintf("CREATE INDEX %s ON %s (%s)", name, schema.Name, strings.Join(cols, ", "))
	db.ddlLog = append(db.ddlLog, ddl)
	db.schemaEpoch++ // invalidate cached plans
	db.flushResultCache()
	tx.redo = append(tx.redo, walRecord{op: walOpDDL, ddl: ddl})
	return Result{}, nil, nil
}

func (db *DB) execDropIndexLocked(tx *txState, s *DropIndexStmt) (Result, *Rows, error) {
	name := strings.ToUpper(s.Name)
	def, ok := db.indexes[name]
	if !ok {
		return Result{}, nil, fmt.Errorf("sqldb: index %s does not exist", s.Name)
	}
	delete(db.indexes, name)
	if td, ok := db.data[def.Table]; ok {
		td.indexes = slices.DeleteFunc(td.indexes, func(idx *orderedIndex) bool { return idx.name == name })
	}
	ddl := "DROP INDEX " + name
	db.ddlLog = append(db.ddlLog, ddl)
	db.schemaEpoch++ // invalidate cached plans
	db.flushResultCache()
	tx.redo = append(tx.redo, walRecord{op: walOpDDL, ddl: ddl})
	return Result{}, nil, nil
}

// ---------- DML ----------

func (db *DB) execInsertLocked(tx *txState, s *InsertStmt, params []sqltypes.Value) (Result, error) {
	schema, ok := db.cat.Table(s.Table)
	if !ok {
		return Result{}, fmt.Errorf("sqldb: table %s does not exist", s.Table)
	}
	td := db.data[schema.Name]

	// Map statement columns to schema positions.
	var colPos []int
	if len(s.Cols) == 0 {
		colPos = make([]int, len(schema.Cols))
		for i := range colPos {
			colPos[i] = i
		}
	} else {
		colPos = make([]int, len(s.Cols))
		for i, c := range s.Cols {
			ci := schema.ColIndex(c)
			if ci < 0 {
				return Result{}, fmt.Errorf("sqldb: column %s not in table %s", c, s.Table)
			}
			colPos[i] = ci
		}
	}

	ctx := &evalCtx{params: params, now: db.nowFn(), snap: snapLatest, intr: tx.intr}
	inserted := 0
	for _, exprRow := range s.Rows {
		if err := ctx.intr.check(); err != nil {
			return Result{}, err
		}
		if len(exprRow) != len(colPos) {
			return Result{}, fmt.Errorf("sqldb: INSERT has %d values for %d columns", len(exprRow), len(colPos))
		}
		vals := make([]sqltypes.Value, len(schema.Cols))
		filled := make([]bool, len(schema.Cols))
		for i, e := range exprRow {
			v, err := evalExpr(e, ctx)
			if err != nil {
				return Result{}, err
			}
			ci := colPos[i]
			cv, err := sqltypes.CoerceFor(schema.Cols[ci].Type, v)
			if err != nil {
				return Result{}, fmt.Errorf("sqldb: column %s: %w", schema.Cols[ci].Name, err)
			}
			vals[ci] = cv
			filled[ci] = true
		}
		for ci := range vals {
			if !filled[ci] {
				if schema.Cols[ci].Default != nil {
					vals[ci] = *schema.Cols[ci].Default
				} else {
					vals[ci] = sqltypes.Null
				}
			}
		}
		if err := db.checkRowConstraintsLocked(schema, vals); err != nil {
			return Result{}, err
		}
		// SQL/MED: link every non-null controlled DATALINK before the
		// row becomes visible; failure aborts the statement.
		for _, ci := range schema.DatalinkColumns() {
			if err := db.linkValueLocked(tx, schema, ci, vals[ci]); err != nil {
				return Result{}, err
			}
		}
		id := rowID(db.nextRow.Add(1) - 1)
		if err := td.insert(id, vals, &tx.refs); err != nil {
			return Result{}, err
		}
		tx.redo = append(tx.redo, walRecord{op: walOpInsert, table: schema.Name, row: id, vals: vals})
		inserted++
	}
	return Result{RowsAffected: inserted}, nil
}

func (db *DB) execUpdateLocked(tx *txState, s *UpdateStmt, params []sqltypes.Value) (Result, error) {
	schema, ok := db.cat.Table(s.Table)
	if !ok {
		return Result{}, fmt.Errorf("sqldb: table %s does not exist", s.Table)
	}
	td := db.data[schema.Name]
	env := envForTable(schema, "")
	for _, sc := range s.Sets {
		if schema.ColIndex(sc.Col) < 0 {
			return Result{}, fmt.Errorf("sqldb: column %s not in table %s", sc.Col, s.Table)
		}
		if err := bindExpr(sc.Expr, env, false); err != nil {
			return Result{}, err
		}
	}
	if s.Where != nil {
		if err := bindExpr(s.Where, env, false); err != nil {
			return Result{}, err
		}
	}

	// Phase 1: collect matching rows (stable against mutation).
	matched, err := db.matchRowsLocked(td, schema, s.Where, params, tx.intr)
	if err != nil {
		return Result{}, err
	}

	ctx := &evalCtx{params: params, now: db.nowFn(), snap: snapLatest, intr: tx.intr}
	updated := 0
	for _, row := range matched {
		if err := ctx.intr.check(); err != nil {
			return Result{}, err
		}
		old, ok := td.get(row, snapLatest)
		if !ok {
			continue
		}
		ctx.vals = old
		newVals := make([]sqltypes.Value, len(old))
		copy(newVals, old)
		for _, sc := range s.Sets {
			ci := schema.ColIndex(sc.Col)
			v, err := evalExpr(sc.Expr, ctx)
			if err != nil {
				return Result{}, err
			}
			cv, err := sqltypes.CoerceFor(schema.Cols[ci].Type, v)
			if err != nil {
				return Result{}, fmt.Errorf("sqldb: column %s: %w", schema.Cols[ci].Name, err)
			}
			newVals[ci] = cv
		}
		if err := db.checkRowConstraintsLocked(schema, newVals); err != nil {
			return Result{}, err
		}
		// Updating a key referenced by children is RESTRICTed.
		if err := db.checkNoChildRefsLocked(schema, old, newVals); err != nil {
			return Result{}, err
		}
		// SQL/MED: changing a controlled DATALINK unlinks the old file
		// and links the new one inside the same transaction.
		for _, ci := range schema.DatalinkColumns() {
			if old[ci].Equal(newVals[ci]) || (old[ci].IsNull() && newVals[ci].IsNull()) {
				continue
			}
			if err := db.unlinkValueLocked(tx, schema, ci, old[ci]); err != nil {
				return Result{}, err
			}
			if err := db.linkValueLocked(tx, schema, ci, newVals[ci]); err != nil {
				return Result{}, err
			}
		}
		if _, err := td.update(row, newVals, &tx.refs); err != nil {
			return Result{}, err
		}
		tx.redo = append(tx.redo, walRecord{op: walOpUpdate, table: schema.Name, row: row.id, vals: newVals})
		updated++
	}
	return Result{RowsAffected: updated}, nil
}

func (db *DB) execDeleteLocked(tx *txState, s *DeleteStmt, params []sqltypes.Value) (Result, error) {
	schema, ok := db.cat.Table(s.Table)
	if !ok {
		return Result{}, fmt.Errorf("sqldb: table %s does not exist", s.Table)
	}
	td := db.data[schema.Name]
	if s.Where != nil {
		if err := bindExpr(s.Where, envForTable(schema, ""), false); err != nil {
			return Result{}, err
		}
	}
	matched, err := db.matchRowsLocked(td, schema, s.Where, params, tx.intr)
	if err != nil {
		return Result{}, err
	}
	deleted := 0
	for _, row := range matched {
		if err := tx.intr.check(); err != nil {
			return Result{}, err
		}
		old, ok := td.get(row, snapLatest)
		if !ok {
			continue
		}
		if err := db.checkNoChildRefsLocked(schema, old, nil); err != nil {
			return Result{}, err
		}
		for _, ci := range schema.DatalinkColumns() {
			if err := db.unlinkValueLocked(tx, schema, ci, old[ci]); err != nil {
				return Result{}, err
			}
		}
		if _, err := td.delete(row, &tx.refs); err != nil {
			return Result{}, err
		}
		tx.redo = append(tx.redo, walRecord{op: walOpDelete, table: schema.Name, row: row.id})
		deleted++
	}
	return Result{RowsAffected: deleted}, nil
}

// matchRowsLocked returns the rows (slots) satisfying where, read
// through the same tableScan a SELECT uses: equality, range and null
// predicates on indexed columns select the key range, which decides the
// match on its own when the path is residual-free; otherwise the full
// predicate is tested on every candidate (see openScan).
func (db *DB) matchRowsLocked(td *tableData, schema *TableSchema, where Expr, params []sqltypes.Value, ic *interrupt) ([]*rowSlot, error) {
	// Latest-mode visibility: DML must see the current state, including
	// this transaction's own earlier writes (the owning writer slot —
	// wmu or the global lock — guarantees no foreign in-flight stamps).
	ctx := &evalCtx{params: params, now: db.nowFn(), snap: snapLatest, intr: ic}
	scan := db.openScan(td, planAccess(td, schema.Name, where, nil, nil, false, false), where, ctx)
	var matched []*rowSlot
	err := scan.run(ctx, func(s *rowSlot, _ []sqltypes.Value) bool {
		matched = append(matched, s)
		return true
	})
	return matched, err
}

// ---------- constraints ----------

// checkRowConstraintsLocked enforces NOT NULL and FK-parent existence.
// Unique/PK constraints are enforced by the storage layer's indexes.
func (db *DB) checkRowConstraintsLocked(schema *TableSchema, vals []sqltypes.Value) error {
	for i, c := range schema.Cols {
		if c.NotNull && vals[i].IsNull() {
			return fmt.Errorf("sqldb: column %s.%s may not be NULL", schema.Name, c.Name)
		}
	}
	for _, fk := range schema.ForeignKeys {
		tuple := make([]sqltypes.Value, len(fk.Cols))
		anyNull := false
		for i, col := range fk.Cols {
			tuple[i] = vals[schema.ColIndex(col)]
			if tuple[i].IsNull() {
				anyNull = true
			}
		}
		if anyNull {
			continue // SQL: NULL FK values are not checked
		}
		parent, ok := db.cat.Table(fk.RefTable)
		if !ok {
			return fmt.Errorf("sqldb: foreign key references missing table %s", fk.RefTable)
		}
		if !db.rowExistsLocked(parent, fk.RefCols, tuple) {
			return fmt.Errorf("sqldb: foreign key violation: no %s row with (%s) = %v",
				fk.RefTable, strings.Join(fk.RefCols, ", "), tuple)
		}
	}
	return nil
}

// rowExistsLocked reports whether the table holds a current row whose
// cols equal tuple (no NULLs in it) — the parent-exists and
// child-references sides of every FK check. Any index whose leading
// columns are cols serves the probe: a full key is a point lookup, a
// prefix a bounded scan, and an aligned probe's key is exact (key.go),
// so any live row under it matches. Without such an index, or when a
// probe value does not align with the indexed column's type, the heap
// is scanned.
func (db *DB) rowExistsLocked(schema *TableSchema, cols []string, tuple []sqltypes.Value) bool {
	td := db.data[schema.Name]
	pos := make([]int, len(cols))
	var prefix []byte
	aligned := true
	for i, c := range cols {
		pos[i] = schema.ColIndex(c)
		pv, ok := probeValue(schema.Cols[pos[i]].Type.Kind, tuple[i])
		aligned = aligned && ok
		prefix = appendKey(prefix, pv)
	}
	found := false
	for _, idx := range td.indexes {
		if !aligned || len(idx.pos) < len(pos) || !slices.Equal(idx.pos[:len(pos)], pos) {
			continue
		}
		visit := func(_ string, es []*idxEntry) bool {
			for _, e := range es {
				if !entryCurrent(e) {
					continue
				}
				if _, live := e.slot.fetch(snapLatest); live {
					found = true
					return false
				}
			}
			return true
		}
		if len(idx.pos) == len(pos) {
			visit("", idx.lookupKey(string(prefix)))
		} else {
			idx.scanRange(&keyBound{key: string(prefix), incl: true}, prefixUpper(prefix), false, visit)
		}
		return found
	}
	td.scan(snapLatest, func(_ *rowSlot, vals []sqltypes.Value) bool {
		for i, p := range pos {
			if c, ok := sqltypes.Compare(vals[p], tuple[i]); !ok || c != 0 {
				return true
			}
		}
		found = true
		return false
	})
	return found
}

// checkNoChildRefsLocked enforces RESTRICT when deleting a row or
// changing its key: if any child table references the old key values
// (and, for updates, the key actually changes), the operation fails.
func (db *DB) checkNoChildRefsLocked(schema *TableSchema, old, new []sqltypes.Value) error {
	for _, name := range db.cat.TableNames() {
		child, _ := db.cat.Table(name)
		for _, fk := range child.ForeignKeys {
			if fk.RefTable != schema.Name {
				continue
			}
			oldKey := make([]sqltypes.Value, len(fk.RefCols))
			anyNull := false
			for i, rc := range fk.RefCols {
				oldKey[i] = old[schema.ColIndex(rc)]
				if oldKey[i].IsNull() {
					anyNull = true
				}
			}
			if anyNull {
				continue
			}
			if new != nil {
				changed := false
				for i, rc := range fk.RefCols {
					if c, ok := sqltypes.Compare(oldKey[i], new[schema.ColIndex(rc)]); !ok || c != 0 {
						changed = true
						break
					}
				}
				if !changed {
					continue
				}
			}
			if db.rowExistsLocked(child, fk.Cols, oldKey) {
				return fmt.Errorf("sqldb: RESTRICT: %s row is referenced by %s (%s)",
					schema.Name, child.Name, strings.Join(fk.Cols, ", "))
			}
		}
	}
	return nil
}

func sameCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !strings.EqualFold(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ---------- SQL/MED link control ----------

func (db *DB) linkValueLocked(tx *txState, schema *TableSchema, ci int, v sqltypes.Value) error {
	if v.IsNull() || db.replaying {
		return nil
	}
	opts := schema.Cols[ci].Type.Datalink
	if opts == nil || !opts.FileLinkControl {
		return nil
	}
	if db.linkCtl == nil {
		return fmt.Errorf("sqldb: column %s.%s has FILE LINK CONTROL but no link controller is configured",
			schema.Name, schema.Cols[ci].Name)
	}
	// Mark before the call: even a failed prepare obliges rollback to
	// send Abort so the coordinator can discard partial reservations.
	tx.usedLink = true
	if err := db.linkCtl.PrepareLink(tx.id, v.Str(), *opts); err != nil {
		return fmt.Errorf("sqldb: datalink %s: %w", v.Str(), err)
	}
	return nil
}

func (db *DB) unlinkValueLocked(tx *txState, schema *TableSchema, ci int, v sqltypes.Value) error {
	if v.IsNull() || db.replaying {
		return nil
	}
	opts := schema.Cols[ci].Type.Datalink
	if opts == nil || !opts.FileLinkControl {
		return nil
	}
	if db.linkCtl == nil {
		return fmt.Errorf("sqldb: column %s.%s has FILE LINK CONTROL but no link controller is configured",
			schema.Name, schema.Cols[ci].Name)
	}
	tx.usedLink = true
	if err := db.linkCtl.PrepareUnlink(tx.id, v.Str(), *opts); err != nil {
		return fmt.Errorf("sqldb: datalink %s: %w", v.Str(), err)
	}
	return nil
}

// envForTable builds the binding namespace of one table (alias optional).
func envForTable(schema *TableSchema, alias string) *bindEnv {
	name := strings.ToUpper(alias)
	if name == "" {
		name = schema.Name
	}
	env := &bindEnv{}
	for _, c := range schema.Cols {
		env.cols = append(env.cols, qualCol{table: name, col: c.Name})
	}
	return env
}
