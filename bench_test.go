// One benchmark per exhibit of the paper's evaluation (the experiments
// E1–E12 of internal/exp), plus ablation benches for the design choices
// the architecture calls out. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/med"
	"repro/internal/netsim"
	"repro/internal/sqldb"
	"repro/internal/sqltypes"
	"repro/internal/webui"
	"repro/internal/xuis"
)

// BenchmarkE1_BandwidthTable regenerates the paper's Table 1 (the FTP
// bandwidth measurements and derived transfer times).
func BenchmarkE1_BandwidthTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := netsim.Table1(netsim.SuperJANET1999)
		if len(rows) != 4 || netsim.FormatDuration(rows[0].SmallTime) != "45m20s" {
			b.Fatal("table shape")
		}
	}
}

// BenchmarkE2_CentralVsDistributed evaluates the "Bandwidth Problems"
// comparison across sizes and periods.
func BenchmarkE2_CentralVsDistributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, size := range []int64{netsim.SmallSimulationBytes, netsim.LargeSimulationBytes} {
			for _, p := range []netsim.Period{netsim.Day, netsim.Evening} {
				r := exp.E2CentralVsDistributed(size, 100, 10, p)
				if r.EASIAWANBytes >= r.CentralWANBytes {
					b.Fatal("distributed must move fewer bytes")
				}
			}
		}
	}
}

// BenchmarkE3_DataReduction runs the real archived GetImage operation:
// fetch code, unpack, sandboxed slice+render — the paper's server-side
// data-reduction path.
func BenchmarkE3_DataReduction(b *testing.B) {
	d, err := exp.BuildDemoArchive(b, 24)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := d.RunDemoOperation("z")
		if err != nil {
			b.Fatal(err)
		}
		if out <= 0 {
			b.Fatal("no output")
		}
	}
}

// BenchmarkE4_ServerScaling runs the max-min fair contention simulation
// behind the distribution experiment.
func BenchmarkE4_ServerScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.E4ServerScaling(16, []int{1, 2, 4, 8, 16}, netsim.SmallSimulationBytes)
		if rows[4].Speedup < 15 {
			b.Fatalf("speedup %v", rows[4].Speedup)
		}
	}
}

// BenchmarkE5_ParallelOps measures real slice+render jobs spread over
// 1 vs 8 worker hosts.
func BenchmarkE5_ParallelOps(b *testing.B) {
	for _, hosts := range []int{1, 8} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exp.E5ParallelOps(32, 8, []int{hosts})
			}
		})
	}
}

// BenchmarkE6_EndToEnd runs the full architecture flow: archive, link,
// search, browse, token download, operation.
func BenchmarkE6_EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E6EndToEnd(b); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_XUISGeneration measures default-XUIS generation from the
// five-table catalogue.
func BenchmarkE7_XUISGeneration(b *testing.B) {
	d, err := exp.BuildDemoArchive(b, 8)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (xuis.Generator{MaxSamples: 4}).Generate(d.Archive.DB, "TURBULENCE"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_ResultPage measures rendering the hyperlinked result
// table over HTTP (the paper's "Result table" figure).
func BenchmarkE8_ResultPage(b *testing.B) {
	d, err := exp.BuildDemoArchive(b, 8)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if err := d.Archive.Users.Add(core.User{Name: "bench"}, "pw"); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(webui.NewServer(d.Archive))
	defer srv.Close()
	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar}
	if _, err := client.PostForm(srv.URL+"/login", url.Values{"username": {"bench"}, "password": {"pw"}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(srv.URL + "/query?table=RESULT_FILE&all=1")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkRenderPKPage measures one 50-row primary-key browse page
// (the last request of a bench/ browse visit) through the webui
// handler in process: search, column plan and streamed rows, with no
// socket in the way.
func BenchmarkRenderPKPage(b *testing.B) {
	benchRenderPage(b, "/browse?mode=pk&table=RESULT_FILE&col=SIMULATION_KEY&value=S19990110150932")
}

// BenchmarkRenderSearchPage measures the /query page a bench/ browse
// visit submits from the query form: every field ticked with an
// operator and a mostly empty restriction, two restrictions filled
// (the run and a TIMESTEP lower bound) and limit 20, so the form's
// decoding is measured with the search and the 20-row render.
func BenchmarkRenderSearchPage(b *testing.B) {
	search := url.Values{"table": {"RESULT_FILE"}, "orderby": {""}, "limit": {"20"}}
	for _, col := range []string{"FILE_NAME", "SIMULATION_KEY", "TIMESTEP", "MEASUREMENT", "FILE_FORMAT", "FILE_SIZE", "DOWNLOAD_RESULT"} {
		search.Add("sel", col)
		search.Set("op_"+col, "=")
		search.Set("val_"+col, "")
	}
	search.Set("val_SIMULATION_KEY", "S19990110150932")
	search.Set("op_TIMESTEP", ">=")
	search.Set("val_TIMESTEP", "100")
	benchRenderPage(b, "/query?"+search.Encode())
}

// benchRenderPage serves path, a results page over a demo archive whose
// simulation has 50 RESULT_FILE rows, to a signed-in user b.N times.
func benchRenderPage(b *testing.B, path string) {
	d, err := exp.BuildDemoArchive(b, 8)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	for i := 1; i < 50; i++ {
		if _, err := d.Archive.DB.Exec(fmt.Sprintf(
			`INSERT INTO RESULT_FILE VALUES ('ts%d.tsf', 'S19990110150932', %d, 'u,v,w,p', 'TSF', 27680, NULL)`, 100+i, 100+i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Archive.Users.Add(core.User{Name: "bench"}, "pw"); err != nil {
		b.Fatal(err)
	}
	h := webui.NewServer(d.Archive)
	login := httptest.NewRecorder()
	form := httptest.NewRequest("POST", "/login", strings.NewReader("username=bench&password=pw"))
	form.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	h.ServeHTTP(login, form)
	req := httptest.NewRequest("GET", path, nil)
	for _, c := range login.Result().Cookies() {
		req.AddCookie(c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Form, req.PostForm = nil, nil // as each new request arrives
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkE9_XUISMarshal measures serialising the XUIS fragments.
func BenchmarkE9_XUISMarshal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E9Report(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10_Tokens measures the DATALINK access-token lifecycle
// (AES-GCM mint + validate).
func BenchmarkE10_Tokens(b *testing.B) {
	auth, err := med.NewTokenAuthority([]byte("bench-secret"), time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	const path = "/vol0/run1/ts4.tsf"
	b.Run("mint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := auth.Mint(path, "bench", 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("validate", func(b *testing.B) {
		tok, _ := auth.Mint(path, "bench", 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := auth.Validate(tok, path); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11_SandboxUpload measures the full code-upload path:
// unpack, chdir, sandboxed execution, output collection.
func BenchmarkE11_SandboxUpload(b *testing.B) {
	d, err := exp.BuildDemoArchive(b, 12)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	code := []byte(`
let st = sliceStats(filename, "u", "z", 6)
writeFile("report.txt", "rms=" + str(st.rms))
`)
	key := map[string]string{"FILE_NAME": "ts4.tsf", "SIMULATION_KEY": "S19990110150932"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Archive.UploadAndRun("RESULT_FILE.DOWNLOAD_RESULT", "RESULT_FILE", key,
			code, "easl", "main.easl", nil, core.User{Name: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Files) != 1 {
			b.Fatal("output missing")
		}
	}
}

// BenchmarkE12_LinkControl measures the transactional link/unlink cycle
// (INSERT with PrepareLink+Commit, DELETE with PrepareUnlink+Commit).
func BenchmarkE12_LinkControl(b *testing.B) {
	d, err := exp.BuildDemoArchive(b, 8)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	// Pre-create the files to link.
	for i := 0; i < 512; i++ {
		path := fmt.Sprintf("/bench/f%04d.dat", i)
		if _, err := d.FS1.Put(path, io.LimitReader(zeroReader{}, 64)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/bench/f%04d.dat", i%512)
		url := "http://fs1.sim:80" + path
		if _, err := d.Archive.DB.Exec(
			`INSERT INTO RESULT_FILE VALUES (?, 'S19990110150932', 0, 'u', 'TSF', 64, DLVALUE(?))`,
			sqltypes.NewString(fmt.Sprintf("bench-%d", i)), sqltypes.NewString(url)); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Archive.DB.Exec(`DELETE FROM RESULT_FILE WHERE FILE_NAME = ?`,
			sqltypes.NewString(fmt.Sprintf("bench-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// ---------- ablation benches ----------

// firstSightings numbers the surplus argument uncached appends.
var firstSightings atomic.Int64

// uncached returns a reusable argument list for one goroutine: args
// plus one surplus argument, which no placeholder reads and which is a
// fresh number on every call. The engine ignores surplus arguments,
// but the result cache keys on them, so every execution is a first
// sighting: an ablation that repeats one statement keeps measuring the
// executor it compares, not cache hits.
func uncached(args ...sqltypes.Value) func() []sqltypes.Value {
	buf := append(args[:len(args):len(args)], sqltypes.Null)
	return func() []sqltypes.Value {
		buf[len(buf)-1] = sqltypes.NewInt(firstSightings.Add(1))
		return buf
	}
}

// BenchmarkAblation_IndexVsScan shows the effect of an index like the one the
// schema creates on CODE_FILE.SIMULATION_KEY.
func BenchmarkAblation_IndexVsScan(b *testing.B) {
	build := func(withIndex bool) *sqldb.DB {
		db, err := sqldb.Open("")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, sim VARCHAR(30), v DOUBLE)`); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, ?)`,
				sqltypes.NewInt(int64(i)),
				sqltypes.NewString(fmt.Sprintf("S%03d", i%100)),
				sqltypes.NewDouble(float64(i))); err != nil {
				b.Fatal(err)
			}
		}
		if withIndex {
			if _, err := db.Exec(`CREATE INDEX idx_sim ON t (sim)`); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	for _, mode := range []struct {
		name string
		idx  bool
	}{{"scan", false}, {"indexed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			db := build(mode.idx)
			defer db.Close()
			args := uncached()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := db.Query(`SELECT COUNT(*) FROM t WHERE sim = 'S042'`, args()...)
				if err != nil || rows.Data[0][0].Int() != 50 {
					b.Fatalf("rows=%v err=%v", rows, err)
				}
			}
		})
	}
}

// BenchmarkAblation_OpCache measures the engine's result cache — the
// paper's future-work item, now implemented in sqldb and always on — on
// the archive's hottest repeated shape: a parameterized browse query
// against an unchanged catalogue. hit repeats one key, served from the
// shared cached entry; miss cycles over pre-built arguments that are
// each a first sighting (the second parameter never matters, so every
// execution does the hit's work), so it runs the scan, sort and
// projection plus the cache's admission check every time. The
// acceptance bar is ≥10x on ns/op for hit over miss.
func BenchmarkAblation_OpCache(b *testing.B) {
	db, err := sqldb.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE RESULT_FILE (
		FILE_NAME VARCHAR(64) PRIMARY KEY, SIMULATION_KEY VARCHAR(30),
		TIMESTEP INTEGER, MEASUREMENT VARCHAR(10), SIZE_BYTES INTEGER)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		if _, err := db.Exec(`INSERT INTO RESULT_FILE VALUES (?, ?, ?, ?, ?)`,
			sqltypes.NewString(fmt.Sprintf("ts%05d.tsf", i)),
			sqltypes.NewString(fmt.Sprintf("S%03d", i%400)),
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString("u"),
			sqltypes.NewInt(int64(i)*1024)); err != nil {
			b.Fatal(err)
		}
	}
	const query = `SELECT FILE_NAME, TIMESTEP, SIZE_BYTES FROM RESULT_FILE
		WHERE SIMULATION_KEY = ? AND MEASUREMENT = 'u' AND TIMESTEP > ? ORDER BY TIMESTEP LIMIT 20`
	sim := sqltypes.NewString("S042")
	for _, mode := range []string{"hit", "miss"} {
		b.Run(mode, func(b *testing.B) {
			floors := make([]sqltypes.Value, b.N)
			for i := range floors {
				floors[i] = sqltypes.NewInt(-1)
				if mode == "miss" {
					floors[i] = sqltypes.NewInt(-int64(i) - 2)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := db.Query(query, sim, floors[i])
				if err != nil || len(rows.Data) != 20 {
					b.Fatalf("rows=%v err=%v", rows, err)
				}
				rows.Close()
			}
		})
	}
}

// BenchmarkAblation_Arena measures the result path on the row-
// materialisation shape BenchmarkAblation_ValueLayout/project tracks: a
// 100k-row scan projecting five mixed-kind columns. The projection is
// the table's columns in stored order, so each result row is the stored
// row version and the statement costs the exactly sized row-pointer
// slice and little else: it reports B/row over the 50k rows returned
// (24.3 recorded; 49.5 while the rows were copied into pooled arena
// chunks and the pointer slice was sized to the table; one
// make([]Value) per row cost 390), and scripts/bench.sh fails the run
// above its ceiling.
func BenchmarkAblation_Arena(b *testing.B) {
	db, err := sqldb.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE T (
		ID INTEGER PRIMARY KEY, SIM VARCHAR(30), TS TIMESTAMP,
		V DOUBLE, OK BOOLEAN)`); err != nil {
		b.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO T VALUES (?, ?, ?, ?, ?)`)
	if err != nil {
		b.Fatal(err)
	}
	base := time.Date(1999, 1, 10, 15, 9, 32, 0, time.UTC)
	const rows = 100_000
	for i := 0; i < rows; i++ {
		if _, err := ins.Exec(
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("S%03d", i%400)),
			sqltypes.NewTime(base.Add(time.Duration(i)*time.Second)),
			sqltypes.NewDouble(float64(i)*0.5),
			sqltypes.NewBool(i%2 == 0)); err != nil {
			b.Fatal(err)
		}
	}
	const query = `SELECT ID, SIM, TS, V, OK FROM T WHERE OK = TRUE`
	b.Run("arena", func(b *testing.B) {
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := db.Query(query)
			if err != nil || len(out.Data) != rows/2 {
				b.Fatalf("rows=%d err=%v", len(out.Data), err)
			}
			out.Close()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/(rows/2), "B/row")
	})
}

// resultFileDB loads a 100k-row RESULT_FILE catalogue over 400
// simulations, row i at timestep(i), then runs ddl unless it is empty:
// the index an ablation measures, absent from its full-scan leg.
func resultFileDB(b *testing.B, timestep func(i int) int64, ddl string) *sqldb.DB {
	db, err := sqldb.Open("")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE RESULT_FILE (
		ID INTEGER PRIMARY KEY, SIMULATION_KEY VARCHAR(30),
		TIMESTEP INTEGER, SIZE_BYTES INTEGER)`); err != nil {
		b.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO RESULT_FILE VALUES (?, ?, ?, ?)`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100_000; i++ {
		if _, err := ins.Exec(
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("S%03d", i%400)),
			sqltypes.NewInt(timestep(i)),
			sqltypes.NewInt(int64(i)*1024)); err != nil {
			b.Fatal(err)
		}
	}
	if ddl != "" {
		if _, err := db.Exec(ddl); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkAblation_OrderedIndex measures the ordered secondary index
// on the paper's dominant scientific-query shape — a selective range
// predicate (TIMESTEP window) over a large result-file catalogue —
// against the same query on the same table without the index, which
// the engine answers with a full scan. The acceptance bar for the
// access-path planner is ≥5x on 100k rows; the B+tree scan touches
// ~0.1% of the table and lands far beyond that.
func BenchmarkAblation_OrderedIndex(b *testing.B) {
	timestep := func(i int) int64 { return int64(i) }
	const query = `SELECT COUNT(*), MAX(SIZE_BYTES) FROM RESULT_FILE WHERE TIMESTEP BETWEEN ? AND ?`
	args := uncached(sqltypes.NewInt(50_000), sqltypes.NewInt(50_099))
	for _, mode := range []struct {
		name string
		db   *sqldb.DB
	}{{"full-scan", resultFileDB(b, timestep, "")},
		{"ordered-index", resultFileDB(b, timestep, `CREATE INDEX IDX_TS ON RESULT_FILE (TIMESTEP) USING ORDERED`)}} {
		defer mode.db.Close()
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := mode.db.Query(query, args()...)
				if err != nil || rows.Data[0][0].Int() != 100 {
					b.Fatalf("rows=%v err=%v", rows, err)
				}
			}
		})
	}
}

// BenchmarkAblation_ValueLayout measures the raw SELECT scan cost the
// compact 32-byte sqltypes.Value layout targets: a full scan of 100k
// mixed-kind rows with a residual predicate and projection, where the
// previous 112-byte Value made row copying (~27% of SELECT CPU in
// duffcopy) and the per-row allocations the dominant cost. Track B/op
// and allocs/op across PRs.
func BenchmarkAblation_ValueLayout(b *testing.B) {
	db, err := sqldb.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE T (
		ID INTEGER PRIMARY KEY, SIM VARCHAR(30), TS TIMESTAMP,
		V DOUBLE, OK BOOLEAN)`); err != nil {
		b.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO T VALUES (?, ?, ?, ?, ?)`)
	if err != nil {
		b.Fatal(err)
	}
	base := time.Date(1999, 1, 10, 15, 9, 32, 0, time.UTC)
	const rows = 100_000
	for i := 0; i < rows; i++ {
		if _, err := ins.Exec(
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("S%03d", i%400)),
			sqltypes.NewTime(base.Add(time.Duration(i)*time.Second)),
			sqltypes.NewDouble(float64(i)*0.5),
			sqltypes.NewBool(i%2 == 0)); err != nil {
			b.Fatal(err)
		}
	}
	// No index on V: these are deliberately full heap scans.
	arg := sqltypes.NewDouble(0)
	aggArgs := uncached(arg)
	b.Run("aggregate", func(b *testing.B) {
		const query = `SELECT COUNT(*), AVG(V) FROM T WHERE V >= ? AND OK = TRUE`
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := db.Query(query, aggArgs()...)
			if err != nil || out.Data[0][0].Int() != rows/2 {
				b.Fatalf("rows=%v err=%v", out, err)
			}
		}
	})
	// Row materialisation is where sizeof(Value) dominates B/op: every
	// projected row copies one Value per column into the result.
	b.Run("project", func(b *testing.B) {
		const query = `SELECT ID, SIM, TS, V, OK FROM T WHERE OK = TRUE`
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := db.Query(query, arg)
			if err != nil || len(out.Data) != rows/2 {
				b.Fatalf("rows=%d err=%v", len(out.Data), err)
			}
		}
	})
}

// BenchmarkAblation_CompositeIndex measures the composite (two-column)
// ordered index on the archive's dominant compound shape — "this
// simulation, this timestep" — as a two-column equality over 100k rows,
// against the same query on the same table without the index, which
// the engine answers with a full scan. The equality is consumed
// exactly, so the COUNT is additionally answered index-only (zero heap
// rows; see TestIndexOnlyAggregates for the assertion).
func BenchmarkAblation_CompositeIndex(b *testing.B) {
	timestep := func(i int) int64 { return int64(i / 400) } // 400 sims × 250 timesteps, 1 row per pair
	const query = `SELECT COUNT(*) FROM RESULT_FILE WHERE SIMULATION_KEY = ? AND TIMESTEP = ?`
	args := uncached(sqltypes.NewString("S042"), sqltypes.NewInt(125))
	for _, mode := range []struct {
		name string
		db   *sqldb.DB
	}{{"full-scan", resultFileDB(b, timestep, "")},
		{"composite-index", resultFileDB(b, timestep, `CREATE INDEX IDX_SIM_TS ON RESULT_FILE (SIMULATION_KEY, TIMESTEP) USING ORDERED`)}} {
		defer mode.db.Close()
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := mode.db.Query(query, args()...)
				if err != nil || out.Data[0][0].Int() != 1 {
					b.Fatalf("rows=%v err=%v", out, err)
				}
			}
		})
	}
}

// BenchmarkAblation_JoinPlan measures the index nested-loop join on a
// 1k×1k equi-join with the inner join key indexed, against the same
// tables without that index, where the engine scans the inner table
// per outer row (the cross product). The INL path probes the index once
// per outer row instead of visiting a million row pairs; results are
// proven identical by TestJoinINLPropertyVsNaive. The three-table leg
// is the report's join shape — a path on the first table, then two
// index probes, 400 projected rows — whose allocs/op track the join's
// row assembly.
func BenchmarkAblation_JoinPlan(b *testing.B) {
	const n = 1000
	build := func(withIndex bool) *sqldb.DB {
		db, err := sqldb.Open("")
		if err != nil {
			b.Fatal(err)
		}
		if err := db.ExecScript(`CREATE TABLE SIM (SID INTEGER PRIMARY KEY, K INTEGER);
			CREATE TABLE RES (RID INTEGER PRIMARY KEY, K INTEGER, SZ INTEGER);
			CREATE TABLE AUTH (AID INTEGER PRIMARY KEY, NAME VARCHAR(40))`); err != nil {
			b.Fatal(err)
		}
		insS, _ := db.Prepare(`INSERT INTO SIM VALUES (?, ?)`)
		insR, _ := db.Prepare(`INSERT INTO RES VALUES (?, ?, ?)`)
		insA, _ := db.Prepare(`INSERT INTO AUTH VALUES (?, ?)`)
		for i := 0; i < n; i++ {
			if _, err := insS.Exec(sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i))); err != nil {
				b.Fatal(err)
			}
			if _, err := insR.Exec(sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i)),
				sqltypes.NewInt(int64(i)*4096)); err != nil {
				b.Fatal(err)
			}
			if _, err := insA.Exec(sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("author %d", i))); err != nil {
				b.Fatal(err)
			}
		}
		if withIndex {
			if _, err := db.Exec(`CREATE INDEX RES_K ON RES (K)`); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	db, naive := build(true), build(false)
	defer db.Close()
	defer naive.Close()
	const query = `SELECT COUNT(*) FROM SIM JOIN RES ON RES.K = SIM.K`
	args := uncached()
	for _, mode := range []struct {
		name string
		db   *sqldb.DB
	}{{"cross-product", naive}, {"index-nested-loop", db}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := mode.db.Query(query, args()...)
				if err != nil || out.Data[0][0].Int() != n {
					b.Fatalf("rows=%v err=%v", out, err)
				}
			}
		})
	}
	b.Run("index-nested-loop-3-table", func(b *testing.B) {
		const rows = 400
		const query3 = `SELECT RES.RID, SIM.SID, AUTH.NAME FROM SIM JOIN RES ON RES.K = SIM.K
			JOIN AUTH ON AUTH.AID = RES.RID WHERE SIM.SID < ?`
		args := uncached(sqltypes.NewInt(rows))
		for i := 0; i < b.N; i++ {
			out, err := db.Query(query3, args()...)
			if err != nil || len(out.Data) != rows {
				b.Fatalf("rows=%v err=%v", out, err)
			}
			out.Close()
		}
	})
}

// BenchmarkRollup measures the report's rollup shape: 100k rows in 400
// groups, loaded a group at a time as the archive loads a run, folded
// by COUNT/SUM/MAX per simulation through the hash table during a heap
// scan. The (SIMULATION_KEY, TIMESTEP) index is present, as in the
// archive, and is not used: a GROUP BY reads its rows from the heap.
// ns/row is the fold's cost per source row.
func BenchmarkRollup(b *testing.B) {
	db, err := sqldb.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE RESULT_FILE (
		ID INTEGER PRIMARY KEY, SIMULATION_KEY VARCHAR(30),
		TIMESTEP INTEGER, SIZE_BYTES INTEGER)`); err != nil {
		b.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO RESULT_FILE VALUES (?, ?, ?, ?)`)
	if err != nil {
		b.Fatal(err)
	}
	const rows = 100_000
	for i := 0; i < rows; i++ {
		if _, err := ins.Exec(
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("S%03d", i/250)), // a run's files are archived together
			sqltypes.NewInt(int64(i%250)),
			sqltypes.NewInt(int64(i)*1024)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.Exec(`CREATE INDEX IDX_SIM_TS ON RESULT_FILE (SIMULATION_KEY, TIMESTEP)`); err != nil {
		b.Fatal(err)
	}
	stmt, err := db.Prepare(`SELECT SIMULATION_KEY, COUNT(*), SUM(SIZE_BYTES), MAX(TIMESTEP)
		FROM RESULT_FILE GROUP BY SIMULATION_KEY`)
	if err != nil {
		b.Fatal(err)
	}
	args := uncached()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := stmt.Query(args()...)
		if err != nil || len(out.Data) != 400 {
			b.Fatalf("groups=%d err=%v", len(out.Data), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}

// BenchmarkAblation_GroupCommit shows WAL group commit amortising
// fsyncs: serial committers pay one Sync each, concurrent committers
// batch behind a shared flush leader, so parallel throughput rises with
// offered load instead of serialising on the disk.
func BenchmarkAblation_GroupCommit(b *testing.B) {
	build := func() *sqldb.DB {
		db, err := sqldb.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		db.CheckpointEvery = 0
		if _, err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(40))`); err != nil {
			b.Fatal(err)
		}
		return db
	}
	b.Run("serial", func(b *testing.B) {
		db := build()
		defer db.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`,
				sqltypes.NewInt(int64(i)), sqltypes.NewString("metadata row")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		db := build()
		defer db.Close()
		var next int64
		// Committers spend their time parked in fsync, not on-CPU, so
		// batching shows even on single-core runners given enough
		// concurrent goroutines.
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				id := atomic.AddInt64(&next, 1)
				if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`,
					sqltypes.NewInt(id), sqltypes.NewString("metadata row")); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkAblation_WALCommit compares in-memory commits against
// durable WAL commits (fsync per transaction).
func BenchmarkAblation_WALCommit(b *testing.B) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "wal"
		}
		b.Run(name, func(b *testing.B) {
			dir := ""
			if durable {
				dir = b.TempDir()
			}
			db, err := sqldb.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			db.CheckpointEvery = 0
			if _, err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(40))`); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`,
					sqltypes.NewInt(int64(i)), sqltypes.NewString("metadata row")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_PlanCache measures the prepared-statement plan
// cache on the archive's hottest query shape: a selective indexed
// browse lookup issued repeatedly through DB.Query. cache=on repeats
// one statement text and reuses its bound plan, leaving only the index
// lookup and projection. cache=off cycles through 1,024 texts of the
// same statement that differ only in the table's alias — four times
// the plan cache's 256 entries, so every call misses it and re-lexes,
// re-parses and re-binds (and pays the cache's insert and eviction).
// This is the FK/PK-browsing and link-control pattern where
// per-statement overhead, not data volume, bounds throughput.
func BenchmarkAblation_PlanCache(b *testing.B) {
	query := func(alias int) string {
		return fmt.Sprintf(`SELECT FILE_NAME, SIMULATION_KEY, TIMESTEP, MEASUREMENT, SIZE_BYTES, FORMAT
		FROM RESULT_FILE R%04d
		WHERE SIMULATION_KEY = ? AND TIMESTEP BETWEEN ? AND ?
		AND MEASUREMENT IN ('u', 'v', 'w', 'p') AND FORMAT <> 'RAW'
		ORDER BY TIMESTEP LIMIT 5`, alias)
	}
	texts := make([]string, 1024)
	for i := range texts {
		texts[i] = query(i)
	}
	build := func() *sqldb.DB {
		db, err := sqldb.Open("")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(`CREATE TABLE RESULT_FILE (
			FILE_NAME VARCHAR(64) PRIMARY KEY, SIMULATION_KEY VARCHAR(30),
			TIMESTEP INTEGER, MEASUREMENT VARCHAR(10), FORMAT VARCHAR(10), SIZE_BYTES INTEGER)`); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if _, err := db.Exec(`INSERT INTO RESULT_FILE VALUES (?, ?, ?, ?, ?, ?)`,
				sqltypes.NewString(fmt.Sprintf("ts%04d.tsf", i)),
				sqltypes.NewString(fmt.Sprintf("S%03d", i%400)),
				sqltypes.NewInt(int64(i)),
				sqltypes.NewString("u"),
				sqltypes.NewString("TSF"),
				sqltypes.NewInt(int64(i*1024))); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := db.Exec(`CREATE INDEX idx_sim ON RESULT_FILE (SIMULATION_KEY)`); err != nil {
			b.Fatal(err)
		}
		return db
	}
	for _, cached := range []bool{false, true} {
		name := "cache=off"
		if cached {
			name = "cache=on"
		}
		b.Run(name, func(b *testing.B) {
			db := build()
			defer db.Close()
			args := uncached(sqltypes.NewString("S042"), sqltypes.NewInt(0), sqltypes.NewInt(2000))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				text := texts[0]
				if !cached {
					text = texts[i%len(texts)]
				}
				rows, err := db.Query(text, args()...)
				if err != nil || len(rows.Data) != 5 {
					b.Fatalf("rows=%v err=%v", rows, err)
				}
			}
		})
	}
}

// BenchmarkParallelQuery measures concurrent query throughput as a
// function of GOMAXPROCS. The read-only variant runs the same
// aggregate from every goroutine: MVCC snapshot reads share the
// engine's read lock, so ns/op should drop roughly linearly from
// procs=1 to procs=8 on real multi-core hardware (a single-core host
// reports flat numbers — see BENCH json notes). The mixed variant is a
// 90/10 read/write blend and is recorded, not gated: every write takes
// the engine's exclusive barrier for its execution and WAL staging, so
// readers queue behind it, though not behind its fsync.
func BenchmarkParallelQuery(b *testing.B) {
	build := func() *sqldb.DB {
		db, err := sqldb.Open("")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, sim VARCHAR(30), v DOUBLE)`); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, ?)`,
				sqltypes.NewInt(int64(i)),
				sqltypes.NewString(fmt.Sprintf("S%03d", i%100)),
				sqltypes.NewDouble(float64(i))); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	const query = `SELECT COUNT(*), AVG(v) FROM t WHERE sim = ?`
	const write = `UPDATE t SET v = v + 1 WHERE id = ?`
	arg := sqltypes.NewString("S042")
	procsList := []int{1, 2, 4, 8}

	atProcs := func(b *testing.B, procs int, body func(*testing.B, *sqldb.DB)) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		db := build()
		defer db.Close()
		b.ResetTimer()
		body(b, db)
	}

	for _, procs := range procsList {
		b.Run(fmt.Sprintf("read-only/procs=%d", procs), func(b *testing.B) {
			atProcs(b, procs, func(b *testing.B, db *sqldb.DB) {
				b.RunParallel(func(pb *testing.PB) {
					args := uncached(arg)
					for pb.Next() {
						if _, err := db.Query(query, args()...); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		})
	}
	for _, procs := range procsList {
		b.Run(fmt.Sprintf("mixed-90-10/procs=%d", procs), func(b *testing.B) {
			atProcs(b, procs, func(b *testing.B, db *sqldb.DB) {
				var seq atomic.Int64
				b.RunParallel(func(pb *testing.PB) {
					args := uncached(arg)
					for pb.Next() {
						n := seq.Add(1)
						if n%10 == 0 {
							if _, err := db.Exec(write, sqltypes.NewInt(n%2000)); err != nil {
								b.Fatal(err)
							}
							continue
						}
						if _, err := db.Query(query, args()...); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		})
	}
}

// BenchmarkAblation_Telemetry pins the cost of the telemetry layer on
// the query hot path. "untraced" is the default production
// configuration — metrics registered, tracing threshold zero — and is
// the number every other BenchmarkAblation_* implicitly includes;
// "traced" sets a threshold high enough that every statement collects
// a full EXPLAIN ANALYZE trace without ever hitting the slow log. The
// untraced/traced gap is the price of always-on tracing; the contract
// is that the untraced path stays within noise (<3%) of the
// pre-telemetry engine.
func BenchmarkAblation_Telemetry(b *testing.B) {
	build := func() *sqldb.DB {
		db, err := sqldb.Open("")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, sim VARCHAR(30), v DOUBLE)`); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, ?)`,
				sqltypes.NewInt(int64(i)),
				sqltypes.NewString(fmt.Sprintf("S%03d", i%100)),
				sqltypes.NewDouble(float64(i))); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	const query = `SELECT COUNT(*), AVG(v) FROM t WHERE sim = ?`
	arg := sqltypes.NewString("S042")

	for _, mode := range []struct {
		name      string
		threshold time.Duration
	}{
		{"untraced", 0},
		{"traced", time.Hour},
	} {
		b.Run(mode.name, func(b *testing.B) {
			db := build()
			defer db.Close()
			db.SetTraceThreshold(mode.threshold)
			args := uncached(arg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(query, args()...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Deadline measures what a context deadline costs on
// the hot scan path: "ungoverned" is a plain Query, whose context never
// fires; "governed" runs the same scan through QueryContext under a
// one-minute deadline, so the statement reads the deadline and the
// strided per-row interrupt poll has a live channel to select on. The
// contract is that the governed path stays within noise (<3%) of the
// ungoverned one; on a small host the run-to-run spread of either leg
// is far wider than that, so the figure can only be read from
// interleaved pairs of runs in one process (ROADMAP item 1).
func BenchmarkAblation_Deadline(b *testing.B) {
	build := func() *sqldb.DB {
		db, err := sqldb.Open("")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, sim VARCHAR(30), v DOUBLE)`); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, ?)`,
				sqltypes.NewInt(int64(i)),
				sqltypes.NewString(fmt.Sprintf("S%03d", i%100)),
				sqltypes.NewDouble(float64(i))); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	const query = `SELECT COUNT(*), AVG(v) FROM t WHERE sim = ?`
	arg := sqltypes.NewString("S042")

	b.Run("ungoverned", func(b *testing.B) {
		db := build()
		defer db.Close()
		args := uncached(arg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(query, args()...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("governed", func(b *testing.B) {
		db := build()
		defer db.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		args := uncached(arg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryContext(ctx, query, args()...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_QBECompile measures one QBE form search on the demo
// archive (8-point grid): compiling the form (a CONTAINS list, a range
// restriction and an ORDER BY) into SQL, running it and building the
// result set with its DATALINK column — the archive's search path from
// form to rows, without the page render.
func BenchmarkAblation_QBECompile(b *testing.B) {
	d, err := exp.BuildDemoArchive(b, 8)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	q := core.QBE{
		Table:  "RESULT_FILE",
		Select: []string{"FILE_NAME", "SIMULATION_KEY", "DOWNLOAD_RESULT"},
		Restrictions: []core.Restriction{
			{Column: "MEASUREMENT", Op: "CONTAINS", Value: "u,v"},
			{Column: "TIMESTEP", Op: ">=", Value: "0"},
		},
		OrderBy: "FILE_NAME",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := d.Archive.Search(q)
		if err != nil || len(rs.Rows) != 1 {
			b.Fatalf("rows=%d err=%v", len(rs.Rows), err)
		}
	}
}
