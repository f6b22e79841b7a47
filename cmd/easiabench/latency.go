package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/sqldb"
	"repro/internal/sqltypes"
	"repro/internal/telemetry"
)

// Latency mode: drive a representative archive query mix against an
// in-memory engine, recording every execution into per-query telemetry
// histograms, and emit the percentile series as JSON for bench.sh to
// fold into the BENCH_<date>.json record.

// latencySeries is one query's latency summary, in the BENCH json
// "latency" schema.
type latencySeries struct {
	Name   string `json:"name"`
	Count  uint64 `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P95Ns  int64  `json:"p95_ns"`
	P99Ns  int64  `json:"p99_ns"`
}

// latencyQueries is the measured mix: the QBE-shaped point lookup, a
// selective range scan, a grouped rollup and a top-k ordering — the
// archive's browse/aggregate staples.
var latencyQueries = []struct {
	name string
	sql  string
	args func(i int) []sqltypes.Value
}{
	{"point-lookup", `SELECT v FROM obs WHERE id = ?`,
		func(i int) []sqltypes.Value { return []sqltypes.Value{sqltypes.NewInt(int64(i % 10000))} }},
	{"range-agg", `SELECT COUNT(*), AVG(v) FROM obs WHERE id >= ? AND id < ?`,
		func(i int) []sqltypes.Value {
			lo := int64(i%90) * 100
			return []sqltypes.Value{sqltypes.NewInt(lo), sqltypes.NewInt(lo + 1000)}
		}},
	{"group-rollup", `SELECT sim, COUNT(*), AVG(v) FROM obs GROUP BY sim`,
		func(int) []sqltypes.Value { return nil }},
	{"top-k", `SELECT id, v FROM obs ORDER BY v DESC LIMIT 10`,
		func(int) []sqltypes.Value { return nil }},
}

// runLatency builds a 10k-row dataset, runs each query of the mix n
// times through telemetry histograms, and prints the series as a JSON
// array on stdout.
func runLatency(n int) error {
	db, err := sqldb.Open("")
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE obs (id INTEGER PRIMARY KEY, sim VARCHAR(30), v DOUBLE)`); err != nil {
		return err
	}
	for i := 0; i < 10000; i++ {
		if _, err := db.Exec(`INSERT INTO obs VALUES (?, ?, ?)`,
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("S%03d", i%100)),
			sqltypes.NewDouble(float64(i%997))); err != nil {
			return err
		}
	}

	reg := telemetry.New()
	out := make([]latencySeries, 0, len(latencyQueries))
	for _, q := range latencyQueries {
		h := reg.Histogram("easiabench_query_ns", "Per-query latency.", "query", q.name)
		st, err := db.Prepare(q.sql)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		for i := 0; i < n; i++ {
			start := time.Now()
			rows, err := st.Query(q.args(i)...)
			if err != nil {
				return fmt.Errorf("%s: %w", q.name, err)
			}
			rows.Close()
			h.ObserveSince(start)
		}
		s := h.Snapshot()
		out = append(out, latencySeries{
			Name:   q.name,
			Count:  s.Count,
			MeanNs: s.Mean(),
			P50Ns:  s.P50,
			P95Ns:  s.P95,
			P99Ns:  s.P99,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
