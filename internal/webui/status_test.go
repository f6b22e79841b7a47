package webui

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// fakeCluster wraps a plain FileHost with the replica-set health
// surface core.HostStatuses looks for.
type fakeCluster struct {
	core.FileHost
	host  string
	down  []string
	under []string
}

func (f fakeCluster) Host() string              { return f.host }
func (f fakeCluster) Members() []string         { return []string{"r0.sim:80", "r1.sim:80", "r2.sim:80"} }
func (f fakeCluster) Down() []string            { return f.down }
func (f fakeCluster) UnderReplicated() []string { return f.under }

// TestStatusPage: /status surfaces the cluster's Down() and
// UnderReplicated() state per registered host (ROADMAP item from the
// replicated-tier PR) and is login-gated like every other page.
func TestStatusPage(t *testing.T) {
	ts := newSite(t)

	// Unauthenticated requests bounce to login.
	code, _ := ts.get(t, "/status")
	if code != 200 { // redirect to "/" renders the login page
		t.Fatalf("status (anon) code %d", code)
	}

	ts.login(t, "guest", "guest")
	code, body := ts.get(t, "/status")
	if code != 200 {
		t.Fatalf("status code %d", code)
	}
	// The plain single-manager host shows up without replica info.
	if !strings.Contains(body, "fs1.sim:80") || !strings.Contains(body, "single manager") {
		t.Fatalf("single-manager host missing from status page:\n%s", body)
	}

	// Attach a degraded replicated host and check its health renders.
	base, _ := ts.archive.Host("fs1.sim:80")
	ts.archive.AttachFileServer(fakeCluster{
		FileHost: base,
		host:     "cluster.sim:80",
		down:     []string{"r1.sim:80"},
		under:    []string{"/vol0/run1/ts4.tsf"},
	})
	_, body = ts.get(t, "/status")
	for _, want := range []string{
		"cluster.sim:80",
		"r0.sim:80, r1.sim:80, r2.sim:80", // members
		"r1.sim:80",                       // down
		"/vol0/run1/ts4.tsf",              // under-replicated path
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("status page missing %q:\n%s", want, body)
		}
	}

	// The engine telemetry headlines render above the host tables
	// (queries against the seeded archive guarantee non-zero counters),
	// the result cache's with its bytes against the cap and its declines.
	if !strings.Contains(body, "Archive engine") ||
		!strings.Contains(body, "Committed transactions") ||
		!strings.Contains(body, "Plan-cache hit rate") ||
		!strings.Contains(body, "Result-cache hit rate") ||
		!strings.Contains(body, " of 524288 bytes held; fills declined: ") {
		t.Fatalf("status page missing engine telemetry summary:\n%s", body)
	}
}

// TestMetricsEndpoint: /metrics serves the full Prometheus exposition —
// login-gated like every other page — and carries the engine families
// the acceptance list names (WAL fsync histogram, dead-row gauge,
// plan-cache hit counter).
func TestMetricsEndpoint(t *testing.T) {
	ts := newSite(t)

	// Unauthenticated scrape bounces to the login page, not the data.
	_, body := ts.get(t, "/metrics")
	if strings.Contains(body, "sqldb_commits_total") {
		t.Fatalf("anonymous /metrics leaked telemetry:\n%s", body)
	}

	ts.login(t, "guest", "guest")
	resp, err := ts.client.Get(ts.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != telemetry.ContentType {
		t.Fatalf("Content-Type = %q, want %q", got, telemetry.ContentType)
	}
	code, body := ts.get(t, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics code %d", code)
	}
	for _, want := range []string{
		"# TYPE sqldb_wal_fsync_ns histogram",
		"# TYPE sqldb_dead_rows gauge",
		"# TYPE sqldb_plan_cache_hits_total counter",
		"sqldb_commits_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}
