package netsim

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestFaultsPartitionAndHeal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	f := NewFaults()
	hc := f.Client()

	if _, err := hc.Get(srv.URL); err != nil {
		t.Fatalf("healthy request: %v", err)
	}
	f.Partition(host)
	_, err := hc.Get(srv.URL)
	if err == nil {
		t.Fatal("request crossed a partition")
	}
	var pe *PartitionError
	if !errors.As(err, &pe) || pe.Host != host {
		t.Fatalf("err = %v, want PartitionError for %s", err, host)
	}
	f.Heal(host)
	if _, err := hc.Get(srv.URL); err != nil {
		t.Fatalf("request after heal: %v", err)
	}
}
