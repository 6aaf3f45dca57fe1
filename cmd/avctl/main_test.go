package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPartitionsRendersTable(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/partitions" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `{"map_version":1,"partitions":4,"rf":2,"sites":[0,1,2],
			"route_forwarded":5,"route_served":3,"route_misroutes":0,"route_map_refreshes":1,
			"hosted":[{"partition":2,"owner":0,"replicas":[0,1],"keys":7,"av_keys":7,
			"av_avail":900,"av_held":10,"stock":2800}]}`)
	}))
	defer srv.Close()

	old := os.Stdout
	r, w, _ := os.Pipe()
	os.Stdout = w
	code := partitions(strings.TrimPrefix(srv.URL, "http://"), time.Second)
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)

	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, want := range []string{
		"map v1: 4 partitions, rf 2, sites [0 1 2]",
		"forwarded 5, served 3, misroutes 0, map refreshes 1",
		"0,1",
		"2800",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
