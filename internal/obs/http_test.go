package obs

import (
	"io"
	"net/http"
	"testing"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestServeEndpoints(t *testing.T) {
	status := func() Status {
		return Status{Schema: SchemaStatus, Experiment: "fig8", JobsDone: 3, JobsTotal: 8}
	}
	runs := func() RunsFile {
		return RunsFile{Schema: SchemaRuns, Runs: []RunReport{validRun()}}
	}
	srv, err := Serve("127.0.0.1:0", status, runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	for _, path := range []string{"/obs", "/"} {
		code, body := get(t, base+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, code)
		}
		if schema, err := ValidateReport(body); err != nil || schema != SchemaStatus {
			t.Errorf("GET %s: schema %q, err %v", path, schema, err)
		}
	}

	code, body := get(t, base+"/obs/runs")
	if code != http.StatusOK {
		t.Fatalf("GET /obs/runs: %d", code)
	}
	if schema, err := ValidateReport(body); err != nil || schema != SchemaRuns {
		t.Errorf("GET /obs/runs: schema %q, err %v", schema, err)
	}

	if code, _ := get(t, base+"/debug/vars"); code != http.StatusOK {
		t.Errorf("GET /debug/vars: %d", code)
	}
	if code, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("GET /debug/pprof/: %d", code)
	}
	if code, _ := get(t, base+"/nonsense"); code != http.StatusNotFound {
		t.Errorf("GET /nonsense: %d, want 404", code)
	}
}

// TestServeWithoutRuns checks the runs endpoint is absent when no supplier
// is wired, and that a second server in the same process is fine.
func TestServeWithoutRuns(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func() Status { return Status{Schema: SchemaStatus} }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := get(t, "http://"+srv.Addr()+"/obs/runs"); code != http.StatusNotFound {
		t.Errorf("GET /obs/runs without supplier: %d, want 404", code)
	}
}
