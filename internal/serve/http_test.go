package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// doJSON issues a request against the test server and decodes the JSON
// response into out (skipped when out is nil), returning the status.
func doJSON(t *testing.T, client *http.Client, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPAPI(t *testing.T) {
	g, _ := buildGraph(t, 96)
	s := newServer(t, 256<<20, g)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	// Graphs and health up front.
	var graphs []GraphInfo
	if code := doJSON(t, c, "GET", ts.URL+"/graphs", nil, &graphs); code != 200 {
		t.Fatalf("GET /graphs = %d", code)
	}
	if len(graphs) != 1 || graphs[0].Name != "main" || graphs[0].AdjacencyHot {
		t.Fatalf("graphs = %+v", graphs)
	}
	if resp, err := c.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v", err)
	}

	// Submit BFS, poll to done.
	var st JobStatus
	if code := doJSON(t, c, "POST", ts.URL+"/jobs",
		SubmitRequest{Graph: "main", Algo: "bfs", Budget: 8 << 20}, &st); code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	if st.ID == "" {
		t.Fatal("no job ID")
	}
	deadline := time.Now().Add(10 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		doJSON(t, c, "GET", ts.URL+"/jobs/"+st.ID, nil, &st)
	}
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}

	// Result views: top, single vertex, full vector.
	var res JobResult
	if code := doJSON(t, c, "GET", ts.URL+"/jobs/"+st.ID+"/result?top=3", nil, &res); code != 200 {
		t.Fatalf("result = %d", code)
	}
	if len(res.Top) != 3 {
		t.Fatalf("top = %+v", res.Top)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/jobs/"+st.ID+"/result?vertex="+
		u32s(res.Top[0].Vertex), nil, &res); code != 200 || res.Vertex == nil {
		t.Fatalf("vertex query failed: %d %+v", code, res)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/jobs/"+st.ID+"/result?all=1", nil, &res); code != 200 {
		t.Fatalf("all = %d", code)
	}
	if len(res.All) != graphs[0].Vertices {
		t.Fatalf("all returned %d values, graph has %d vertices", len(res.All), graphs[0].Vertices)
	}

	// RunReport over the API.
	var report map[string]any
	if code := doJSON(t, c, "GET", ts.URL+"/jobs/"+st.ID+"/report", nil, &report); code != 200 {
		t.Fatalf("report = %d", code)
	}
	if report["engine"] != "graphz-serve" || report["schema"] == nil {
		t.Fatalf("report engine = %v, schema = %v", report["engine"], report["schema"])
	}

	// Job list, stats, metrics.
	var jobs []JobStatus
	doJSON(t, c, "GET", ts.URL+"/jobs", nil, &jobs)
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("jobs = %+v", jobs)
	}
	var stats Stats
	doJSON(t, c, "GET", ts.URL+"/stats", nil, &stats)
	if stats.Graphs != 1 || stats.JobsTotal != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"graphz_serve_jobs_running",
		"graphz_serve_budget_total_bytes",
		`graphz_serve_jobs_finished_total{state="done"} 1`,
		`job="` + st.ID + `"`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Error mapping: 404, 400, invalid JSON.
	var eb errBody
	if code := doJSON(t, c, "GET", ts.URL+"/jobs/job-999999", nil, &eb); code != 404 {
		t.Errorf("unknown job = %d", code)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/jobs",
		SubmitRequest{Graph: "main", Algo: "nope"}, &eb); code != 400 {
		t.Errorf("bad algo = %d", code)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/jobs/"+st.ID+"/result?top=-1", nil, &eb); code != 400 {
		t.Errorf("bad top = %d", code)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/jobs", strings.NewReader("{nope"))
	r2, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != 400 {
		t.Errorf("invalid JSON = %d", r2.StatusCode)
	}

	// Cancel over HTTP: terminal job → no-op with final state.
	var cst JobStatus
	if code := doJSON(t, c, "DELETE", ts.URL+"/jobs/"+st.ID, nil, &cst); code != 200 || cst.State != StateDone {
		t.Errorf("cancel terminal job: %d %+v", code, cst)
	}
}

func u32s(v uint32) string { return strconv.FormatUint(uint64(v), 10) }

// TestHTTPSubmitBodyTooLarge: a POST /jobs body past maxSubmitBytes is
// refused with 413 before any job exists. The body is a valid job plus
// padding, so without the cap it would be admitted.
func TestHTTPSubmitBodyTooLarge(t *testing.T) {
	g, _ := buildGraph(t, 97)
	s := newServer(t, 256<<20, g)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	statsBefore, jobsBefore := s.Stats(), s.Jobs()
	body := `{"graph":"main","algo":"bfs","budget":8388608,"pad":"` +
		strings.Repeat("a", maxSubmitBytes) + `"}`
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb errBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d (%s), want 413", resp.StatusCode, eb.Error)
	}
	if got := s.Stats(); got != statsBefore {
		t.Errorf("stats changed: %+v -> %+v", statsBefore, got)
	}
	if got := s.Jobs(); !reflect.DeepEqual(got, jobsBefore) {
		t.Errorf("jobs changed: %+v -> %+v", jobsBefore, got)
	}
}
