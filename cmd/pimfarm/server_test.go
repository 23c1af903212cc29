package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/store"
)

func newTestServer(t *testing.T) (*httptest.Server, *farm.Farm) {
	t.Helper()
	f := farm.New(farm.Config{Workers: 2, QueueDepth: 16})
	ts := httptest.NewServer(newServer(f, nil))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Error(err)
		}
	})
	return ts, f
}

func postJob(t *testing.T, ts *httptest.Server, body string) (jobResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
	}
	return jr, resp.StatusCode
}

func pollJob(t *testing.T, ts *httptest.Server, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr jobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if jr.State == "done" || jr.State == "failed" || jr.State == "canceled" {
			return jr
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return jobResponse{}
}

// TestAPIRoundTrip is the submit → poll → metrics/v1 contract: a render
// job submitted as JSON options completes and returns a parsable
// pim-render/metrics/v1 snapshot as its result body.
func TestAPIRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)

	jr, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"baseline"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", code)
	}
	if jr.ID == "" {
		t.Fatal("no job id in response")
	}
	if jr.Request == nil || jr.Request.Game != "doom3" {
		t.Fatalf("request not echoed: %+v", jr.Request)
	}

	final := pollJob(t, ts, jr.ID)
	if final.State != "done" {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if final.Result == nil {
		t.Fatal("done job has no result body")
	}
	if final.Result.Schema != obs.SchemaVersion {
		t.Fatalf("result schema = %q, want %q", final.Result.Schema, obs.SchemaVersion)
	}
	if final.Result.Cycles <= 0 {
		t.Fatal("result reports zero cycles")
	}
	if final.Result.Workload != "doom3-320x240" {
		t.Fatalf("result workload = %q", final.Result.Workload)
	}

	// An identical submission is served from the result cache.
	jr2, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"baseline"}`)
	if code != http.StatusAccepted {
		t.Fatalf("duplicate POST status = %d", code)
	}
	dup := pollJob(t, ts, jr2.ID)
	if dup.State != "done" {
		t.Fatalf("duplicate state = %s", dup.State)
	}
	if !dup.CacheHit && !dup.Deduped {
		t.Fatal("duplicate submission was fully re-simulated (no cache hit or dedup)")
	}

	// Listing shows both jobs.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []farm.View `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(list.Jobs))
	}
}

func TestHealthAndVarz(t *testing.T) {
	ts, f := newTestServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	var c farm.Counters
	err = json.NewDecoder(resp.Body).Decode(&c)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers != f.Workers() || c.QueueDepth != 16 {
		t.Fatalf("varz counters: %+v", c)
	}
}

func TestAPIBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"unknown game", `{"game":"quake","width":320,"height":240,"design":"baseline"}`},
		{"unknown design", `{"game":"doom3","width":320,"height":240,"design":"warp"}`},
		{"invalid combo", `{"game":"doom3","width":320,"height":240,"design":"atfim","compressed":true}`},
		{"bad json", `{"game":`},
		{"unknown field", `{"game":"doom3","width":320,"height":240,"design":"baseline","bogus":1}`},
	}
	for _, tc := range cases {
		if _, code := postJob(t, ts, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, code)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestAPIRejectsBadResolution: a width or height outside [1, 4096] used to
// reach the simulator, where a negative size panicked in makeslice and
// killed the server. It must be a 400, and the server must keep serving.
func TestAPIRejectsBadResolution(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, body := range []string{
		`{"game":"doom3","width":-8,"height":16,"design":"atfim"}`,
		`{"game":"doom3","width":0,"height":0,"design":"atfim"}`,
		`{"game":"doom3","width":5000,"height":16,"design":"baseline"}`,
	} {
		for _, path := range []string{"/v1/jobs", "/v1/jobs?wait=true"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("POST %s %s: %v", path, body, err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s %s = %d, want 400", path, body, resp.StatusCode)
			}
			decodeErrorBody(t, resp)
		}
	}
	jr, code := postJob(t, ts, `{"game":"doom3","width":16,"height":16,"design":"atfim"}`)
	if code != http.StatusAccepted {
		t.Fatalf("valid job after rejects = %d, want 202", code)
	}
	if got := pollJob(t, ts, jr.ID); got.State != "done" {
		t.Fatalf("valid job after rejects ended %q", got.State)
	}
}

// decodeErrorBody asserts resp carries a JSON error object with the right
// Content-Type and returns its message.
func decodeErrorBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if body.Error == "" {
		t.Error("error body has empty message")
	}
	return body.Error
}

// TestAPIJSONErrors pins the error contract: malformed bodies, unknown job
// IDs, wrong verbs and unknown paths all answer JSON bodies with
// Content-Type: application/json and the proper status code.
func TestAPIJSONErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	client := ts.Client()

	do := func(method, path, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	t.Run("malformed body is 400 JSON", func(t *testing.T) {
		resp := do("POST", "/v1/jobs", `{"game":`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if msg := decodeErrorBody(t, resp); !strings.Contains(msg, "bad request body") {
			t.Errorf("message %q does not mention the body", msg)
		}
	})
	t.Run("unknown job id is 404 JSON", func(t *testing.T) {
		resp := do("GET", "/v1/jobs/job-999999", "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		if msg := decodeErrorBody(t, resp); !strings.Contains(msg, "job-999999") {
			t.Errorf("message %q does not name the job", msg)
		}
	})
	t.Run("wrong verb is 405 JSON with Allow", func(t *testing.T) {
		for path, allow := range map[string]string{
			"/v1/jobs":            "GET, POST",
			"/v1/jobs/job-000001": "GET, DELETE",
			"/v1/experiments":     "GET",
			"/varz":               "GET",
			"/healthz":            "GET",
		} {
			resp := do("PUT", path, "")
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("PUT %s status = %d, want 405", path, resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != allow {
				t.Errorf("PUT %s Allow = %q, want %q", path, got, allow)
			}
			decodeErrorBody(t, resp)
		}
	})
	t.Run("unknown path is 404 JSON", func(t *testing.T) {
		resp := do("GET", "/v2/nope", "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		if msg := decodeErrorBody(t, resp); !strings.Contains(msg, "/v2/nope") {
			t.Errorf("message %q does not name the path", msg)
		}
	})
}

// TestStoreSurvivesRestart is the persistence contract end to end: a job
// simulated by one farm is served from the durable store by a fresh farm
// pointed at the same directory — no re-simulation after a restart.
func TestStoreSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	dir := t.TempDir()
	body := `{"game":"doom3","width":320,"height":240,"design":"baseline"}`

	runOnce := func() (jobResponse, farm.Counters) {
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		f := farm.New(farm.Config{Workers: 2, QueueDepth: 16, Tier: core.StoreTier(st)})
		ts := httptest.NewServer(newServer(f, st))
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := f.Close(ctx); err != nil {
				t.Error(err)
			}
		}()
		jr, code := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("POST status = %d", code)
		}
		final := pollJob(t, ts, jr.ID)
		if final.State != "done" {
			t.Fatalf("state = %s (%s)", final.State, final.Error)
		}
		return final, f.Counters()
	}

	cold, c1 := runOnce()
	if c1.TierHits != 0 || c1.TierPuts != 1 {
		t.Fatalf("cold run: tier_hits=%d tier_puts=%d, want 0/1", c1.TierHits, c1.TierPuts)
	}

	// Simulate a restart: new farm, new memory caches, same store dir.
	core.ClearRunCache()
	warm, c2 := runOnce()
	if c2.TierHits != 1 {
		t.Fatalf("warm run: tier_hits=%d, want 1 (job was re-simulated)", c2.TierHits)
	}
	if !warm.TierHit {
		t.Error("warm job view does not report tier_hit")
	}
	if warm.Result == nil || cold.Result == nil {
		t.Fatal("missing result bodies")
	}
	coldJSON, _ := json.Marshal(cold.Result)
	warmJSON, _ := json.Marshal(warm.Result)
	if string(coldJSON) != string(warmJSON) {
		t.Error("restored result's metrics differ from the original run")
	}
}

// TestExperimentsEndpoint pins GET /v1/experiments to the registry's
// presentation order.
func TestExperimentsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Experiments []string `json:"experiments"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := repro.Registry().Names()
	if len(body.Experiments) != len(want) {
		t.Fatalf("listed %d experiments, want %d", len(body.Experiments), len(want))
	}
	for i := range want {
		if body.Experiments[i] != want[i] {
			t.Fatalf("experiments[%d] = %q, want %q", i, body.Experiments[i], want[i])
		}
	}
}

// TestJobCancel is the DELETE /v1/jobs/{id} contract: a queued job cancels
// (200 with the canceled view), a second DELETE answers 409, and an unknown
// id 404.
func TestJobCancel(t *testing.T) {
	// One worker: the first job occupies it, so the second stays queued
	// and its cancellation is deterministic.
	f := farm.New(farm.Config{Workers: 1, QueueDepth: 16})
	ts := httptest.NewServer(newServer(f, nil))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Error(err)
		}
	})

	blocker, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"baseline"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}
	queued, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"bpim"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}

	del := func(id string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := del(queued.ID)
	var jr jobResponse
	err := json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d, want 200", resp.StatusCode)
	}
	if jr.State != "canceled" {
		t.Fatalf("canceled job state = %q", jr.State)
	}

	resp = del(queued.ID)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE status = %d, want 409", resp.StatusCode)
	}
	decodeErrorBody(t, resp)

	resp = del("job-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown status = %d, want 404", resp.StatusCode)
	}
	decodeErrorBody(t, resp)

	if final := pollJob(t, ts, blocker.ID); final.State != "done" {
		t.Fatalf("blocker state = %s (%s), want done", final.State, final.Error)
	}
}

// TestSubmitWaitAndDisconnect covers ?wait=true: a live client gets the
// finished job inline, and a client that hangs up while waiting cancels
// the abandoned job so the farm records it canceled.
func TestSubmitWaitAndDisconnect(t *testing.T) {
	f := farm.New(farm.Config{Workers: 1, QueueDepth: 16})
	ts := httptest.NewServer(newServer(f, nil))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Error(err)
		}
	})

	// Occupy the single worker so the waited-on job stays queued until
	// the client has provably gone away.
	blocker, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"baseline"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}

	reqCtx, hangUp := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, ts.URL+"/v1/jobs?wait=true",
		strings.NewReader(`{"game":"doom3","width":320,"height":240,"design":"stfim"}`))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the submit land and start waiting
	hangUp()
	if err := <-errCh; err == nil {
		t.Fatal("hung-up request reported no error")
	}

	// The abandoned job must end canceled (it never got a worker).
	deadline := time.Now().Add(time.Minute)
	for {
		var canceled bool
		for _, j := range f.Jobs() {
			if j.State() == farm.Canceled {
				canceled = true
			}
		}
		if canceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned job never became canceled")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if final := pollJob(t, ts, blocker.ID); final.State != "done" {
		t.Fatalf("blocker state = %s (%s), want done", final.State, final.Error)
	}

	// A live waited-on submission returns the finished job inline (the
	// blocker's cell is cached now, so this is immediate).
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=true", "application/json",
		strings.NewReader(`{"game":"doom3","width":320,"height":240,"design":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	var jr jobResponse
	err = json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait=true status = %d, want 200", resp.StatusCode)
	}
	if jr.State != "done" || jr.Result == nil {
		t.Fatalf("wait=true job state = %q (result %v), want done with result", jr.State, jr.Result != nil)
	}
}

func TestParseDesign(t *testing.T) {
	for in, wantErr := range map[string]bool{
		"baseline": false, "bpim": false, "B-PIM": false, "stfim": false,
		"atfim": false, "A-TFIM": false, "": false, "gddr7": true,
	} {
		if _, err := repro.ParseDesign(in); (err != nil) != wantErr {
			t.Errorf("ParseDesign(%q) err = %v, wantErr %v", in, err, wantErr)
		}
	}
	// Sanity: label formatting used in Submit.
	if got := fmt.Sprintf("%s@%dx%d", "doom3", 320, 240); got != "doom3@320x240" {
		t.Fatal(got)
	}
}
