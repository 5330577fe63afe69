package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"glitchsim"
)

// corruptTruncated truncates a persisted upload document mid-JSON.
func corruptTruncated(t *testing.T, dir, fp string) {
	t.Helper()
	path := filepath.Join(dir, fp+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

func postMeasure(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBudgetExceeded422: a measurement that trips its event budget
// answers 422 with code "budget_exceeded" and the trip accounting in
// detail.
func TestBudgetExceeded422(t *testing.T) {
	ts := newTestServer(t)
	resp := postMeasure(t, ts, `{"circuit":"array16","cycles":500,"budget_events":512}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	e := decodeBody[ErrorResponse](t, resp)
	if e.Code != CodeBudgetExceeded {
		t.Fatalf("code %q, want %q (error: %s)", e.Code, CodeBudgetExceeded, e.Error)
	}
	if e.Detail["resource"] != "events" {
		t.Errorf("detail resource = %v, want events", e.Detail["resource"])
	}
	for _, k := range []string{"limit", "used", "cycles_completed"} {
		if _, ok := e.Detail[k]; !ok {
			t.Errorf("detail missing %q: %v", k, e.Detail)
		}
	}
}

// TestBudgetWireParams: budgets arrive via query strings too, and a
// wall-clock budget trips with resource "wall_clock".
func TestBudgetWireParams(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/measure?circuit=array16&cycles=500&budget_events=512")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("query budget: status %d, want 422", resp.StatusCode)
	}
	if e := decodeBody[ErrorResponse](t, resp); e.Code != CodeBudgetExceeded {
		t.Fatalf("query budget: code %q", e.Code)
	}
}

// TestOscillation422: a delay model whose single hop exceeds the settle
// guard answers 422 "oscillation" naming the hot nets.
func TestOscillation422(t *testing.T) {
	ts := newTestServer(t)
	resp := postMeasure(t, ts, `{"circuit":"rca8","cycles":4,"dsum":70000,"dcarry":70000}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	e := decodeBody[ErrorResponse](t, resp)
	if e.Code != CodeOscillation {
		t.Fatalf("code %q, want %q (error: %s)", e.Code, CodeOscillation, e.Error)
	}
	nets, ok := e.Detail["nets"].([]any)
	if !ok || len(nets) == 0 {
		t.Errorf("detail nets = %v, want non-empty list", e.Detail["nets"])
	}
	if _, ok := e.Detail["guard"]; !ok {
		t.Errorf("detail missing guard: %v", e.Detail)
	}
}

// TestDefaultBudget: WithDefaultBudget backstops requests that carry no
// budget; a request budget replaces the default.
func TestDefaultBudget(t *testing.T) {
	ts := httptest.NewServer(New(glitchsim.NewEngine(),
		WithDefaultBudget(glitchsim.Budget{Events: 512})))
	t.Cleanup(ts.Close)

	resp := postMeasure(t, ts, `{"circuit":"array16","cycles":500}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("default budget: status %d, want 422", resp.StatusCode)
	}
	if e := decodeBody[ErrorResponse](t, resp); e.Code != CodeBudgetExceeded {
		t.Fatalf("default budget: code %q", e.Code)
	}

	resp = postMeasure(t, ts, `{"circuit":"array16","cycles":500,"budget_events":100000000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request budget override: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestCostExceeded422: admission control rejects a request whose
// estimated cost exceeds the configured ceiling, before simulating
// anything; cheaper requests on the same server pass.
func TestCostExceeded422(t *testing.T) {
	ts := httptest.NewServer(New(glitchsim.NewEngine(),
		WithLimits(Limits{MaxEstimatedEvents: 50_000})))
	t.Cleanup(ts.Close)

	resp := postMeasure(t, ts, `{"circuit":"array16","cycles":100000}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	e := decodeBody[ErrorResponse](t, resp)
	if e.Code != CodeCostExceeded {
		t.Fatalf("code %q, want %q (error: %s)", e.Code, CodeCostExceeded, e.Error)
	}
	if _, ok := e.Detail["estimated_events"]; !ok {
		t.Errorf("detail missing estimated_events: %v", e.Detail)
	}

	resp = postMeasure(t, ts, `{"circuit":"rca8","cycles":50}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cheap request: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestOverloadShed429: with every engine slot busy, requests above the
// shed threshold answer 429 "overloaded" instead of queueing; once the
// engine frees up the same request runs.
func TestOverloadShed429(t *testing.T) {
	engine := glitchsim.NewEngine(glitchsim.WithMaxConcurrency(1))
	ts := httptest.NewServer(New(engine,
		WithLimits(Limits{ShedEstimatedEvents: 10_000})))
	t.Cleanup(ts.Close)

	// Saturate the single engine slot with a long-running measurement,
	// cancelled when the test is done.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/measure",
			strings.NewReader(`{"circuit":"array16","cycles":50000000}`))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	t.Cleanup(func() { cancel(); <-done })

	deadline := time.Now().Add(10 * time.Second)
	for {
		var h healthzResponse
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		h = decodeBody[healthzResponse](t, resp)
		if h.Engine.Capacity != 1 {
			t.Fatalf("engine capacity %d, want 1", h.Engine.Capacity)
		}
		if h.Engine.Active == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("engine never saturated")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp := postMeasure(t, ts, `{"circuit":"array16","cycles":100000}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("saturated: missing Retry-After")
	}
	if e := decodeBody[ErrorResponse](t, resp); e.Code != CodeOverloaded {
		t.Fatalf("saturated: code %q, want %q", e.Code, CodeOverloaded)
	}

	cancel()
	<-done
	// The slot frees asynchronously with the cancelled request; the same
	// expensive request must eventually be admitted again.
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp := postMeasure(t, ts, `{"circuit":"array16","cycles":100000,"budget_wall_ms":30000}`)
		if resp.StatusCode == http.StatusOK {
			resp.Body.Close()
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("engine never freed (last status %d)", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDurableUploadsSurviveRestart: an upload persisted with
// WithUploadDir resolves — by fingerprint, by name, and in the
// catalogue — on a fresh server over the same directory.
func TestDurableUploadsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	src, nl := verilogSource(t, "rca8")
	fp := nl.Fingerprint()

	ts1 := httptest.NewServer(New(glitchsim.NewEngine(), WithUploadDir(dir)))
	resp := uploadEnvelope(t, ts1, "verilog", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	info := decodeBody[CircuitInfo](t, resp)
	if info.Fingerprint != fp {
		t.Fatalf("upload fingerprint %s, want %s", info.Fingerprint, fp)
	}
	ts1.Close()

	// "Restart": a brand-new server (fresh engine, empty LRU) over the
	// same directory.
	ts2 := httptest.NewServer(New(glitchsim.NewEngine(), WithUploadDir(dir)))
	t.Cleanup(ts2.Close)

	var listed CircuitsResponse
	{
		resp, err := http.Get(ts2.URL + "/v1/circuits")
		if err != nil {
			t.Fatal(err)
		}
		listed = decodeBody[CircuitsResponse](t, resp)
	}
	found := false
	for _, u := range listed.Uploads {
		if u.Fingerprint == fp {
			found = true
		}
	}
	if !found {
		t.Fatalf("restarted catalogue lacks persisted upload %s: %+v", fp, listed.Uploads)
	}

	for _, ref := range []string{fp, "rca8"} {
		resp := postMeasure(t, ts2, fmt.Sprintf(`{"circuit":%q,"cycles":50,"seed":3}`, ref))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("measure by %q after restart: status %d", ref, resp.StatusCode)
		}
		got := decodeBody[MeasureResponse](t, resp)
		if got.Activity.Transitions == 0 {
			t.Errorf("measure by %q after restart: zero transitions", ref)
		}
	}
}

// TestDurableUploadsSkipCorrupt: torn and tampered documents in the
// upload directory are skipped at scan or dropped at load — never
// served.
func TestDurableUploadsSkipCorrupt(t *testing.T) {
	dir := t.TempDir()
	src, nl := verilogSource(t, "rca4")
	fp := nl.Fingerprint()

	ts1 := httptest.NewServer(New(glitchsim.NewEngine(), WithUploadDir(dir)))
	resp := uploadEnvelope(t, ts1, "verilog", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	resp.Body.Close()
	ts1.Close()

	// Truncate the document mid-JSON, as a crash mid-write (without the
	// atomic rename) would have.
	corruptTruncated(t, dir, fp)

	ts2 := httptest.NewServer(New(glitchsim.NewEngine(), WithUploadDir(dir)))
	t.Cleanup(ts2.Close)
	r := postMeasure(t, ts2, fmt.Sprintf(`{"circuit":%q,"cycles":10}`, fp))
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupt upload resolved: status %d, want 404", r.StatusCode)
	}
	if e := decodeBody[ErrorResponse](t, r); e.Code != CodeUnknownCircuit {
		t.Fatalf("corrupt upload: code %q, want %q", e.Code, CodeUnknownCircuit)
	}
}

// TestDurableUploadSaveFailureIs500: when the upload directory becomes
// unusable after the server opened it, an upload cannot be persisted
// and the client is told so (500 internal) instead of a 200 that
// promises durability. Replacing the directory with a regular file
// breaks the write even when the test runs as root.
func TestDurableUploadSaveFailureIs500(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "uploads")
	ts := httptest.NewServer(New(glitchsim.NewEngine(), WithUploadDir(dir)))
	t.Cleanup(ts.Close)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	src, _ := verilogSource(t, "rca4")
	resp := uploadEnvelope(t, ts, "verilog", src)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("upload into unusable dir: status %d, want 500", resp.StatusCode)
	}
	if e := decodeBody[ErrorResponse](t, resp); e.Code != CodeInternal {
		t.Fatalf("upload into unusable dir: code %q, want %q", e.Code, CodeInternal)
	}
}

// TestErrorCodes: the stable code field on the pre-existing failure
// paths.
func TestErrorCodes(t *testing.T) {
	ts := newTestServer(t)
	check := func(resp *http.Response, status int, code string) {
		t.Helper()
		if resp.StatusCode != status {
			t.Fatalf("status %d, want %d", resp.StatusCode, status)
		}
		if e := decodeBody[ErrorResponse](t, resp); e.Code != code {
			t.Errorf("code %q, want %q (error: %s)", e.Code, code, e.Error)
		}
	}

	check(postMeasure(t, ts, `{"circuit":"nonesuch"}`), http.StatusNotFound, CodeUnknownCircuit)
	check(postMeasure(t, ts, `{"circuit":`), http.StatusBadRequest, CodeBadRequest)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/measure", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusMethodNotAllowed, CodeMethodNotAllowed)

	resp, err = http.Get(ts.URL + "/v1/jobs/nonesuch")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusNotFound, CodeUnknownJob)

	// An upload past the 4 MiB bound is 413 payload_too_large.
	big := strings.Repeat("x", maxUploadBytes+1)
	resp, err = http.Post(ts.URL+"/v1/circuits?format=json", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusRequestEntityTooLarge, CodePayloadTooLarge)
}
