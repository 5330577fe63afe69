package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"glitchsim"
	"glitchsim/internal/jobs"
	"glitchsim/internal/registry"
	"glitchsim/netlist"
	"glitchsim/verilog"
)

// verilogSource renders a registry circuit as Verilog for upload tests.
func verilogSource(t *testing.T, name string) (string, *netlist.Netlist) {
	t.Helper()
	n, err := registry.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := verilog.Write(&sb, n); err != nil {
		t.Fatal(err)
	}
	return sb.String(), n
}

func uploadEnvelope(t *testing.T, ts *httptest.Server, format, source string) *http.Response {
	t.Helper()
	body, err := json.Marshal(UploadRequest{Format: format, Source: source})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/circuits", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServiceCircuitUpload: a Verilog upload returns a fingerprint-
// addressed handle with circuit statistics, and measuring by that
// fingerprint is bit-identical to measuring the built-in by name —
// through the same compiled-netlist cache entry.
func TestServiceCircuitUpload(t *testing.T) {
	engine := glitchsim.NewEngine()
	ts := httptest.NewServer(New(engine))
	t.Cleanup(ts.Close)

	src, nl := verilogSource(t, "rca8")
	resp := uploadEnvelope(t, ts, "verilog", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	info := decodeBody[CircuitInfo](t, resp)
	if info.Fingerprint != nl.Fingerprint() {
		t.Fatalf("upload fingerprint %s, want %s (metadata round trip broken?)", info.Fingerprint, nl.Fingerprint())
	}
	if info.Name != "rca8" || info.Cells != nl.NumCells() || info.Nets != nl.NumNets() ||
		info.Inputs != nl.InputWidth() || info.Outputs != nl.OutputWidth() || info.Depth <= 0 {
		t.Errorf("upload stats %+v do not match circuit", info)
	}

	measure := func(circuit string) ActivityDTO {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/measure", "application/json",
			strings.NewReader(fmt.Sprintf(`{"circuit":%q,"cycles":50,"seed":3}`, circuit)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("measure %s: status %d", circuit, resp.StatusCode)
		}
		return decodeBody[MeasureResponse](t, resp).Activity
	}
	byFP := measure(info.Fingerprint)
	byName := measure("rca8")
	if byFP != byName {
		t.Errorf("uploaded measurement %+v differs from built-in %+v", byFP, byName)
	}

	// Both measurements share one fingerprint, so the second one must
	// have hit the engine's compiled-netlist cache.
	cs := engine.CacheStats()
	if cs.Misses != 1 || cs.Hits < 1 {
		t.Errorf("cache stats %+v: want exactly 1 miss and >=1 hit for the shared circuit", cs)
	}
}

// TestServiceCircuitUploadJSONRaw: the raw-body upload shape with
// ?format=json, and fingerprint preservation through the JSON codec.
func TestServiceCircuitUploadJSONRaw(t *testing.T) {
	ts := newTestServer(t)
	n, err := registry.Build("hazard")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := n.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/circuits?format=json", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	info := decodeBody[CircuitInfo](t, resp)
	if info.Fingerprint != n.Fingerprint() {
		t.Errorf("JSON upload fingerprint %s, want %s", info.Fingerprint, n.Fingerprint())
	}

	list, err := http.Get(ts.URL + "/v1/circuits")
	if err != nil {
		t.Fatal(err)
	}
	cat := decodeBody[CircuitsResponse](t, list)
	if len(cat.Uploads) != 1 || cat.Uploads[0].Fingerprint != info.Fingerprint {
		t.Errorf("catalogue uploads %+v missing the upload", cat.Uploads)
	}
	foundBuiltin := false
	for _, b := range cat.Builtin {
		if b == "rca8" {
			foundBuiltin = true
		}
	}
	if !foundBuiltin {
		t.Errorf("catalogue builtins %v missing rca8", cat.Builtin)
	}
}

// TestServiceUploadLintWarnings: uploading a circuit with a floating
// primary input succeeds (stored, measurable) but the reply carries the
// netlist lint warning naming the net; a clean upload has no warnings
// field at all.
func TestServiceUploadLintWarnings(t *testing.T) {
	ts := newTestServer(t)

	b := netlist.NewBuilder("floaty")
	a := b.Input("a")
	b.Input("loose")
	b.Output("o", b.Not(a))
	var sb strings.Builder
	if err := b.MustBuild().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	resp := uploadEnvelope(t, ts, "json", sb.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload with floating input rejected: status %d", resp.StatusCode)
	}
	up := decodeBody[UploadResponse](t, resp)
	if len(up.Warnings) != 1 {
		t.Fatalf("want one lint warning, got %+v", up.Warnings)
	}
	w := up.Warnings[0]
	if w.Kind != netlist.KindUnusedInput || w.Severity != netlist.SeverityWarning {
		t.Errorf("warning %+v, want an unused-input warning", w)
	}
	if len(w.Nets) != 1 || w.Nets[0] != "loose" {
		t.Errorf("warning %+v does not name the floating input", w)
	}
	// The stored circuit is still measurable by its fingerprint.
	mresp, err := http.Post(ts.URL+"/v1/measure", "application/json",
		strings.NewReader(fmt.Sprintf(`{"circuit":%q,"cycles":10,"seed":1}`, up.Fingerprint)))
	if err != nil {
		t.Fatal(err)
	}
	if mresp.StatusCode != http.StatusOK {
		t.Errorf("measuring warned upload: status %d", mresp.StatusCode)
	}
	mresp.Body.Close()

	src, _ := verilogSource(t, "rca8")
	clean := decodeBody[UploadResponse](t, uploadEnvelope(t, ts, "verilog", src))
	if len(clean.Warnings) != 0 {
		t.Errorf("clean upload carries warnings: %+v", clean.Warnings)
	}
}

// TestServiceUploadErrors: malformed sources answer 400 with the
// parser's line-numbered message; bad formats answer 400; unknown
// fingerprints answer 404 listing the resolvable identifiers.
func TestServiceUploadErrors(t *testing.T) {
	ts := newTestServer(t)

	resp := uploadEnvelope(t, ts, "verilog", "module broken(a; input a; endmodule")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed verilog: status %d, want 400", resp.StatusCode)
	}
	e := decodeBody[ErrorResponse](t, resp)
	if !strings.Contains(e.Error, "line ") {
		t.Errorf("malformed verilog error %q carries no line number", e.Error)
	}

	resp = uploadEnvelope(t, ts, "vhdl", "entity nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	src, _ := verilogSource(t, "hazard")
	resp = uploadEnvelope(t, ts, "verilog", src)
	info := decodeBody[CircuitInfo](t, resp)

	r, err := http.Get(ts.URL + "/v1/measure?circuit=" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fingerprint: status %d, want 404", r.StatusCode)
	}
	e = decodeBody[ErrorResponse](t, r)
	if !strings.Contains(e.Error, "rca8") || !strings.Contains(e.Error, info.Fingerprint) {
		t.Errorf("404 message %q does not list available circuits", e.Error)
	}
}

// TestServiceUploadLRUBound: the upload store is a bounded LRU — old
// uploads age out and their fingerprints stop resolving.
func TestServiceUploadLRUBound(t *testing.T) {
	ts := httptest.NewServer(New(glitchsim.NewEngine(), WithUploadCapacity(2)))
	t.Cleanup(ts.Close)

	var fps []string
	for _, name := range []string{"hazard", "rca4", "rca8"} {
		src, _ := verilogSource(t, name)
		resp := uploadEnvelope(t, ts, "verilog", src)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %s: status %d", name, resp.StatusCode)
		}
		fps = append(fps, decodeBody[CircuitInfo](t, resp).Fingerprint)
	}

	list, err := http.Get(ts.URL + "/v1/circuits")
	if err != nil {
		t.Fatal(err)
	}
	cat := decodeBody[CircuitsResponse](t, list)
	if len(cat.Uploads) != 2 {
		t.Fatalf("%d uploads retained, want 2 (LRU bound)", len(cat.Uploads))
	}
	if cat.Uploads[0].Fingerprint != fps[2] || cat.Uploads[1].Fingerprint != fps[1] {
		t.Errorf("unexpected retention order: %+v", cat.Uploads)
	}
	r, err := http.Get(ts.URL + "/v1/measure?circuit=" + fps[0] + "&cycles=2")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("evicted fingerprint: status %d, want 404", r.StatusCode)
	}
}

// TestServiceUploadsDisabled: capacity 0 turns the endpoint off.
func TestServiceUploadsDisabled(t *testing.T) {
	ts := httptest.NewServer(New(glitchsim.NewEngine(), WithUploadCapacity(0)))
	t.Cleanup(ts.Close)
	resp := uploadEnvelope(t, ts, "verilog", "module m(a); input a; endmodule")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", resp.StatusCode)
	}
}

// TestServiceExperimentCircuitParam: the retiming sweeps accept a
// circuit override; the fixed-set experiments reject one.
func TestServiceExperimentCircuitParam(t *testing.T) {
	ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/v1/experiments/table1", "application/json",
		strings.NewReader(`{"cycles":5,"circuit":"rca4"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("table1 with circuit: status %d, want 400", resp.StatusCode)
	}

	resp2, err := http.Post(ts.URL+"/v1/experiments/table3", "application/json",
		strings.NewReader(`{"cycles":5,"circuit":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("table3 with unknown circuit: status %d, want 404", resp2.StatusCode)
	}

	resp3, err := http.Post(ts.URL+"/v1/experiments/table3", "application/json",
		strings.NewReader(`{"cycles":5,"circuit":"dirdet8r"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("table3 with explicit subject: status %d", resp3.StatusCode)
	}
	rows := decodeBody[Table3Response](t, resp3)
	if len(rows.Rows) != 4 {
		t.Errorf("table3 rows %d, want 4", len(rows.Rows))
	}
}

// staticSource is a CircuitSource serving one fixed netlist under one
// name, or failing every lookup of that name with err when err is set.
type staticSource struct {
	name string
	nl   *netlist.Netlist
	err  error
}

func (s staticSource) Resolve(name string) (*netlist.Netlist, bool, error) {
	if name != s.name {
		return nil, false, nil
	}
	if s.err != nil {
		return nil, false, s.err
	}
	return s.nl, true, nil
}

func (s staticSource) Names() []string { return []string{s.name} }

// TestServiceEngineSourceEverywhere: a name served by the engine's
// custom circuit source resolves on every endpoint that takes a circuit
// — the synchronous measurement, the retiming experiment and job
// submission — and is listed by the catalogue and by the unknown-circuit
// message, exactly like a registry name.
func TestServiceEngineSourceEverywhere(t *testing.T) {
	e := glitchsim.NewEngine(glitchsim.WithCircuitSource(staticSource{name: "mine", nl: glitchsim.NewRCA(4)}))
	_, ts := newJobServer(t, e, jobs.Options{})

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post("/v1/measure", `{"circuit":"mine","cycles":20}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/measure: status %d", resp.StatusCode)
	}
	if got := decodeBody[MeasureResponse](t, resp); got.Activity.Circuit != "rca4" || got.Activity.Transitions == 0 {
		t.Errorf("/v1/measure measured %+v, want the source's rca4", got.Activity)
	}

	resp = post("/v1/experiments/table3", `{"cycles":5,"circuit":"mine"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/experiments/table3: status %d", resp.StatusCode)
	}
	if rows := decodeBody[Table3Response](t, resp); len(rows.Rows) == 0 {
		t.Error("/v1/experiments/table3 returned no rows")
	}

	sub := submitJob(t, ts, `{"kind":"measure","measure":{"circuit":"mine","cycles":20}}`)
	if sub.Fingerprint != glitchsim.NewRCA(4).Fingerprint() {
		t.Errorf("job fingerprint %q, want the source circuit's", sub.Fingerprint)
	}
	if final := pollJob(t, ts, sub.ID); final.State != string(jobs.StateSucceeded) {
		t.Errorf("job ended %q, error %q", final.State, final.Error)
	}

	cr, err := http.Get(ts.URL + "/v1/circuits")
	if err != nil {
		t.Fatal(err)
	}
	if cat := decodeBody[CircuitsResponse](t, cr); !slices.Contains(cat.Builtin, "mine") || !slices.Contains(cat.Builtin, "rca4") {
		t.Errorf("GET /v1/circuits builtin = %v, want the source's name beside the registry's", cat.Builtin)
	}

	resp = post("/v1/measure", `{"circuit":"nope"}`)
	er := decodeBody[ErrorResponse](t, resp)
	if resp.StatusCode != http.StatusNotFound || er.Code != CodeUnknownCircuit || !strings.Contains(er.Error, "mine") {
		t.Errorf("unknown circuit: status %d code %q message %q, want 404 %s listing \"mine\"",
			resp.StatusCode, er.Code, er.Error, CodeUnknownCircuit)
	}
}

// TestServiceCircuitSourceFailureIs500: a source that knows the name
// but fails to produce it is a server-side fault, not a client error:
// 500 internal, with the detail logged and kept out of the reply.
func TestServiceCircuitSourceFailureIs500(t *testing.T) {
	src := staticSource{name: "broken", err: errors.New("reading /srv/secret/broken.v: permission denied")}
	var logged strings.Builder
	var mu sync.Mutex
	s := New(glitchsim.NewEngine(glitchsim.WithCircuitSource(src)), WithBaseContext(context.Background()),
		WithLogf(func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&logged, format+"\n", args...)
		}))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(`{"circuit":"broken"}`))
	if err != nil {
		t.Fatal(err)
	}
	er := decodeBody[ErrorResponse](t, resp)
	if resp.StatusCode != http.StatusInternalServerError || er.Code != CodeInternal {
		t.Errorf("status %d code %q, want 500 %s", resp.StatusCode, er.Code, CodeInternal)
	}
	if strings.Contains(er.Error, "/srv/secret") {
		t.Errorf("reply leaks the source's detail: %q", er.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(logged.String(), "/srv/secret/broken.v") {
		t.Errorf("source failure not logged; log:\n%s", logged.String())
	}
}
