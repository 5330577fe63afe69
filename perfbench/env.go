package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"glitchsim"
	"glitchsim/internal/jobs"
	"glitchsim/internal/service"
	"glitchsim/netlist"
)

// env is one set-up instance of the system under test: an Engine and,
// for the HTTP workloads, a service.Server on a loopback listener with
// a jobs.FileStore on disk behind the benchmark's store decorator.
type env struct {
	dir string
	eng *glitchsim.Engine
	x   *expected

	// tracer is the span recorder of a traced phase; nil records nothing.
	tracer atomic.Pointer[recorder]

	// The HTTP side; srv is nil for the in-process workload.
	srv      *service.Server
	hs       *http.Server
	url      string
	client   *http.Client
	served   chan error
	cancel   context.CancelFunc
	uploadFP string
	uploadNL *netlist.Netlist
}

// highLimits makes the server run its admission estimate on every
// request without ever rejecting or shedding one.
var highLimits = service.Limits{MaxEstimatedEvents: 1 << 62, MaxEstimatedMemoryBytes: 1 << 62}

// newEnv constructs the engine and, with withServer, the server, its
// job store under dir, the listener and the client, which keeps one
// connection. It uploads nothing and warms nothing.
func newEnv(ctx context.Context, dir string, x *expected, withServer bool) (*env, error) {
	e := &env{dir: dir, eng: glitchsim.NewEngine(), x: x}
	if !withServer {
		return e, nil
	}
	fs, err := jobs.NewFileStore(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil, err
	}
	base, cancel := context.WithCancel(ctx)
	e.cancel = cancel
	e.srv = service.New(e.eng,
		service.WithBaseContext(base),
		service.WithLimits(highLimits),
		service.WithJobOptions(jobs.Options{Store: &storeTap{Store: fs, tracer: &e.tracer}}),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	e.url = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e, ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	return e, nil
}

// close stops the server, drains its jobs, waits for the serving
// goroutine and removes the environment's files.
func (e *env) close() error {
	var errs []error
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		errs = append(errs, e.hs.Shutdown(ctx), e.srv.Drain(ctx))
		e.cancel()
		e.client.CloseIdleConnections()
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}

// ServeHTTP is the benchmark-owned handler wrapping service.Server: in a
// traced phase it records a span around the server's ServeHTTP, whose
// parent is the client span named by X-Request-Id.
func (e *env) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := e.tracer.Load()
	if rec == nil {
		e.srv.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	e.srv.ServeHTTP(w, r)
	parent, _ := strconv.ParseUint(r.Header.Get("X-Request-Id"), 16, 64)
	rec.add(0, parent, "service.handler", r.URL.Path, 0, start, time.Now())
}

// call sends one request and reads the whole reply. id travels as
// X-Request-Id, on every request whether traced or not, so both kinds
// of run do the same work.
func (e *env) call(method, path string, body []byte, id uint64) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Request-Id", strconv.FormatUint(id, 16))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

func statusError(what string, status int, body []byte) error {
	const maxBody = 200
	if len(body) > maxBody {
		body = body[:maxBody]
	}
	return fmt.Errorf("%s: status %d: %s", what, status, bytes.TrimSpace(body))
}

// upload posts the circuit of uploadSource as JSON and checks that the
// returned fingerprint is the recorded one.
func (e *env) upload() error {
	src, err := uploadJSON()
	if err != nil {
		return err
	}
	if e.uploadNL, err = netlist.ReadJSON(bytes.NewReader(src)); err != nil {
		return fmt.Errorf("parsing the upload: %w", err)
	}
	body, err := json.Marshal(map[string]string{"format": "json", "source": string(src)})
	if err != nil {
		return err
	}
	status, data, err := e.call(http.MethodPost, "/v1/circuits", body, nextID())
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return statusError("upload", status, data)
	}
	var info struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(data, &info); err != nil {
		return fmt.Errorf("decoding upload reply: %w", err)
	}
	if info.Fingerprint != e.x.UploadFingerprint {
		return fmt.Errorf("upload fingerprint %s, want %s", info.Fingerprint, e.x.UploadFingerprint)
	}
	e.uploadFP = info.Fingerprint
	return nil
}

// measure sends one POST /v1/measure and checks the reply.
func (e *env) measure(q measureReq, body []byte) (time.Duration, error) {
	id := nextID()
	start := time.Now()
	status, data, err := e.call(http.MethodPost, "/v1/measure", body, id)
	end := time.Now()
	e.tracer.Load().add(id, 0, "client.measure", q.key(), 0, start, end)
	if err != nil {
		return end.Sub(start), err
	}
	if status != http.StatusOK {
		return end.Sub(start), statusError(q.key(), status, data)
	}
	return end.Sub(start), checkReply(e.x.Measure, q.key(), data)
}

// job submits one measure job, follows its events to the terminal
// state, fetches the result and checks it. In a traced phase it also
// reads the job's timestamps and records its queue wait and run time.
func (e *env) job(q jobReq, body []byte) (time.Duration, error) {
	id := nextID()
	start := time.Now()
	lat, jobID, data, err := e.runJob(q, body, id)
	rec := e.tracer.Load()
	rec.add(id, 0, "client.job", jobID, 0, start, start.Add(lat))
	if err != nil {
		return lat, err
	}
	if err := checkReply(e.x.Jobs, q.key(), data); err != nil {
		return lat, err
	}
	if rec != nil {
		return lat, e.recordJobTimes(rec, jobID, id)
	}
	return lat, nil
}

func (e *env) runJob(q jobReq, body []byte, id uint64) (time.Duration, string, []byte, error) {
	start := time.Now()
	status, data, err := e.call(http.MethodPost, "/v1/jobs", body, id)
	if err != nil {
		return time.Since(start), "", nil, err
	}
	if status != http.StatusAccepted {
		return time.Since(start), "", nil, statusError(q.key()+" submit", status, data)
	}
	var dto struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &dto); err != nil {
		return time.Since(start), "", nil, fmt.Errorf("%s: decoding submit reply: %w", q.key(), err)
	}
	status, data, err = e.call(http.MethodGet, "/v1/jobs/"+dto.ID+"/events", nil, id)
	if err != nil {
		return time.Since(start), dto.ID, nil, err
	}
	if status != http.StatusOK {
		return time.Since(start), dto.ID, nil, statusError(q.key()+" events", status, data)
	}
	status, data, err = e.call(http.MethodGet, "/v1/jobs/"+dto.ID+"/result", nil, id)
	lat := time.Since(start)
	if err != nil {
		return lat, dto.ID, nil, err
	}
	if status != http.StatusOK {
		return lat, dto.ID, nil, statusError(q.key()+" result (job did not succeed)", status, data)
	}
	return lat, dto.ID, data, nil
}

// recordJobTimes reads the job's record and adds spans for its queue
// wait (created → started) and its run (started → finished).
func (e *env) recordJobTimes(rec *recorder, jobID string, parent uint64) error {
	status, data, err := e.call(http.MethodGet, "/v1/jobs/"+jobID, nil, parent)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return statusError("job status", status, data)
	}
	var dto struct {
		State      string    `json:"state"`
		CreatedAt  time.Time `json:"created_at"`
		StartedAt  time.Time `json:"started_at"`
		FinishedAt time.Time `json:"finished_at"`
	}
	if err := json.Unmarshal(data, &dto); err != nil {
		return fmt.Errorf("decoding job status: %w", err)
	}
	if dto.State != "succeeded" {
		return fmt.Errorf("job %s: state %q after a 200 result", jobID, dto.State)
	}
	rec.add(0, parent, "jobs.queue_wait", jobID, 0, dto.CreatedAt, dto.StartedAt)
	rec.add(0, parent, "jobs.run", jobID, 0, dto.StartedAt, dto.FinishedAt)
	return nil
}

// storeTap is the benchmark's jobs.Store decorator around the
// FileStore. In a traced phase it records a span per Put and a
// "jobs.checkpoint" span, carrying the snapshot's size, for every Put
// that persists a new checkpoint.
type storeTap struct {
	jobs.Store
	tracer *atomic.Pointer[recorder]

	mu        sync.Mutex
	lastCycle map[string]int // job ID → checkpoint cycle of its last Put
}

func (s *storeTap) Put(rec jobs.Record) error {
	r := s.tracer.Load()
	if r == nil {
		return s.Store.Put(rec)
	}
	start := time.Now()
	err := s.Store.Put(rec)
	end := time.Now()
	id := nextID()
	r.add(id, 0, "jobs.store.put", rec.ID, 0, start, end)
	s.mu.Lock()
	if s.lastCycle == nil {
		s.lastCycle = map[string]int{}
	}
	fresh := rec.CheckpointCycle != s.lastCycle[rec.ID]
	s.lastCycle[rec.ID] = rec.CheckpointCycle
	s.mu.Unlock()
	if fresh {
		r.add(0, id, "jobs.checkpoint", rec.ID, int64(len(rec.Checkpoint)), start, end)
	}
	return err
}
