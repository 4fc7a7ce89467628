package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netoblivious/alg"
	"netoblivious/internal/core"
	"netoblivious/internal/harness"
	"netoblivious/internal/network"
	"netoblivious/internal/obs"
)

// Config tunes a Server.  The zero value is usable: every field has a
// production-sane default.
type Config struct {
	// Workers is the job worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueLimit bounds the number of queued (not yet running) jobs;
	// enqueues beyond it are rejected with 503.  0 means 1024.
	QueueLimit int
	// CacheEntries is the LRU capacity of the result cache (completed
	// analysis documents, including those a cluster node forwarded to
	// their owner); 0 means 512, negative means unbounded.
	CacheEntries int
	// TraceEntries is the LRU capacity of the trace cache: one fold
	// summary of a few KB per (algorithm, n), which the trace and dbsp
	// kinds read; 0 means 64, negative means unbounded.
	TraceEntries int
	// JobTimeout bounds each job's execution; 0 means 2 minutes.
	JobTimeout time.Duration
	// Logger receives the service's structured logs (access lines, job
	// lifecycle); nil discards them.
	Logger *slog.Logger
	// LogSample emits one access-log line per N requests (job lifecycle
	// lines are never sampled); 0 or 1 logs every request.
	LogSample int
	// Probe, when non-nil, collects a Chrome-traceable timeline of the
	// server's work: job spans, trace-store hits and compute spans, and —
	// through the store — every engine's per-superstep spans.
	Probe *obs.Probe
	// Cluster, when non-nil, makes the server one node of a sharded
	// fleet (or a cacheless router): requests whose key hashes to
	// another member are transparently forwarded to it.
	Cluster *ClusterConfig
	// AdmitQueueHigh is the admission-control high-water mark: enqueues
	// arriving while this many jobs are already queued are shed with
	// HTTP 429 and a Retry-After derived from observed queue waits.
	// Joining an in-flight duplicate is always admitted (it costs no
	// queue slot).  0 disables shedding; QueueLimit still applies as
	// the hard 503 bound.
	AdmitQueueHigh int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 1024
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	} else if c.CacheEntries < 0 {
		c.CacheEntries = 0 // unbounded
	}
	if c.TraceEntries == 0 {
		c.TraceEntries = 64
	} else if c.TraceEntries < 0 {
		c.TraceEntries = 0
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.LogSample <= 0 {
		c.LogSample = 1
	}
	return c
}

// engineName names the execution engine every server runs: the trace
// store's nil engine, the BlockEngine.  The wire fields named "engine"
// (document, healthz, /v1/cluster, /v1/algorithms) report it.
var engineName = core.BlockEngine{}.Name()

// ResponseSchema tags analyze responses; bump on breaking changes.
const ResponseSchema = "nobld/response/v1"

// Response is the outcome of one analyze request.
type Response struct {
	Schema string `json:"schema"`
	// Status is "done", "queued", "running", "failed" or "cancelled".
	Status string `json:"status"`
	// Cached reports that the document was served from the result cache.
	Cached bool `json:"cached,omitempty"`
	// JobID references the asynchronous job computing the document, when
	// the request did not wait for it.
	JobID string `json:"job,omitempty"`
	// Document carries the analysis results (the PR 2 wire format).
	Document *harness.Document `json:"document,omitempty"`
	// Error is the failure message of a failed analysis.
	Error string `json:"error,omitempty"`
	// Code is the per-item HTTP status inside a batch response, so a
	// routed batch can partially succeed: some items 200, a shed shard's
	// items 429, a malformed item 400.  Single-request responses carry
	// the status on the HTTP layer instead and leave Code zero.
	Code int `json:"code,omitempty"`
	// RetryAfterSec accompanies a 429 (shed) outcome: how long the
	// client should back off, mirroring the Retry-After header.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// BatchRequest is the POST /v1/analyze/batch payload.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchResponse pairs each batch entry with its response, in order.
// Succeeded and Failed count items by their per-item Code, so a caller
// can see partial success without scanning.
type BatchResponse struct {
	Schema    string     `json:"schema"`
	Succeeded int        `json:"succeeded"`
	Failed    int        `json:"failed"`
	Responses []Response `json:"responses"`
}

// JobInfo is the GET /v1/jobs/{id} payload.
type JobInfo struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	// RequestID is the correlation ID of the request that created the
	// job; requests that joined an in-flight job see the creator's ID.
	RequestID string  `json:"request_id,omitempty"`
	Request   Request `json:"request"`
	Events    []Event `json:"events"`
	// Response is present once the job is terminal.
	Response *Response `json:"response,omitempty"`
}

// AlgorithmInfo is one GET /v1/algorithms entry: the full descriptor
// metadata of the open algorithm registry.
type AlgorithmInfo struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
	// SizeDoc states the size constraint in prose; requests with an n
	// violating it are rejected with HTTP 400 before any job is queued.
	SizeDoc string `json:"size_doc,omitempty"`
	// DefaultSizes is the algorithm's suggested input-size ladder.
	DefaultSizes []int `json:"default_sizes,omitempty"`
}

// AlgorithmsResponse is the GET /v1/algorithms payload.
type AlgorithmsResponse struct {
	Schema string `json:"schema"`
	// Engine is the execution engine this server runs (engineName).
	Engine     string          `json:"engine"`
	Algorithms []AlgorithmInfo `json:"algorithms"`
	Kinds      []Kind          `json:"kinds"`
	// Topologies and Strategies enumerate the network families and
	// routing strategies a kind "network" request may select.
	Topologies []string `json:"topologies"`
	Strategies []string `json:"strategies"`
}

// Server is the nobld analysis service: HTTP handlers over a priority
// job scheduler, a bounded worker pool, and two process-lifetime LRU
// caches (analysis documents and specification traces), both
// single-flight.
type Server struct {
	cfg     Config
	results *core.Store[*harness.Document]
	traces  *harness.TraceStore
	sched   *scheduler
	metrics *metrics
	cluster *clusterState // nil in single-node mode
	mux     *http.ServeMux
	logger  *slog.Logger
	probe   *obs.Probe
	started time.Time

	// accessSeq numbers served requests for access-log sampling.
	accessSeq atomic.Uint64

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// New builds a Server and starts its worker pool.  Callers must Close
// it.  It fails only on an unusable cluster configuration.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	traces := harness.NewBoundedTraceStore(cfg.TraceEntries)
	traces.SetProbe(cfg.Probe)
	s := &Server{
		cfg:     cfg,
		results: core.NewBoundedStore[*harness.Document](cfg.CacheEntries),
		traces:  traces,
		sched:   newScheduler(cfg.QueueLimit, cfg.AdmitQueueHigh),
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
		logger:  cfg.Logger,
		probe:   cfg.Probe,
		started: time.Now(),
	}
	s.registerGauges()
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	if cfg.Cluster != nil {
		cs, err := newClusterState(s, *cfg.Cluster)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.cluster = cs
		if cs != nil {
			s.registerClusterGauges()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				cs.tracker.Run(s.baseCtx)
			}()
		}
	}
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Close stops the worker pool and cancels every running job.  In-flight
// HTTP requests observe cancelled jobs rather than hanging.
func (s *Server) Close() {
	s.sched.close()
	s.stop()
	s.wg.Wait()
}

// Handler returns the HTTP handler of the service: the API mux wrapped
// in the observability middleware (request-ID propagation and sampled
// access logging).
func (s *Server) Handler() http.Handler { return s.withObservability(s.mux) }

// headerRequestID carries a request's correlation ID, both from clients
// and across the forward hop.
const headerRequestID = "X-Request-ID"

// ctxKeyRequestID keys the per-request correlation ID in the request
// context.
type ctxKeyRequestID struct{}

// requestIDFrom returns the request's correlation ID, or "" outside a
// served request.
func requestIDFrom(ctx context.Context) string {
	rid, _ := ctx.Value(ctxKeyRequestID{}).(string)
	return rid
}

// statusWriter records the response status for the access log.  It
// forwards Flush so SSE streaming keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withObservability assigns every request a correlation ID — the
// client's X-Request-ID when present, a fresh one otherwise — echoes it
// on the response, threads it through the context (jobs started by the
// request inherit it), and writes a sampled structured access line.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(headerRequestID)
		if rid == "" {
			rid = obs.NewRequestID()
		}
		w.Header().Set(headerRequestID, rid)
		ctx := context.WithValue(r.Context(), ctxKeyRequestID{}, rid)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		if n := s.accessSeq.Add(1); s.cfg.LogSample <= 1 || n%uint64(s.cfg.LogSample) == 1 {
			s.logger.Info("request",
				"request_id", rid,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"dur_ms", ms(time.Since(start)))
		}
	})
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/analyze/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
}

// apiError is the JSON error body of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	je := jsonEncoders.Get().(*jsonEncoder)
	defer je.put()
	w.Header().Set("Content-Type", "application/json")
	if err := je.enc.Encode(v); err != nil {
		w.WriteHeader(status)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(je.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(je.buf.Bytes())
}

// jsonEncoder is an indenting encoder over its own buffer.  Pooling the
// pair reuses both the output buffer and the encoder's indent buffer
// across responses: a cached answer is re-encoded on every hit, and
// without the pool those two buffers are most of the bytes a hit
// allocates.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledEncoderBytes keeps one oversized response from pinning its
// buffers in the pool.
const maxPooledEncoderBytes = 1 << 20

var jsonEncoders = sync.Pool{New: func() any {
	je := &jsonEncoder{}
	je.enc = json.NewEncoder(&je.buf)
	je.enc.SetIndent("", "  ")
	return je
}}

func (je *jsonEncoder) put() {
	if je.buf.Cap() > maxPooledEncoderBytes {
		return
	}
	je.buf.Reset()
	jsonEncoders.Put(je)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// HealthResponse is the GET /healthz payload: liveness plus enough
// build and runtime identity to tell *which* binary answered.
type HealthResponse struct {
	Status     string  `json:"status"`
	Engine     string  `json:"engine"`
	Version    string  `json:"version"`
	GoVersion  string  `json:"go_version"`
	UptimeSec  float64 `json:"uptime_sec"`
	Gomaxprocs int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:     "ok",
		Engine:     engineName,
		Version:    obs.BuildVersion(),
		GoVersion:  runtime.Version(),
		UptimeSec:  time.Since(s.started).Seconds(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Workers:    s.cfg.Workers,
	})
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	s.metrics.countRequest("algorithms")
	resp := AlgorithmsResponse{
		Schema:     "nobld/algorithms/v1",
		Engine:     engineName,
		Kinds:      Kinds(),
		Topologies: network.TopologyNames(),
		Strategies: network.RouterNames(),
	}
	for _, a := range alg.All() {
		resp.Algorithms = append(resp.Algorithms, AlgorithmInfo{
			Name:         a.Name,
			Doc:          a.Doc,
			SizeDoc:      a.SizeDoc,
			DefaultSizes: a.DefaultSizes(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxRequestBytes caps the body of POST /v1/analyze and
// /v1/analyze/batch.  A request is a few hundred bytes, so even a large
// batch stays far below it; a larger body is refused with 413 before the
// decoder buffers it.
const maxRequestBytes = 1 << 20

// decodeBody decodes at most maxRequestBytes of r's body into v.  On
// failure it writes the error response itself — 413 for an oversized
// body, 400 for malformed JSON — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "%s body exceeds %d bytes", what, tooLarge.Limit)
	} else {
		writeError(w, http.StatusBadRequest, "decoding %s: %v", what, err)
	}
	return false
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.metrics.countRequest("analyze")
	var req Request
	if !decodeBody(w, r, "request", &req) {
		return
	}
	resp, status := s.analyze(r.Context(), req, isForwarded(r))
	if status == http.StatusTooManyRequests && resp.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(resp.RetryAfterSec))
	}
	writeJSON(w, status, resp)
}

// isForwarded reports whether the request already crossed one
// forwarding hop; such requests are always served locally.
func isForwarded(r *http.Request) bool {
	return r.Header.Get(headerForwarded) != ""
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.countRequest("batch")
	var batch BatchRequest
	if !decodeBody(w, r, "batch", &batch) {
		return
	}
	if len(batch.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "batch carries no requests")
		return
	}
	out := BatchResponse{Schema: "nobld/batch/v1", Responses: make([]Response, len(batch.Requests))}
	forwarded := isForwarded(r)
	// Three lanes, so one bad or remote item never sinks the batch:
	// forwards run concurrently (each is a network round trip to its
	// owning shard), async misses are enqueued before any waiter blocks
	// so the batch's jobs spread across the worker pool, and every item
	// lands with its own per-item status code.
	type pending struct {
		idx int
		j   *job
	}
	var waits []pending
	var fwd sync.WaitGroup
	for i := range batch.Requests {
		req := batch.Requests[i]
		if err := req.normalize(); err != nil {
			out.Responses[i] = Response{Schema: ResponseSchema, Status: string(StatusFailed),
				Error: err.Error(), Code: http.StatusBadRequest}
			continue
		}
		if resp, status := s.analyzeStart(r.Context(), &req); resp != nil {
			resp.Code = status
			out.Responses[i] = *resp
			continue
		}
		if owner := s.routeOf(&req, forwarded); owner != "" {
			fwd.Add(1)
			go func(i int, owner string, req Request) {
				defer fwd.Done()
				resp, status := s.forward(r.Context(), owner, req)
				resp.Code = status
				out.Responses[i] = resp
			}(i, owner, req)
			continue
		}
		j, resp, status := s.startJob(r.Context(), req)
		if j == nil {
			resp.Code = status
			out.Responses[i] = *resp
			continue
		}
		if req.Wait {
			waits = append(waits, pending{idx: i, j: j})
		} else {
			out.Responses[i] = Response{Schema: ResponseSchema, Status: string(jobStatus(j)),
				JobID: j.id, Code: http.StatusAccepted}
		}
	}
	for _, p := range waits {
		resp := s.awaitJob(r.Context(), p.j)
		resp.Code = http.StatusOK
		out.Responses[p.idx] = resp
	}
	fwd.Wait()
	for i := range out.Responses {
		if out.Responses[i].Code >= 400 {
			out.Failed++
		} else {
			out.Succeeded++
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// analyze serves one request and returns its response plus HTTP status.
func (s *Server) analyze(ctx context.Context, req Request, forwarded bool) (Response, int) {
	if err := req.normalize(); err != nil {
		return Response{Schema: ResponseSchema, Status: string(StatusFailed), Error: err.Error()}, http.StatusBadRequest
	}
	if resp, status := s.analyzeStart(ctx, &req); resp != nil {
		return *resp, status
	}
	if owner := s.routeOf(&req, forwarded); owner != "" {
		return s.forward(ctx, owner, req)
	}
	j, resp, status := s.startJob(ctx, req)
	if j == nil {
		return *resp, status
	}
	if req.Wait {
		return s.awaitJob(ctx, j), http.StatusOK
	}
	return Response{Schema: ResponseSchema, Status: string(jobStatus(j)), JobID: j.id}, http.StatusAccepted
}

// analyzeStart answers a normalized request from this node when it can:
// synchronous kinds, and result-cache hits, including documents earlier
// forwarded from their owner.  A nil response means the caller must
// forward the request or start (or join) a job.
func (s *Server) analyzeStart(ctx context.Context, req *Request) (*Response, int) {
	if req.Kind.Sync() {
		start := time.Now()
		doc, err := s.runAnalysis(ctx, *req, nil)
		s.metrics.observeLatency(req.Algorithm, time.Since(start))
		if err != nil {
			return &Response{Schema: ResponseSchema, Status: string(StatusFailed), Error: err.Error()}, http.StatusInternalServerError
		}
		return &Response{Schema: ResponseSchema, Status: string(StatusDone), Document: doc}, http.StatusOK
	}
	if doc, err, ok := s.results.Peek(req.Key()); ok {
		if err != nil {
			return &Response{Schema: ResponseSchema, Status: string(StatusFailed), Cached: true, Error: err.Error()}, http.StatusInternalServerError
		}
		return &Response{Schema: ResponseSchema, Status: string(StatusDone), Cached: true, Document: doc}, http.StatusOK
	}
	return nil, 0
}

// startJob enqueues (or joins) the job computing req's key.  A created
// job inherits the request's correlation ID; a joined one keeps the ID
// of the request that created it (the job ran for that one).  A nil job
// comes back with the rejection response and its HTTP status: 429 with
// a Retry-After when admission control shed the request, 503 when the
// hard queue bound rejected it.
func (s *Server) startJob(ctx context.Context, req Request) (*job, *Response, int) {
	rid := requestIDFrom(ctx)
	j, created, err := s.sched.enqueue(req.Key(), req, rid)
	if err != nil {
		s.metrics.jobsRejected.Add(1)
		s.logger.Warn("job rejected", "request_id", rid, "error", err.Error())
		resp := &Response{Schema: ResponseSchema, Status: string(StatusFailed), Error: err.Error()}
		if errors.Is(err, errShed) {
			resp.RetryAfterSec = s.metrics.retryAfterSec()
			s.metrics.countShed("queue")
			return nil, resp, http.StatusTooManyRequests
		}
		return nil, resp, http.StatusServiceUnavailable
	}
	if created {
		j.publish("queued", fmt.Sprintf("priority=%d", req.Priority))
		s.logger.Info("job queued",
			"job", j.id,
			"request_id", j.requestID,
			"kind", string(j.req.Kind),
			"algorithm", j.req.Algorithm,
			"n", j.req.N,
			"priority", j.req.Priority)
	}
	return j, nil, 0
}

// awaitJob blocks until the job finishes or the request context is
// cancelled; in the latter case the job keeps running and the caller
// gets its reference.
func (s *Server) awaitJob(ctx context.Context, j *job) Response {
	select {
	case <-j.done:
		_, _, resp := j.snapshot()
		if resp != nil {
			return *resp
		}
		return Response{Schema: ResponseSchema, Status: string(StatusFailed), Error: "job finished without a response"}
	case <-ctx.Done():
		return Response{Schema: ResponseSchema, Status: string(jobStatus(j)), JobID: j.id}
	}
}

func jobStatus(j *job) JobStatus {
	st, _, _ := j.snapshot()
	return st
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.metrics.countRequest("jobs")
	j, ok := s.sched.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	status, events, resp := j.snapshot()
	writeJSON(w, http.StatusOK, JobInfo{ID: j.id, Status: status, RequestID: j.requestID, Request: j.req, Events: events, Response: resp})
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.metrics.countRequest("jobs")
	j, ok := s.sched.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.cancelJob(j)
	status, _, resp := j.snapshot()
	writeJSON(w, http.StatusOK, JobInfo{ID: j.id, Status: status, RequestID: j.requestID, Request: j.req, Response: resp})
}

// handleJobEvents streams the job's progress as server-sent events: every
// past event, then live ones, ending with the terminal status event.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.metrics.countRequest("events")
	j, ok := s.sched.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeEvent := func(ev Event) {
		data, _ := json.Marshal(ev)
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
	}
	past, live := j.subscribe()
	for _, ev := range past {
		writeEvent(ev)
	}
	flusher.Flush()
	if live != nil {
		defer j.unsubscribe(live)
		for {
			select {
			case ev, open := <-live:
				if !open {
					// Terminal: the final status event is already in the
					// log (published before close), but it may have raced
					// past this subscriber — re-emit from the snapshot.
					_, events, _ := j.snapshot()
					for _, e := range events {
						if e.Seq > lastSeq(past) {
							writeEvent(e)
							past = append(past, e)
						}
					}
					flusher.Flush()
					s.writeSSEDone(w, flusher, j)
					return
				}
				writeEvent(ev)
				past = append(past, ev)
				flusher.Flush()
			case <-r.Context().Done():
				return
			case <-s.baseCtx.Done():
				return
			}
		}
	}
	s.writeSSEDone(w, flusher, j)
}

func lastSeq(events []Event) int {
	if len(events) == 0 {
		return 0
	}
	return events[len(events)-1].Seq
}

// writeSSEDone emits the closing "done" SSE frame carrying the job's
// terminal status.
func (s *Server) writeSSEDone(w http.ResponseWriter, flusher http.Flusher, j *job) {
	status, _, _ := j.snapshot()
	fmt.Fprintf(w, "event: done\ndata: %q\n\n", string(status))
	flusher.Flush()
}
