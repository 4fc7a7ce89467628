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
	// TraceEntries is the LRU capacity of the trace cache: one entry of
	// a few KB per (algorithm, n), computed by one recorded run, holding
	// the fold summary the trace and dbsp kinds read and the miss curve
	// the cache kind reads; 0 means 64, negative means unbounded.
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
	results *core.Store[*cachedDoc]
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

// cachedDoc is a result-cache value: a key's document, plus the body a
// hit answers with, encoded on the entry's first hit.  An answer is a
// pure function of its key, so the body never goes stale; it lives and
// is evicted with the entry, and a miss never pays for it.
type cachedDoc struct {
	doc *harness.Document
	hit atomic.Pointer[[]byte]
}

// hitBody returns the encoded hit response of the entry, the Response
// analyze builds for a hit plus the encoder's trailing newline, encoding
// it on the first call.  ok is false when the document cannot be
// encoded; nothing is kept then, and the caller takes writeJSON's path.
func (c *cachedDoc) hitBody() (body []byte, ok bool) {
	if b := c.hit.Load(); b != nil {
		return *b, true
	}
	je := jsonEncoders.Get().(*jsonEncoder)
	defer je.put()
	if err := je.enc.Encode(hitResponse(c.doc)); err != nil {
		return nil, false
	}
	body = bytes.Clone(je.buf.Bytes())
	c.hit.Store(&body)
	return body, true
}

// hitResponse is the response to a result-cache hit on doc.
func hitResponse(doc *harness.Document) Response {
	return Response{Schema: ResponseSchema, Status: string(StatusDone), Cached: true, Document: doc}
}

// New builds a Server and starts its worker pool.  Callers must Close
// it.  It fails only on an unusable cluster configuration.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	traces := harness.NewBoundedTraceStore(cfg.TraceEntries, true)
	traces.SetProbe(cfg.Probe)
	s := &Server{
		cfg:     cfg,
		results: core.NewBoundedStore[*cachedDoc](cfg.CacheEntries),
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

// Close stops the worker pool, cancels every running job and ends every
// in-flight HTTP request's context, so waits, event streams and
// forwards return rather than hang.
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
// The request's context ends at Close, so waits, streams and forwards
// end with the server.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(headerRequestID)
		if rid == "" {
			rid = obs.NewRequestID()
		}
		w.Header().Set(headerRequestID, rid)
		ctx, cancel := context.WithCancel(context.WithValue(r.Context(), ctxKeyRequestID{}, rid))
		defer cancel()
		stop := context.AfterFunc(s.baseCtx, cancel)
		defer stop()
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

// writeJSON encodes v as compact JSON and writes it with status.  A
// value that cannot be encoded is answered with a 500 and an apiError
// naming the failure, never with an empty body under the intended
// status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	je := jsonEncoders.Get().(*jsonEncoder)
	defer je.put()
	if err := je.enc.Encode(v); err != nil {
		je.buf.Reset()
		status = http.StatusInternalServerError
		_ = je.enc.Encode(apiError{Error: "encoding response: " + err.Error()})
	}
	writeBody(w, status, je.buf.Bytes())
}

// writeBody writes an encoded JSON body under status.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// jsonEncoder is a compact encoder over its own buffer.  Pooling the
// pair reuses the output buffer across responses, which is most of the
// bytes an encoded response would otherwise allocate.  A result-cache
// hit does not come here after its first: the entry keeps its encoded
// body (cachedDoc).
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledEncoderBytes keeps one oversized response from pinning its
// buffer in the pool.
const maxPooledEncoderBytes = 1 << 20

var jsonEncoders = sync.Pool{New: func() any {
	je := &jsonEncoder{}
	je.enc = json.NewEncoder(&je.buf)
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
	resp, status, hit := s.analyze(r.Context(), req, isForwarded(r))
	if hit != nil {
		if body, ok := hit.hitBody(); ok {
			writeBody(w, status, body)
			return
		}
	}
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

// batchLanes bounds how many items of one batch are in flight at once.
// A 1 MiB body holds thousands of tiny items; serving each on its own
// goroutine would let a single request start that many.
const batchLanes = 64

// handleBatch serves every item through analyze, batchLanes at a time,
// so one bad or remote item never sinks the batch: each item lands with
// its own per-item status code, forwards to different owners overlap,
// and waited misses spread across the worker pool.
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
	items := make(chan int)
	var wg sync.WaitGroup
	for range min(batchLanes, len(batch.Requests)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range items {
				resp, status, _ := s.analyze(r.Context(), batch.Requests[i], forwarded)
				resp.Code = status
				out.Responses[i] = resp
			}
		}()
	}
	for i := range batch.Requests {
		items <- i
	}
	close(items)
	wg.Wait()
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
// A result-cache hit on a document also returns its entry, whose stored
// body handleAnalyze writes instead of encoding the response.
func (s *Server) analyze(ctx context.Context, req Request, forwarded bool) (Response, int, *cachedDoc) {
	if err := req.normalize(); err != nil {
		return Response{Schema: ResponseSchema, Status: string(StatusFailed), Error: err.Error()}, http.StatusBadRequest, nil
	}
	if req.Kind.Sync() {
		start := time.Now()
		doc, err := s.runAnalysis(ctx, req, nil)
		s.metrics.observeLatency(req.Algorithm, time.Since(start))
		if err != nil {
			return Response{Schema: ResponseSchema, Status: string(StatusFailed), Error: err.Error()}, failureStatus(err, http.StatusInternalServerError), nil
		}
		return Response{Schema: ResponseSchema, Status: string(StatusDone), Document: doc}, http.StatusOK, nil
	}
	if c, err, ok := s.results.Peek(req.Key()); ok {
		if err != nil {
			return Response{Schema: ResponseSchema, Status: string(StatusFailed), Cached: true, Error: err.Error()}, failureStatus(err, http.StatusInternalServerError), nil
		}
		return hitResponse(c.doc), http.StatusOK, c
	}
	if owner := s.routeOf(&req, forwarded); owner != "" {
		resp, status := s.forward(ctx, owner, req)
		return resp, status, nil
	}
	j, resp, status := s.startJob(ctx, req)
	if j == nil {
		return *resp, status, nil
	}
	if req.Wait {
		resp, status := s.awaitJob(ctx, j)
		return resp, status, nil
	}
	return Response{Schema: ResponseSchema, Status: string(jobStatus(j)), JobID: j.id}, http.StatusAccepted, nil
}

// failureStatus is the HTTP status of an analysis that failed with err:
// 422 when its answer overflows float64 (the request is well formed, but
// JSON cannot carry the answer), fallback otherwise.
func failureStatus(err error, fallback int) int {
	if errors.Is(err, errOverflow) {
		return http.StatusUnprocessableEntity
	}
	return fallback
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
// gets its reference.  The status is the job's outcome code once it
// finished, 200 otherwise.
func (s *Server) awaitJob(ctx context.Context, j *job) (Response, int) {
	select {
	case <-j.done:
		j.mu.Lock()
		resp, code := j.resp, j.code
		j.mu.Unlock()
		if resp != nil {
			return *resp, code
		}
		return Response{Schema: ResponseSchema, Status: string(StatusFailed), Error: "job finished without a response"}, http.StatusOK
	case <-ctx.Done():
		return Response{Schema: ResponseSchema, Status: string(jobStatus(j)), JobID: j.id}, http.StatusOK
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

// handleJobEvents streams the job's event log as server-sent events:
// every past event, then each new one as it is appended, ending with
// the terminal status event and a closing "done" frame.
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
	for sent := 0; ; {
		events, status, changed := j.eventsAfter(sent)
		for _, ev := range events {
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
		}
		sent += len(events)
		if status.Terminal() {
			fmt.Fprintf(w, "event: done\ndata: %q\n\n", string(status))
			flusher.Flush()
			return
		}
		flusher.Flush()
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}
