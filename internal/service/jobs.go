package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// JobStatus is the lifecycle state of an asynchronous analysis.
type JobStatus string

const (
	StatusQueued    JobStatus = "queued"
	StatusRunning   JobStatus = "running"
	StatusDone      JobStatus = "done"
	StatusFailed    JobStatus = "failed"
	StatusCancelled JobStatus = "cancelled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Event is one progress notification of a job, streamed over SSE and
// kept in the job's event log.
type Event struct {
	// Seq is the 1-based index of the event in the job's log.
	Seq int `json:"seq"`
	// Stage is a coarse phase name ("queued", "tracing", "done", ...).
	Stage string `json:"stage"`
	// Detail elaborates the stage.
	Detail string `json:"detail,omitempty"`
	// RequestID correlates the event with the request that created the
	// job, so an SSE consumer can tie progress back to its access logs.
	RequestID string `json:"request_id,omitempty"`
}

// job is one queued/running/finished asynchronous analysis.
type job struct {
	id        string
	key       string // request cache key, the job's slot in the dedup index
	req       Request
	requestID string // correlation ID of the creating request
	priority  int    // guarded by the scheduler lock while queued
	seq       uint64 // enqueue order, breaks priority ties FIFO
	idx       int    // heap index while queued, -1 once popped

	cancel context.CancelCauseFunc

	mu              sync.Mutex
	status          JobStatus
	events          []Event       // the only copy of the job's progress
	changed         chan struct{} // closed and replaced by every append to events
	resp            *Response     // terminal outcome
	code            int           // HTTP status of resp for a request that waited
	cancelRequested bool          // a DELETE landed; honored even mid-pop
	created         time.Time

	done chan struct{} // closed when status turns terminal
}

// publish appends a progress event to the log and wakes its readers.
// A terminal job's log is closed: its last event names the status.
func (j *job) publish(stage, detail string) {
	j.mu.Lock()
	if !j.status.Terminal() {
		j.appendLocked(stage, detail)
	}
	j.mu.Unlock()
}

// appendLocked appends an event and wakes the log's readers; j.mu is
// held.
func (j *job) appendLocked(stage, detail string) {
	j.events = append(j.events, Event{Seq: len(j.events) + 1, Stage: stage, Detail: detail, RequestID: j.requestID})
	close(j.changed)
	j.changed = make(chan struct{})
}

// eventsAfter returns the events past the first n, the job's status, and
// a channel closed by the next append.  A terminal status means the
// events returned end with the terminal event.
func (j *job) eventsAfter(n int) ([]Event, JobStatus, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events[n:]...), j.status, j.changed
}

// finish transitions the job to a terminal status exactly once, and
// appends the terminal event under the same lock.  code is the HTTP
// status a request that waited for the job answers with.
func (j *job) finish(status JobStatus, resp *Response, code int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return false
	}
	j.appendLocked(string(status), "")
	j.status = status
	j.resp, j.code = resp, code
	close(j.done)
	return true
}

func (j *job) snapshot() (JobStatus, []Event, *Response) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, append([]Event(nil), j.events...), j.resp
}

// jobQueue is a priority queue: higher Priority first, FIFO within equal
// priorities (by enqueue sequence).
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(a, b int) bool {
	if q[a].priority != q[b].priority {
		return q[a].priority > q[b].priority
	}
	return q[a].seq < q[b].seq
}
func (q jobQueue) Swap(a, b int) {
	q[a], q[b] = q[b], q[a]
	q[a].idx = a
	q[b].idx = b
}

func (q *jobQueue) Push(x any) {
	j := x.(*job)
	j.idx = len(*q)
	*q = append(*q, j)
}

func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.idx = -1
	*q = old[:n-1]
	return j
}

// scheduler owns the queue, the dedup index and the bounded registry of
// recent jobs.
type scheduler struct {
	mu        sync.Mutex
	cond      *sync.Cond
	queue     jobQueue
	inflight  map[string]*job // request key -> queued/running job
	jobs      map[string]*job // id -> job, bounded by retention
	retired   []string        // terminal job ids, oldest first
	retention int             // max terminal jobs kept for GET /v1/jobs/{id}
	nextSeq   uint64
	nextID    uint64
	closed    bool
	limit     int
	admitHigh int // shed threshold; 0 disables admission control
}

// defaultJobRetention bounds how many finished jobs stay queryable.  A
// terminal job holds its response document; without a bound the id
// registry would be the one structure in the daemon that still grows
// forever (results are answered by the LRU cache, so old job records
// are pure history).
const defaultJobRetention = 1024

func newScheduler(limit, admitHigh int) *scheduler {
	s := &scheduler{
		inflight:  map[string]*job{},
		jobs:      map[string]*job{},
		retention: defaultJobRetention,
		limit:     limit,
		admitHigh: admitHigh,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// retire records a terminal job and evicts the oldest terminal jobs
// beyond the retention bound.  Queued/running jobs are never evicted —
// they are reachable from the queue and the dedup index.
func (s *scheduler) retire(j *job) {
	s.mu.Lock()
	s.retired = append(s.retired, j.id)
	for len(s.retired) > s.retention {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
	s.mu.Unlock()
}

// errQueueFull is returned when the bounded queue rejects an enqueue.
var errQueueFull = errors.New("job queue full")

// errShed marks an admission-control rejection: the queue crossed the
// high-water mark and the server asks the client to retry later (429 +
// Retry-After) rather than pile on.  Distinct from errQueueFull, the
// hard bound that still answers 503.
var errShed = errors.New("server saturated, retry later")

// enqueue registers a new job for key, or returns the already queued or
// running job computing the same key (single-flight dedup of identical
// in-flight requests).  created reports which happened.
func (s *scheduler) enqueue(key string, req Request, requestID string) (j *job, created bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, errors.New("service shutting down")
	}
	if existing, ok := s.inflight[key]; ok {
		// A higher-priority duplicate raises the queued job so the
		// joining caller is not stuck behind the original's priority.
		if existing.idx >= 0 && req.Priority > existing.priority {
			existing.priority = req.Priority
			heap.Fix(&s.queue, existing.idx)
		}
		return existing, false, nil
	}
	// Admission order matters: dedup joins are checked first (they cost
	// no queue slot and must always be admitted — a shed here would
	// break single-flight), then the soft shed mark, then the hard bound.
	if s.admitHigh > 0 && len(s.queue) >= s.admitHigh {
		return nil, false, errShed
	}
	if s.limit > 0 && len(s.queue) >= s.limit {
		return nil, false, errQueueFull
	}
	s.nextID++
	s.nextSeq++
	j = &job{
		id:        fmt.Sprintf("j%08d", s.nextID),
		key:       key,
		req:       req,
		requestID: requestID,
		priority:  req.Priority,
		seq:       s.nextSeq,
		status:    StatusQueued,
		changed:   make(chan struct{}),
		created:   time.Now(),
		done:      make(chan struct{}),
	}
	s.inflight[key] = j
	s.jobs[j.id] = j
	heap.Push(&s.queue, j)
	s.cond.Signal()
	return j, true, nil
}

// next blocks until a job is available or the scheduler closes (nil).
func (s *scheduler) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.queue) == 0 {
		return nil
	}
	return heap.Pop(&s.queue).(*job)
}

// remove takes the job out of the dedup index, so a later identical
// request starts fresh (it will normally hit the result cache instead),
// and out of the priority heap if it is still queued: a dead entry must
// not keep occupying a bounded-queue slot (rejecting live enqueues with
// "queue full") until a worker happens to pop it.
func (s *scheduler) remove(j *job) {
	s.mu.Lock()
	if j.idx >= 0 {
		heap.Remove(&s.queue, j.idx)
	}
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
}

// lookup finds a job by id.
func (s *scheduler) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// depth returns the number of queued (not yet running) jobs.
func (s *scheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// close wakes every worker with no work, so they exit.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// errJobCancelled marks client-requested cancellation as the context
// cause, distinguishing it from the per-job timeout.
var errJobCancelled = errors.New("job cancelled by client")

// worker is the job execution loop: pop by priority, run the analysis
// under a per-job timeout, publish the outcome, feed the result cache.
// Each iteration runs the job under a context derived from the server's
// base context, so Shutdown and DELETE /jobs/{id} can stop it.
//
//nob:ctxloop
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.sched.next()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	j.mu.Lock()
	cancelled := j.status.Terminal()
	if !cancelled {
		j.status = StatusRunning
	}
	j.mu.Unlock()
	if cancelled {
		// Cancelled while still queued; nothing to run.
		return
	}
	s.metrics.jobsRunning.Add(1)
	defer s.metrics.jobsRunning.Add(-1)
	queueWait := time.Since(j.created)
	s.metrics.observeQueueWait(queueWait)
	j.publish("started", fmt.Sprintf("kind=%s algorithm=%s n=%d", j.req.Kind, j.req.Algorithm, j.req.N))
	s.logger.Info("job started",
		"job", j.id,
		"request_id", j.requestID,
		"kind", string(j.req.Kind),
		"algorithm", j.req.Algorithm,
		"n", j.req.N,
		"queue_wait_ms", ms(queueWait))

	ctx, cancelTimeout := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancelTimeout()
	jobCtx, cancelRun := context.WithCancelCause(ctx)
	defer cancelRun(nil)
	// Install the cancel hook and re-check for a DELETE that raced the
	// queue pop under one lock: a cancel that saw status Queued before we
	// flipped it to Running sets cancelRequested instead of finding the
	// hook, and we honor it here — the run then aborts immediately.
	j.mu.Lock()
	j.cancel = cancelRun
	if j.cancelRequested {
		cancelRun(errJobCancelled)
	}
	j.mu.Unlock()

	start := time.Now()
	probeStart := s.probe.Now()
	c, err := s.results.Get(jobCtx, j.req.Key(), func(ctx context.Context) (*cachedDoc, error) {
		doc, err := s.runAnalysis(ctx, j.req, j.publish)
		if err != nil {
			return nil, err
		}
		return &cachedDoc{doc: doc}, nil
	})
	elapsed := time.Since(start)
	s.metrics.observeLatency(j.req.Algorithm, elapsed)
	s.metrics.observeRun(engineName, elapsed)
	s.sched.remove(j)

	var finished bool
	switch {
	case err == nil:
		finished = j.finish(StatusDone, &Response{Schema: ResponseSchema, Status: string(StatusDone), Document: c.doc}, http.StatusOK)
		if finished {
			s.metrics.jobsDone.Add(1)
		}
	case errors.Is(err, errJobCancelled):
		finished = j.finish(StatusCancelled, &Response{Schema: ResponseSchema, Status: string(StatusCancelled), Error: err.Error()}, http.StatusOK)
		if finished {
			s.metrics.jobsCancelled.Add(1)
		}
	default:
		finished = j.finish(StatusFailed, &Response{Schema: ResponseSchema, Status: string(StatusFailed), Error: err.Error()}, failureStatus(err, http.StatusOK))
		if finished {
			s.metrics.jobsFailed.Add(1)
		}
	}
	status, _, _ := j.snapshot()
	if s.probe != nil {
		s.probe.Span("job", string(j.req.Kind)+" "+j.req.Algorithm, 0, probeStart, map[string]any{
			"job":        j.id,
			"request_id": j.requestID,
			"status":     string(status),
		})
	}
	logAttrs := []any{
		"job", j.id,
		"request_id", j.requestID,
		"status", string(status),
		"elapsed_ms", ms(elapsed),
	}
	if err != nil {
		s.logger.Warn("job finished", append(logAttrs, "error", err.Error())...)
	} else {
		s.logger.Info("job finished", logAttrs...)
	}
	if finished {
		s.sched.retire(j)
	}
}

// cancelJob cancels a job by id: a queued job finishes immediately, a
// running one has its context cancelled and finishes as soon as its wait
// on the result cache ends.  The computation it waited for stops at the
// next superstep boundary only if no other job waits for it (core.Store
// owns its lifetime).  Either way the job leaves the dedup index at
// once, so a request arriving now starts a fresh job instead of joining
// this doomed one.  The request is recorded under the job lock so a
// cancel racing the worker's queue pop is never lost: runJob re-checks
// cancelRequested right after installing its hook.
func (s *Server) cancelJob(j *job) {
	j.mu.Lock()
	status := j.status
	cancel := j.cancel
	j.cancelRequested = true
	j.mu.Unlock()
	if status.Terminal() {
		return
	}
	s.sched.remove(j)
	if cancel != nil {
		cancel(errJobCancelled)
	}
	if status == StatusQueued && cancel == nil {
		if j.finish(StatusCancelled, &Response{Schema: ResponseSchema, Status: string(StatusCancelled), Error: errJobCancelled.Error()}, http.StatusOK) {
			s.metrics.jobsCancelled.Add(1)
			s.sched.retire(j)
		}
	}
}
