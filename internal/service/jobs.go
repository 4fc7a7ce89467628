package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"netoblivious/internal/harness"
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
	key       string // request cache key; "" once detached from dedup
	req       Request
	requestID string // correlation ID of the creating request
	priority  int    // guarded by the scheduler lock while queued
	seq       uint64 // enqueue order, breaks priority ties FIFO
	idx       int    // heap index while queued, -1 once popped

	cancel context.CancelCauseFunc

	mu              sync.Mutex
	status          JobStatus
	events          []Event
	subs            map[chan Event]struct{}
	resp            *Response // terminal outcome
	cancelRequested bool      // a DELETE landed; honored even mid-pop
	created         time.Time

	done chan struct{} // closed when status turns terminal
}

// publish appends an event and fans it out to the subscribers.  Slow
// subscribers lose events rather than block the worker: SSE progress is
// advisory, the authoritative log is the job's event slice.
func (j *job) publish(stage, detail string) {
	j.mu.Lock()
	ev := Event{Seq: len(j.events) + 1, Stage: stage, Detail: detail, RequestID: j.requestID}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// subscribe returns a snapshot of the past events and a channel carrying
// the future ones (nil when the job is already terminal).
func (j *job) subscribe() ([]Event, chan Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	past := append([]Event(nil), j.events...)
	if j.status.Terminal() {
		return past, nil
	}
	ch := make(chan Event, 64)
	j.subs[ch] = struct{}{}
	return past, ch
}

func (j *job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// finish transitions the job to a terminal status exactly once.
func (j *job) finish(status JobStatus, resp *Response) bool {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.status = status
	j.resp = resp
	j.mu.Unlock()
	j.publish(string(status), "")
	j.mu.Lock()
	for ch := range j.subs {
		close(ch)
	}
	j.subs = map[chan Event]struct{}{}
	j.mu.Unlock()
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
		subs:      map[chan Event]struct{}{},
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

// release drops the job from the dedup index, so a later identical
// request starts fresh (it will normally hit the result cache instead).
func (s *scheduler) release(j *job) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
}

// remove is release plus eviction from the priority heap, for jobs
// cancelled while still queued: a dead entry must not keep occupying a
// bounded-queue slot (rejecting live enqueues with "queue full") until a
// worker happens to pop it.
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
		s.sched.release(j)
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
	key := j.req.Key()
	var doc *harness.Document
	var err error
	for attempt := 0; ; attempt++ {
		doc, err = s.results.Get(key, func() (*harness.Document, error) {
			return s.runAnalysis(jobCtx, j.req, j.publish)
		})
		if !harness.IsCancellation(err) {
			break
		}
		// A cancellation describes a job, not the key: never leave it
		// memoized.  ForgetIf so a stale waiter cannot evict a fresh
		// entry another caller has already recomputed.
		s.results.ForgetIf(key, func(_ *harness.Document, err error) bool { return harness.IsCancellation(err) })
		if jobCtx.Err() != nil || attempt >= 2 {
			break // our own cancellation/timeout (or giving up): terminal
		}
		// This job was a *victim*: it shared an in-flight computation
		// with a job that was cancelled, and inherited the abort.  Its
		// own context is live, so re-run under it.
		j.publish("retrying", "shared computation was cancelled by another job")
	}
	elapsed := time.Since(start)
	s.metrics.observeLatency(j.req.Algorithm, elapsed)
	s.metrics.observeRun(engineName, elapsed)
	s.sched.release(j)

	var finished bool
	switch {
	case err == nil:
		finished = j.finish(StatusDone, &Response{Schema: ResponseSchema, Status: string(StatusDone), Document: doc})
		if finished {
			s.metrics.jobsDone.Add(1)
		}
	case errors.Is(err, errJobCancelled) || errors.Is(context.Cause(jobCtx), errJobCancelled):
		finished = j.finish(StatusCancelled, &Response{Schema: ResponseSchema, Status: string(StatusCancelled), Error: err.Error()})
		if finished {
			s.metrics.jobsCancelled.Add(1)
		}
	default:
		finished = j.finish(StatusFailed, &Response{Schema: ResponseSchema, Status: string(StatusFailed), Error: err.Error()})
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
// running one has its context cancelled and finishes when the engine
// aborts at the next superstep boundary.  The request is recorded under
// the job lock so a cancel racing the worker's queue pop is never lost —
// runJob re-checks cancelRequested right after installing its hook.
func (s *Server) cancelJob(j *job) {
	j.mu.Lock()
	status := j.status
	cancel := j.cancel
	j.cancelRequested = true
	j.mu.Unlock()
	if status.Terminal() {
		return
	}
	if cancel != nil {
		cancel(errJobCancelled)
	}
	if status == StatusQueued && cancel == nil {
		s.sched.remove(j)
		if j.finish(StatusCancelled, &Response{Schema: ResponseSchema, Status: string(StatusCancelled), Error: errJobCancelled.Error()}) {
			s.metrics.jobsCancelled.Add(1)
			s.sched.retire(j)
		}
	}
}
