package service

import (
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"netoblivious/internal/core"
	"netoblivious/internal/obs"
)

// latencyBuckets are the upper bounds (milliseconds) of the service's
// duration histograms: powers of four from 1 ms to ~4.4 min, plus +Inf.
// Analysis latencies span closed-form microseconds to multi-second
// simulation runs, so a geometric ladder keeps every regime resolvable
// with few buckets.
var latencyBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144}

// queueWaitBuckets resolve queue waits, which sit well below run
// latencies on a healthy server: powers of four from 0.25 ms upward.
var queueWaitBuckets = []float64{0.25, 1, 4, 16, 64, 256, 1024, 4096, 16384}

// metrics is the service's metric surface: a thin façade over one
// obs.Registry, from which both /metrics renderings (Prometheus text and
// the MetricsSnapshot JSON) are derived — one snapshot, two encodings,
// so they can never disagree.  Values owned elsewhere (cache stats,
// queue depth) are registered as gauge callbacks in
// (*Server).registerGauges rather than mirrored by writes.
type metrics struct {
	reg *obs.Registry

	jobsRunning   *obs.Gauge
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsCancelled *obs.Counter
	jobsRejected  *obs.Counter // queue-full and shed rejections

	// queueWaitEWMA holds the float64 bits of an exponentially weighted
	// moving average of queue waits (ms); admission control derives its
	// Retry-After from it so the advice tracks the load actually observed.
	queueWaitEWMA atomic.Uint64
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg:           reg,
		jobsRunning:   reg.Gauge("nobld_jobs_running", "jobs being executed by workers"),
		jobsDone:      reg.Counter("nobld_jobs_done_total", "jobs finished successfully"),
		jobsFailed:    reg.Counter("nobld_jobs_failed_total", "jobs finished with an error"),
		jobsCancelled: reg.Counter("nobld_jobs_cancelled_total", "jobs cancelled by clients or shutdown"),
		jobsRejected:  reg.Counter("nobld_jobs_rejected_total", "enqueues rejected by the bounded queue"),
	}
}

func (m *metrics) countRequest(endpoint string) {
	m.reg.Counter("nobld_requests_total", "HTTP requests by endpoint", obs.L("endpoint", endpoint)).Inc()
}

func (m *metrics) observeLatency(algorithm string, d time.Duration) {
	if algorithm == "" {
		algorithm = "none"
	}
	m.reg.Histogram("nobld_latency_ms", "end-to-end analysis latency by algorithm",
		latencyBuckets, obs.L("algorithm", algorithm)).Observe(ms(d))
}

// observeQueueWait records the time a job spent queued before a worker
// picked it up, both in the histogram and in the EWMA that prices
// Retry-After.
func (m *metrics) observeQueueWait(d time.Duration) {
	m.reg.Histogram("nobld_queue_wait_ms", "time jobs spent queued before execution",
		queueWaitBuckets).Observe(ms(d))
	for {
		old := m.queueWaitEWMA.Load()
		next := ms(d)
		if old != 0 {
			next = 0.8*math.Float64frombits(old) + 0.2*next
		}
		if m.queueWaitEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfterSec turns the observed queue-wait EWMA into the Retry-After
// a shed response advertises: roughly one average wait, clamped to
// [1, 60] seconds so the advice is neither zero (retry storm) nor
// absurd (client gives up).
func (m *metrics) retryAfterSec() int {
	ewmaMs := math.Float64frombits(m.queueWaitEWMA.Load())
	sec := int(math.Ceil(ewmaMs / 1000))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// observeRun records one job execution's duration under its effective
// engine.
func (m *metrics) observeRun(engine string, d time.Duration) {
	m.reg.Histogram("nobld_run_ms", "job execution time by engine",
		latencyBuckets, obs.L("engine", engine)).Observe(ms(d))
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// registerGauges installs the callback-backed gauges that read server
// state live at snapshot time.  Called once from New, after the stores
// and scheduler exist.
func (s *Server) registerGauges() {
	reg := s.metrics.reg
	reg.GaugeFunc("nobld_queue_depth", "queued (not yet running) jobs",
		func() float64 { return float64(s.sched.depth()) })
	registerCacheGauges(reg, "nobld_cache", func() CacheStats { return cacheStats(s.results) })
	registerCacheGauges(reg, "nobld_trace_cache", func() CacheStats { return cacheStats(s.traces.Store()) })
}

// registerCacheGauges installs the five per-store gauges under prefix.
func registerCacheGauges(reg *obs.Registry, prefix string, stats func() CacheStats) {
	reg.GaugeFunc(prefix+"_hits_total", "cache hits", func() float64 { return float64(stats().Hits) })
	reg.GaugeFunc(prefix+"_misses_total", "cache misses", func() float64 { return float64(stats().Misses) })
	reg.GaugeFunc(prefix+"_evictions_total", "cache evictions", func() float64 { return float64(stats().Evictions) })
	reg.GaugeFunc(prefix+"_hit_rate", "cache hit rate", func() float64 { return stats().HitRate })
	reg.GaugeFunc(prefix+"_entries", "live cache entries", func() float64 { return float64(stats().Entries) })
}

// CacheStats is the snapshot of one store's counters plus its hit rate.
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
}

func cacheStats[V any](s *core.Store[V]) CacheStats {
	st := s.Stats()
	return CacheStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		HitRate:   st.HitRate(),
		Entries:   s.Len(),
		Capacity:  s.Capacity(),
	}
}

// HistogramSnapshot is the JSON form of one histogram: cumulative bucket
// counts keyed by upper bound, plus count and sum.
type HistogramSnapshot struct {
	// Buckets maps the bucket upper bound (ms, formatted) to the
	// cumulative count of observations at or below it.
	Buckets map[string]int64 `json:"buckets"`
	Count   int64            `json:"count"`
	SumMs   float64          `json:"sum_ms"`
}

// MetricsSnapshot is the machine-readable /metrics?format=json payload.
type MetricsSnapshot struct {
	Schema     string                       `json:"schema"`
	Requests   map[string]int64             `json:"requests"`
	Results    CacheStats                   `json:"result_cache"`
	Traces     CacheStats                   `json:"trace_cache"`
	QueueDepth int64                        `json:"queue_depth"`
	Jobs       JobCounters                  `json:"jobs"`
	Latency    map[string]HistogramSnapshot `json:"latency_ms"`
	// QueueWait and Runs expose the obs-registry histograms added for
	// the ROADMAP's scaling work: queue wait (all jobs) and execution
	// time by effective engine.
	QueueWait HistogramSnapshot            `json:"queue_wait_ms"`
	Runs      map[string]HistogramSnapshot `json:"run_ms"`
	// Cluster summarizes the sharding tier; absent in single-node mode.
	Cluster *ClusterCounters `json:"cluster,omitempty"`
}

// ClusterCounters summarizes the cluster subsystem in the JSON snapshot.
type ClusterCounters struct {
	Mode         string `json:"mode"`
	RingSize     int    `json:"ring_size"`
	PeersHealthy int    `json:"peers_healthy"`
	// Forwards counts forwarded requests by owning peer; ForwardErrors
	// the ones that failed in transit; Sheds the admission-control
	// rejections by reason ("queue", "forwards").
	Forwards      map[string]int64 `json:"forwards,omitempty"`
	ForwardErrors map[string]int64 `json:"forward_errors,omitempty"`
	Sheds         map[string]int64 `json:"sheds,omitempty"`
	// Replicas is always nil: forwarded documents land in the result
	// cache, and there is no separate replica store.  The field stays
	// for readers compiled against the earlier schema.
	Replicas *CacheStats `json:"replica_cache,omitempty"`
}

// JobCounters summarizes the job subsystem.
type JobCounters struct {
	Running   int64 `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Rejected  int64 `json:"rejected"`
}

// MetricsSchema tags the JSON metrics snapshot.
const MetricsSchema = "nobld/metrics/v1"

// histogramJSON converts one obs histogram series to the wire form.
// The numeric bucket bounds travel alongside their formatted strings in
// the obs snapshot, so nothing here (or anywhere) re-parses a formatted
// bound; the +Inf bucket is represented by Count, as in every release
// of this schema.
func histogramJSON(ss obs.SeriesSnapshot) HistogramSnapshot {
	snap := HistogramSnapshot{Buckets: make(map[string]int64, len(ss.Buckets)), Count: ss.Count, SumMs: ss.Sum}
	for _, b := range ss.Buckets {
		if b.LE == "+Inf" {
			continue
		}
		snap.Buckets[b.LE] = b.Cumulative
	}
	return snap
}

// labelValue returns the value of the named label in a series.
func labelValue(ss obs.SeriesSnapshot, name string) string {
	for _, l := range ss.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// metricsSnapshot derives the JSON wire form from one obs-registry
// snapshot, so the JSON and Prometheus-text renderings of a single
// /metrics request describe the same instant.
//
//nob:deterministic
func (s *Server) metricsSnapshot(osnap obs.Snapshot) MetricsSnapshot {
	snap := MetricsSnapshot{
		Schema:     MetricsSchema,
		Requests:   map[string]int64{},
		Results:    cacheStats(s.results),
		Traces:     cacheStats(s.traces.Store()),
		QueueDepth: int64(s.sched.depth()),
		Jobs: JobCounters{
			Running:   int64(s.metrics.jobsRunning.Value()),
			Done:      s.metrics.jobsDone.Value(),
			Failed:    s.metrics.jobsFailed.Value(),
			Cancelled: s.metrics.jobsCancelled.Value(),
			Rejected:  s.metrics.jobsRejected.Value(),
		},
		Latency: map[string]HistogramSnapshot{},
		Runs:    map[string]HistogramSnapshot{},
	}
	if f := osnap.Family("nobld_requests_total"); f != nil {
		for _, ss := range f.Series {
			snap.Requests[labelValue(ss, "endpoint")] = int64(ss.Value)
		}
	}
	if f := osnap.Family("nobld_latency_ms"); f != nil {
		for _, ss := range f.Series {
			snap.Latency[labelValue(ss, "algorithm")] = histogramJSON(ss)
		}
	}
	if f := osnap.Family("nobld_queue_wait_ms"); f != nil && len(f.Series) > 0 {
		snap.QueueWait = histogramJSON(f.Series[0])
	}
	if f := osnap.Family("nobld_run_ms"); f != nil {
		for _, ss := range f.Series {
			snap.Runs[labelValue(ss, "engine")] = histogramJSON(ss)
		}
	}
	if c := s.cluster; c != nil {
		cc := &ClusterCounters{
			Mode:         c.mode(),
			RingSize:     c.ring.Size(),
			PeersHealthy: c.tracker.Healthy(),
		}
		if f := osnap.Family("nobld_cluster_forwards_total"); f != nil {
			cc.Forwards = map[string]int64{}
			for _, ss := range f.Series {
				cc.Forwards[labelValue(ss, "peer")] = int64(ss.Value)
			}
		}
		if f := osnap.Family("nobld_cluster_forward_errors_total"); f != nil {
			cc.ForwardErrors = map[string]int64{}
			for _, ss := range f.Series {
				cc.ForwardErrors[labelValue(ss, "peer")] = int64(ss.Value)
			}
		}
		if f := osnap.Family("nobld_cluster_sheds_total"); f != nil {
			cc.Sheds = map[string]int64{}
			for _, ss := range f.Series {
				cc.Sheds[labelValue(ss, "reason")] = int64(ss.Value)
			}
		}
		snap.Cluster = cc
	}
	return snap
}

// handleMetrics renders the counters: Prometheus-style text by default,
// the MetricsSnapshot JSON with ?format=json.  Both renderings derive
// from the same registry snapshot.
//
//nob:deterministic
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	osnap := s.metrics.reg.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, s.metricsSnapshot(osnap))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w, osnap)
}
