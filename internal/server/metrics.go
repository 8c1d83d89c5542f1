package server

import (
	"time"

	"repro/internal/obs"
)

// Lifecycle stage names. Every stage a request passes through is recorded
// on its span (in order, with durations) and observed into the
// lolserv_stage_seconds{stage,tier} histogram family:
//
//	admission      decoding and validating the request body
//	result_cache   result-cache lookup / claim / coalesced wait
//	queue_wait     waiting for a worker slot in the fairness pool
//	program_cache  program-cache lookup (includes parse+sema on a miss)
//	compile        building the engine's prepared form (≈0 once cached)
//	execute        running the job (in-process engine or native binary)
//	respond        encoding and writing the response body
const (
	stageAdmission    = "admission"
	stageResultCache  = "result_cache"
	stageQueueWait    = "queue_wait"
	stageProgramCache = "program_cache"
	stageCompile      = "compile"
	stageExecute      = "execute"
	stageRespond      = "respond"
)

// serverMetrics owns every instrument the server observes into, all
// registered on one obs.Registry that GET /metrics exposes. The registry
// is private to the Server — two Servers never collide on metric names —
// and instruments the hot path touches per job are plain fields or
// pre-resolved Vec children, so a job's metric cost is a handful of
// atomic adds, not map lookups.
type serverMetrics struct {
	reg *obs.Registry

	// HTTP surface.
	httpRequests   *obs.CounterVec   // endpoint, code
	requestSeconds *obs.HistogramVec // endpoint
	stageSeconds   *obs.HistogramVec // stage, tier
	queueWait      *obs.Histogram
	spmdSeconds    *obs.HistogramVec // tier: engine time inside the SPMD world

	// Job accounting (also mirrored into /v1/stats).
	outcomes *obs.CounterVec // outcome

	// Per-tier execution counters with the four children pre-resolved.
	executions                                  *obs.CounterVec // tier
	execInterp, execVM, execCompile, execNative *obs.Counter

	slow *obs.SlowRing
}

// newServerMetrics builds the registry and wires every server-owned
// counter into it. Counters that live inside the subsystems (caches,
// pool, native tier) are registered by reference: the subsystem keeps
// mutating its own field and the registry reads it at scrape time.
func newServerMetrics(s *Server, slowWindow int) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		httpRequests: reg.CounterVec("lolserv_http_requests_total",
			"HTTP requests served, by route and status code.", "endpoint", "code"),
		requestSeconds: reg.HistogramVec("lolserv_request_seconds",
			"End-to-end request wall time, by route.", nil, "endpoint"),
		stageSeconds: reg.HistogramVec("lolserv_stage_seconds",
			"Request lifecycle stage durations, by stage and executing tier.",
			nil, "stage", "tier"),
		queueWait: reg.Histogram("lolserv_queue_wait_seconds",
			"Time jobs spent waiting for a worker slot.", nil),
		spmdSeconds: reg.HistogramVec("lolserv_spmd_seconds",
			"Wall time inside the SPMD world proper (engine execution, "+
				"excluding frontend and output assembly), by tier.", nil, "tier"),
		outcomes: reg.CounterVec("lolserv_job_outcomes_total",
			"Jobs by final outcome.", "outcome"),
		executions: reg.CounterVec("lolserv_executions_total",
			"Jobs executed, by the engine tier that ran them.", "tier"),
		slow: obs.NewSlowRing(slowWindow),
	}
	m.execInterp = m.executions.With("interp")
	m.execVM = m.executions.With("vm")
	m.execCompile = m.executions.With("compile")
	m.execNative = m.executions.With("native")

	reg.RegisterCounter("lolserv_jobs_run_total", "Jobs that reached an execution tier.", &s.jobsRun)
	reg.RegisterCounter("lolserv_jobs_ok_total", "Jobs that ran to completion.", &s.jobsOK)
	reg.RegisterCounter("lolserv_jobs_failed_total", "Jobs that failed at run time (runtime error, budget, timeout, cancel).", &s.jobsFailed)
	reg.RegisterCounter("lolserv_jobs_rejected_total", "Jobs rejected before execution (invalid, parse error, busy).", &s.jobsRejected)
	reg.RegisterCounter("lolserv_batches_total", "Batch requests accepted.", &s.batchesRun)
	reg.RegisterGauge("lolserv_in_flight", "Jobs executing right now.", &s.inFlight)
	reg.RegisterGauge("lolserv_queue_depth", "Jobs waiting for a worker slot.", &s.pool.waiting)
	reg.GaugeFunc("lolserv_uptime_seconds", "Seconds since the server was built.",
		func() float64 { return time.Since(s.start).Seconds() })

	reg.RegisterCounter("lolserv_sched_jobs_total", "Jobs executed under the bounded worker scheduler.", &s.schedJobs)
	reg.RegisterCounter("lolserv_sched_parks_total", "PE continuations parked at a blocking point (barrier, lock).", &s.schedParks)
	reg.RegisterCounter("lolserv_sched_unparks_total", "Wakeups delivered to parked PE continuations.", &s.schedUnparks)
	reg.RegisterCounter("lolserv_sched_spurious_total", "Injected spurious wakeups absorbed by the park protocol.", &s.schedSpurious)
	reg.RegisterCounter("lolserv_sched_yields_total", "Cooperative yields by compute-bound PEs.", &s.schedYields)

	reg.RegisterCounter("lolserv_program_cache_hits_total", "Program cache hits.", &s.cache.hits)
	reg.RegisterCounter("lolserv_program_cache_misses_total", "Program cache misses (frontend ran).", &s.cache.misses)
	reg.RegisterCounter("lolserv_program_cache_evictions_total", "Programs evicted from the LRU.", &s.cache.evicted)
	reg.GaugeFunc("lolserv_program_cache_size", "Programs currently cached.",
		func() float64 { return float64(s.cache.Stats().Size) })

	if s.results != nil {
		reg.RegisterCounter("lolserv_result_cache_hits_total", "Jobs answered from a stored result.", &s.results.hits)
		reg.RegisterCounter("lolserv_result_cache_misses_total", "Cacheable jobs that had to execute.", &s.results.misses)
		reg.RegisterCounter("lolserv_result_cache_coalesced_total", "Jobs answered by an identical in-flight leader.", &s.results.coalesced)
		reg.RegisterCounter("lolserv_result_cache_bypassed_total", "Jobs of audited non-cacheable programs.", &s.results.bypassed)
		reg.RegisterCounter("lolserv_result_cache_evictions_total", "Results evicted from the LRU.", &s.results.evicted)
		reg.GaugeFunc("lolserv_result_cache_size", "Stored results and bypass markers.",
			func() float64 { return float64(s.results.Stats().Size) })
	}

	if s.native != nil {
		reg.RegisterCounter("lolserv_native_promotions_total", "Programs promoted to native binaries.", &s.native.promotions)
		reg.RegisterCounter("lolserv_native_build_failures_total", "Native builds that failed.", &s.native.buildFailures)
		reg.RegisterCounter("lolserv_native_unsupported_total", "Programs the native tier cannot express.", &s.native.unsupported)
		reg.RegisterCounter("lolserv_native_demotions_total", "Programs demoted after a tier failure.", &s.native.demotions)
		reg.RegisterCounter("lolserv_native_runs_total", "Jobs the native tier answered.", &s.native.runs)
		reg.RegisterCounter("lolserv_native_fallbacks_total", "Jobs re-run in-process after a tier failure.", &s.native.fallbacks)
		reg.RegisterCounter("lolserv_native_breaker_sheds_total", "Jobs kept in-process by an open circuit breaker.", &s.native.breakerSheds)
		reg.GaugeFunc("lolserv_native_breaker_state", "Circuit breaker state: 0 closed, 1 half-open, 2 open.",
			func() float64 { return float64(s.native.breaker.stateCode()) })
		reg.GaugeFunc("lolserv_native_breaker_trips_total", "Times the circuit breaker has opened.",
			func() float64 { return float64(s.native.breaker.tripCount()) })
		reg.GaugeFunc("lolserv_native_cache_evictions_total", "Binaries deleted by the disk quota.",
			func() float64 { return float64(s.native.cache.Evictions()) })
		reg.GaugeFunc("lolserv_native_cache_bytes", "Bytes of promoted binaries on disk.",
			func() float64 { b, _ := s.native.cache.DiskUsage(); return float64(b) })
		reg.GaugeFunc("lolserv_native_cache_entries", "Promoted binaries on disk.",
			func() float64 { _, n := s.native.cache.DiskUsage(); return float64(n) })
	}
	return m
}

// finishSpan folds one completed request span into the histograms and the
// slow ring. Spans with no recorded stages (the /v1/stats poll, a batch
// envelope whose per-job spans report themselves) are skipped so stage
// totals count each unit of work exactly once.
func (m *serverMetrics) finishSpan(snap obs.SpanSnapshot) {
	if len(snap.Stages) == 0 {
		return
	}
	tier := snap.Tier
	if tier == "" {
		// Jobs that never reached an engine (rejections, cache hits) still
		// have queue/cache stages worth attributing somewhere stable.
		tier = "none"
	}
	for _, st := range snap.Stages {
		m.stageSeconds.With(st.Name, tier).Observe(st.Dur.Seconds())
		if st.Name == stageQueueWait {
			m.queueWait.Observe(st.Dur.Seconds())
		}
	}
	m.slow.Offer(snap)
}
