// Package daemon is the compilation-as-a-service layer: a long-running
// HTTP/JSON server (cmd/cschedd) that schedules kernels onto machines
// with the communication-scheduling compiler and serves repeat requests
// from a content-addressed schedule cache.
//
// The serving pipeline per POST /v1/compile request:
//
//  1. resolve the kernel (named Table 1 kernel, "fig4", or inline kasm
//     source) and the machine (named catalog topology or inline text
//     description), and validate the options — failures are 400s and
//     never reach a worker;
//  2. derive the content-addressed cache key: sha256 over the lowered
//     IR, the machine's canonical text form, and the canonicalized
//     scheduling configuration (see Key);
//  3. serve a cache hit directly (the cache stores final response
//     bodies, so a hit is byte-identical to the compile that filled
//     it); with -cache-dir armed, a memory miss probes a persistent
//     disk tier next — checksummed frames written via temp-file +
//     atomic rename, so entries survive restarts, torn or corrupt
//     frames are quarantined (renamed .bad, never served), and a disk
//     hit is promoted into memory and served as X-Cschedd-Cache: disk;
//  4. otherwise collapse concurrent identical requests into one backing
//     compilation (singleflight) — only the flight leader passes
//     admission control (bounded queue over a bounded worker pool;
//     overflow is 429 + Retry-After) and runs CompileContext under the
//     request deadline, with the PR 5 cancellation/degradation
//     machinery intact.
//
// The server exposes GET /v1/status (a JSON operational snapshot),
// GET /metrics (Prometheus text exposition from the internal/obs
// registry), and GET /healthz, and drains gracefully: Drain stops
// admission, lets in-flight compilations finish within a grace period,
// then cancels the stragglers cooperatively.
package daemon

import (
	"repro/internal/core"
)

// CompileRequest is the POST /v1/compile body. Exactly one of Kernel
// and Source names the program; exactly one of Machine and MachineText
// names the target (Machine defaults to "distributed" when both are
// empty).
type CompileRequest struct {
	// Kernel is a built-in kernel name: a Table 1 name (DCT, FIR-FP,
	// ...) or "fig4", the §2 motivating example.
	Kernel string `json:"kernel,omitempty"`
	// Source is inline kasm kernel-language source.
	Source string `json:"source,omitempty"`
	// Machine is a catalog machine name: central, clustered2,
	// clustered4, distributed, paired, fig5.
	Machine string `json:"machine,omitempty"`
	// MachineText is an inline text machine description (the
	// fu/rf/bus/rport/wport/connect format of internal/machine).
	MachineText string `json:"machine_text,omitempty"`
	// Options tunes the scheduler; nil means the paper's configuration.
	Options *OptionsSpec `json:"options,omitempty"`
	// TimeoutMS bounds this compilation; the deadline propagates into
	// CompileContext and expiry is a 504. Zero falls back to the
	// server's default timeout (if any).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Portfolio races the §4.6 ablation portfolio over the server's
	// worker budget instead of a single configuration. The portfolio
	// result is deterministic, but may differ from the sequential
	// compiler's, so the flag is part of the cache key.
	Portfolio bool `json:"portfolio,omitempty"`
	// Degrade arms the stock degradation ladder; Ladder, when non-empty,
	// arms a custom one instead (and wins over Degrade).
	Degrade bool       `json:"degrade,omitempty"`
	Ladder  []RungSpec `json:"ladder,omitempty"`
}

// OptionsSpec is the JSON form of the scheduler options a request may
// set. Zero fields mean the scheduler defaults, exactly as in
// core.Options; the cache key canonicalizes them (Options.Canonical),
// so spelling a default explicitly does not split the cache.
type OptionsSpec struct {
	MaxII           int  `json:"max_ii,omitempty"`
	PermBudget      int  `json:"perm_budget,omitempty"`
	MaxCandidates   int  `json:"max_candidates,omitempty"`
	ScanWindow      int  `json:"scan_window,omitempty"`
	AttemptBudget   int  `json:"attempt_budget,omitempty"`
	CycleOrder      bool `json:"cycle_order,omitempty"`
	NoCostHeuristic bool `json:"no_cost_heuristic,omitempty"`
	TwoPhase        bool `json:"two_phase,omitempty"`
	RegisterAware   bool `json:"register_aware,omitempty"`
}

// options converts the spec to core.Options; a nil spec is the zero
// configuration.
func (s *OptionsSpec) options() core.Options {
	if s == nil {
		return core.Options{}
	}
	return core.Options{
		MaxII:           s.MaxII,
		PermBudget:      s.PermBudget,
		MaxCandidates:   s.MaxCandidates,
		ScanWindow:      s.ScanWindow,
		AttemptBudget:   s.AttemptBudget,
		CycleOrder:      s.CycleOrder,
		NoCostHeuristic: s.NoCostHeuristic,
		TwoPhase:        s.TwoPhase,
		RegisterAware:   s.RegisterAware,
	}
}

// RungSpec is the JSON form of one degradation-ladder rung
// (core.DegradeRung). Greedy selects the cheap cycle-order pipeline
// without the cost heuristic.
type RungSpec struct {
	Name          string `json:"name"`
	MaxII         int    `json:"max_ii,omitempty"`
	MaxIIBoost    int    `json:"max_ii_boost,omitempty"`
	PermBudget    int    `json:"perm_budget,omitempty"`
	AttemptBudget int    `json:"attempt_budget,omitempty"`
	ScanWindow    int    `json:"scan_window,omitempty"`
	Greedy        bool   `json:"greedy,omitempty"`
}

// ladder converts rung specs to a core ladder; nil when specs is empty.
func ladder(specs []RungSpec) *core.DegradeLadder {
	if len(specs) == 0 {
		return nil
	}
	l := &core.DegradeLadder{Rungs: make([]core.DegradeRung, len(specs))}
	for i, s := range specs {
		r := core.DegradeRung{
			Name:          s.Name,
			MaxII:         s.MaxII,
			MaxIIBoost:    s.MaxIIBoost,
			PermBudget:    s.PermBudget,
			AttemptBudget: s.AttemptBudget,
			ScanWindow:    s.ScanWindow,
		}
		if s.Greedy {
			r.Pipeline = &core.PipelineConfig{Order: core.OrderCycle, Preassign: false, CostHeuristic: false}
		}
		l.Rungs[i] = r
	}
	return l
}

// PassStatBody is one pass row of a compile response: the deterministic
// counters of core.PassStat. Wall time is deliberately absent — the
// cache stores response bodies, and a cached hit must be byte-identical
// to the cold compile that filled it, so nothing nondeterministic may
// enter the body.
type PassStatBody struct {
	Name  string `json:"name"`
	Runs  int    `json:"runs"`
	Steps int    `json:"steps"`
	Fails int    `json:"fails"`
}

// passBodies projects the deterministic counters out of PassStats.
func passBodies(ps core.PassStats) []PassStatBody {
	out := make([]PassStatBody, len(ps))
	for i, st := range ps {
		out[i] = PassStatBody{Name: st.Name, Runs: st.Runs, Steps: st.Steps, Fails: st.Fails}
	}
	return out
}

// CompileResponse is the POST /v1/compile success body. Every field is
// deterministic for a given cache key; whether the response came from
// the cache is reported out of band in the X-Cschedd-Cache header
// (hit / miss), keeping hit and cold bodies byte-identical.
type CompileResponse struct {
	// Key is the content-addressed cache key (hex sha256).
	Key     string `json:"key"`
	Kernel  string `json:"kernel"`
	Machine string `json:"machine"`
	// II, Preamble, LoopSpan, and Copies summarize the schedule the way
	// csched's banner line does.
	II       int `json:"ii"`
	Preamble int `json:"preamble"`
	LoopSpan int `json:"loop_span"`
	Copies   int `json:"copies"`
	// Degraded names the degradation-ladder rung that produced the
	// schedule; empty when the primary configuration won.
	Degraded string `json:"degraded,omitempty"`
	// Fingerprint is the hex sha256 of Schedule.Fingerprint(): two
	// responses describe bit-identical schedules iff it matches.
	Fingerprint string `json:"fingerprint"`
	// Schedule is the Fig. 7-style cycle × unit dump plus routes.
	Schedule string `json:"schedule"`
	// Passes carries the deterministic per-pass counters.
	Passes []PassStatBody `json:"passes"`
	// Utilization is the per-resource interconnect occupancy report.
	Utilization *core.UtilizationReport `json:"utilization"`
}

// ErrorBody is the JSON error shape of every non-2xx response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail mirrors core.CompileError for compilation failures;
// transport-level failures (bad JSON, overload, draining) fill only
// Status, Kind, and Reason.
type ErrorDetail struct {
	Status  int    `json:"status"`
	Kind    string `json:"kind"`
	Reason  string `json:"reason"`
	Pass    string `json:"pass,omitempty"`
	Kernel  string `json:"kernel,omitempty"`
	Machine string `json:"machine,omitempty"`
	II      int    `json:"ii,omitempty"`
	Op      int    `json:"op,omitempty"`
	Line    int    `json:"line,omitempty"`
	// RetryAfterS accompanies 429s: the Retry-After header in seconds.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// StageSpan is one stage of a request's timeline as served by
// /debug/requests: offsets and durations in fractional milliseconds
// from the request's start.
type StageSpan struct {
	Name       string  `json:"name"`
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
}

// RequestRecord is one flight-recorder ring entry: the request-scoped
// observability record of a finished compile request. Unlike compile
// response bodies, records are diagnostic and carry wall-clock times.
type RequestRecord struct {
	// Seq orders records across the ring's lifetime (monotonic).
	Seq uint64 `json:"seq"`
	// ID is the request's X-Cschedd-Request-Id; LeaderID, set on
	// followers, names the request whose backing compilation this one
	// collapsed onto.
	ID       string `json:"id"`
	LeaderID string `json:"leader_id,omitempty"`
	Kernel   string `json:"kernel,omitempty"`
	Machine  string `json:"machine,omitempty"`
	// Key is the content-addressed cache key; empty when the request
	// failed before one was derived.
	Key    string `json:"key,omitempty"`
	Status int    `json:"status"`
	// Cache is the schedule-cache disposition: hit, disk, miss, or join.
	Cache     string `json:"cache,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	// Start is the request's arrival in RFC 3339 UTC; DurationMS the
	// end-to-end latency; Stages the per-stage breakdown.
	Start      string      `json:"start"`
	DurationMS float64     `json:"duration_ms"`
	Stages     []StageSpan `json:"stages,omitempty"`
	// MemoHits is the search-effort counter spliced out of the backing
	// compilation (zero on cache hits and joins).
	MemoHits int `json:"memo_hits,omitempty"`
	// Trace reports whether a full event trace was captured for this
	// request: GET /debug/requests/{id} serves it as Chrome trace JSON.
	Trace bool `json:"trace"`
}

// RequestsResponse is the GET /debug/requests body, newest first.
type RequestsResponse struct {
	Requests []RequestRecord `json:"requests"`
}

// StatusResponse is the GET /v1/status body. The disk_* fields are
// present only when the persistent cache tier is armed (-cache-dir).
type StatusResponse struct {
	Draining     bool  `json:"draining"`
	Inflight     int64 `json:"inflight"`
	Queued       int64 `json:"queued"`
	Workers      int   `json:"workers"`
	QueueDepth   int   `json:"queue_depth"`
	Requests     int64 `json:"requests"`
	Compilations int64 `json:"compilations"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	Rejected     int64 `json:"rejected"`
	Errors       int64 `json:"errors"`
	CacheEntries int64 `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
	CacheBudget  int64 `json:"cache_budget"`
	// Disk-tier snapshot (zero / absent when the tier is off).
	DiskDir       string `json:"disk_dir,omitempty"`
	DiskEntries   int64  `json:"disk_entries,omitempty"`
	DiskBytes     int64  `json:"disk_bytes,omitempty"`
	DiskBudget    int64  `json:"disk_budget,omitempty"`
	DiskHits      int64  `json:"disk_hits,omitempty"`
	DiskMisses    int64  `json:"disk_misses,omitempty"`
	DiskCorrupt   int64  `json:"disk_corrupt,omitempty"`
	DiskEvictions int64  `json:"disk_evictions,omitempty"`
}
