package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/daemon"
)

//go:embed workloads/*.json
var workloadFiles embed.FS

// workloadNames lists the workloads in the order reports and tests use.
var workloadNames = []string{"compile-hard", "compile-light", "serve-hot", "serve-mixed"}

// keySpec names one compilation: a Table 1 kernel on a catalog machine
// under one option variant, optionally through the portfolio.
type keySpec struct {
	Kernel    string `json:"kernel"`
	Machine   string `json:"machine"`
	Variant   string `json:"variant,omitempty"`
	Portfolio bool   `json:"portfolio,omitempty"`
	// Join marks a miss-pool key that serve-mixed sends as a join pair.
	Join bool `json:"join,omitempty"`
	// ColdMS is the cold compile time (fresh machine, median of three)
	// measured when the miss pool was chosen; a record of why the key is
	// in the pool, never read at run time.
	ColdMS float64 `json:"cold_ms,omitempty"`
}

func (k keySpec) String() string {
	s := k.Kernel + "/" + k.Machine
	if k.Variant != "" && k.Variant != "default" {
		s += "/" + k.Variant
	}
	if k.Portfolio {
		s += "/portfolio"
	}
	return s
}

// options is the variant as the daemon's request options spell it;
// nil is the paper's configuration.
func (k keySpec) options() (*daemon.OptionsSpec, error) {
	switch k.Variant {
	case "", "default":
		return nil, nil
	case "cycle_order":
		return &daemon.OptionsSpec{CycleOrder: true}, nil
	case "no_cost_heuristic":
		return &daemon.OptionsSpec{NoCostHeuristic: true}, nil
	case "two_phase":
		return &daemon.OptionsSpec{TwoPhase: true}, nil
	}
	return nil, fmt.Errorf("unknown variant %q", k.Variant)
}

// coreOptions is options as the compiler takes them, built the way the
// daemon builds them from a request.
func (k keySpec) coreOptions() (core.Options, error) {
	o, err := k.options()
	if err != nil || o == nil {
		return core.Options{}, err
	}
	return core.Options{CycleOrder: o.CycleOrder, NoCostHeuristic: o.NoCostHeuristic, TwoPhase: o.TwoPhase}, nil
}

// mix is serve-mixed's traffic, as shares of requests. New counts every
// request that brings a miss-pool key the run has not sent before,
// including the first of each join pair; Join counts the duplicates sent
// beside them, which the pool's join marks decide and a test checks
// against this share.
type mix struct {
	Repeat    float64 `json:"repeat"`
	New       float64 `json:"new"`
	Join      float64 `json:"join"`
	Portfolio float64 `json:"portfolio"`
	Invalid   float64 `json:"invalid"`
	Inline    float64 `json:"inline"`
}

// workload is one committed workload file.
type workload struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // compile or serve
	// SLOMS is the latency limit of within_slo_share: per compile (CPU
	// time) for compile workloads, per request (from its due time) for
	// serve ones.
	SLOMS float64 `json:"slo_ms"`
	// SetupReps is how many times a run sets up, paced between the rounds
	// of a compile workload and in one burst before a serve workload's
	// load; setup_s is the median.
	SetupReps int `json:"setup_reps"`

	// Compile workloads.
	Pairs []keySpec `json:"pairs,omitempty"`

	// serve-hot: a closed loop over Hot, drawn by Zipf(ZipfS) in list
	// order, InlineShare of them spelled with inline source and
	// machine text.
	Hot         []keySpec `json:"hot,omitempty"`
	ZipfS       float64   `json:"zipf_s,omitempty"`
	InlineShare float64   `json:"inline_share,omitempty"`

	// serve-mixed: an open loop at RatePerS over the serve connections,
	// against a CacheBytes memory cache (0 is the daemon's default) with
	// the disk tier armed when DiskTier is set.
	RatePerS      float64   `json:"rate_per_s,omitempty"`
	CacheBytes    int64     `json:"cache_bytes,omitempty"`
	DiskTier      bool      `json:"disk_tier,omitempty"`
	Mix           *mix      `json:"mix,omitempty"`
	MissPool      []keySpec `json:"miss_pool,omitempty"`
	PortfolioPool []keySpec `json:"portfolio_pool,omitempty"`
	Verify        []keySpec `json:"verify,omitempty"`
}

// verifyKeys are the keys a serve workload recompiles directly after
// timing; their II and copy sums are its ii_sum and copies_sum.
func (w *workload) verifyKeys() []keySpec {
	if len(w.Verify) > 0 {
		return w.Verify
	}
	return w.Hot
}

// inputs are every key the workload sends or compiles; the per-layer
// kasm, machine and key timings run over them.
func (w *workload) inputs() []keySpec {
	var in []keySpec
	in = append(in, w.Pairs...)
	in = append(in, w.Hot...)
	in = append(in, w.MissPool...)
	return append(in, w.PortfolioPool...)
}

func loadWorkload(name string) (*workload, error) {
	data, err := workloadFiles.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	var w workload
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return &w, nil
}
