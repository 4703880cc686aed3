package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/kasm"
	"repro/internal/kernels"
	"repro/internal/machine"
)

// entry is one valid key a serve workload sends, in both spellings.
// Both resolve to cacheKey, the key the bench derives itself with
// daemon.Key; the server must agree.
type entry struct {
	key      keySpec
	cacheKey string
	named    []byte // names the built-in kernel and catalog machine
	inline   []byte // the kernel's kasm source and the machine's text form
}

func newEntry(k keySpec) (*entry, error) {
	spec := kernels.ByName(k.Kernel)
	m := machine.ByName(k.Machine)
	if spec == nil || m == nil {
		return nil, fmt.Errorf("key %s: unknown kernel or machine", k)
	}
	kern, err := kasm.Compile(spec.Source)
	if err != nil {
		return nil, fmt.Errorf("kasm %s: %w", k.Kernel, err)
	}
	opts, err := k.options()
	if err != nil {
		return nil, err
	}
	copts, _ := k.coreOptions()
	named, err := json.Marshal(daemon.CompileRequest{Kernel: k.Kernel, Machine: k.Machine, Options: opts, Portfolio: k.Portfolio})
	if err != nil {
		return nil, err
	}
	inline, err := json.Marshal(daemon.CompileRequest{Source: spec.Source, MachineText: m.FormatText(), Options: opts, Portfolio: k.Portfolio})
	if err != nil {
		return nil, err
	}
	return &entry{key: k, cacheKey: daemon.Key(kern, m, copts, k.Portfolio), named: named, inline: inline}, nil
}

// request is one compile request of a run; entry is nil for a request
// the daemon must refuse with 400. kind is the serve-mixed traffic it
// stands for.
type request struct {
	body  []byte
	entry *entry
	kind  int
}

// invalidBodies are serve-mixed's invalid requests: an unknown kernel, a
// kasm syntax error, an unknown machine.
var invalidBodies = [][]byte{
	[]byte(`{"kernel":"NoSuchKernel","machine":"central"}`),
	[]byte(`{"source":"loop {","machine":"central"}`),
	[]byte(`{"kernel":"DCT","machine":"nosuch"}`),
}

// conn is one client connection to the daemon.
type conn struct {
	hc  *http.Client
	url string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr, Timeout: time.Minute}, url: base + "/v1/compile"}
}

type reply struct {
	status int
	cache  string
	body   []byte
	err    error
}

func (c *conn) post(body []byte, id string) reply {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(daemon.RequestIDHeader, id)
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get(daemon.CacheStateHeader), body: b, err: err}
}

// liveServer is an in-process daemon behind a loopback TCP listener.
type liveServer struct {
	d    *daemon.Server
	hs   *http.Server
	url  string
	dir  string // the disk tier's directory, removed on stop
	done chan struct{}
}

// startServer builds a daemon and its listener and starts serving; the
// duration is the set-up time, daemon.New plus listen, on the calling
// thread's CPU clock: both run on the calling goroutine.
func startServer(cfg daemon.Config) (*liveServer, time.Duration, error) {
	start := threadCPU()
	d, err := daemon.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	setup := threadCPU() - start
	if err != nil {
		d.Drain(context.Background())
		return nil, 0, err
	}
	s := &liveServer{d: d, hs: &http.Server{Handler: d}, url: "http://" + ln.Addr().String(), dir: cfg.CacheDir, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return s, setup, nil
}

// stop drains the daemon, closes the listener, waits for both and
// removes the disk tier.
func (s *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.d.Drain(ctx)
	_ = s.hs.Shutdown(ctx) // the drain already answered every request
	<-s.done
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func (s *liveServer) counter(name string) int64 {
	v, _ := s.d.Metrics().Snapshot()[name].(int64)
	return v
}

// checker holds the checks every response of a run passes: a valid
// request gets 200 and the same body bytes as every other response for
// its key, whatever the cache disposition; an invalid one gets 400.
type checker struct {
	mu    sync.Mutex
	first map[string][]byte // cache key → first 200 body
}

func (c *checker) check(req request, rep reply) error {
	if rep.err != nil {
		return rep.err
	}
	if req.entry == nil {
		if rep.status != http.StatusBadRequest {
			return fmt.Errorf("invalid request got status %d, want 400", rep.status)
		}
		return nil
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", req.entry.key, rep.status, rep.body)
	}
	c.mu.Lock()
	prev, seen := c.first[req.entry.cacheKey]
	if !seen {
		c.first[req.entry.cacheKey] = rep.body
	}
	c.mu.Unlock()
	if seen && !bytes.Equal(prev, rep.body) {
		return fmt.Errorf("%s: %s body differs from the key's first response", req.entry.key, rep.cache)
	}
	return nil
}

// outcome is what one request got.
type outcome struct {
	err   error
	cache string
}

// servePhase is one timed load phase against one server.
type servePhase struct {
	samples  []sample
	outs     []outcome
	elapsed  time.Duration
	alloc    uint64
	u0, u1   usage
	counters map[string]int64 // daemon counter increase over the phase
	lines    []logLine        // access-log lines of the phase's requests
}

func (p *servePhase) latencies() []float64 {
	lat := make([]float64, len(p.samples))
	for i, s := range p.samples {
		lat[i] = ms(s.latency())
	}
	return lat
}

// phaseCounters are the daemon counters the per-layer metrics read.
var phaseCounters = []string{"cschedd_compilations_total", "cschedd_cache_evictions_total", "cschedd_disk_corrupt_total"}

type serveRun struct {
	w       *workload
	o       runOpts
	r       *report
	chk     *checker
	fps     map[string]string // cache key → fingerprint served
	entries map[string]*entry // by keySpec.String()
	hot     []*entry
	pool    []*entry
	folio   []*entry
}

func (sv *serveRun) entry(k keySpec) (*entry, error) {
	if e := sv.entries[k.String()]; e != nil {
		return e, nil
	}
	e, err := newEntry(k)
	if err != nil {
		return nil, err
	}
	sv.entries[k.String()] = e
	return e, nil
}

func (sv *serveRun) entryList(keys []keySpec) ([]*entry, error) {
	out := make([]*entry, len(keys))
	for i, k := range keys {
		var err error
		if out[i], err = sv.entry(k); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// start builds a fresh server for the workload, with its own disk-tier
// directory when the workload arms one.
func (sv *serveRun) start(logger *accessLog) (*liveServer, time.Duration, error) {
	cfg := daemon.Config{CacheBytes: sv.w.CacheBytes}
	if logger != nil {
		cfg.Logger = logger.logger()
	}
	if sv.w.DiskTier {
		dir, err := os.MkdirTemp(sv.o.workdir, "disk-")
		if err != nil {
			return nil, 0, err
		}
		cfg.CacheDir = dir
	}
	s, d, err := startServer(cfg)
	if err != nil && cfg.CacheDir != "" {
		os.RemoveAll(cfg.CacheDir)
	}
	return s, d, err
}

// send posts one request and checks the reply.
func (sv *serveRun) send(c *conn, tr *tracer, id string, req request) outcome {
	start := time.Now()
	rep := c.post(req.body, id)
	tr.record("daemon.request", id, 0, start, time.Now())
	return outcome{err: sv.chk.check(req, rep), cache: rep.cache}
}

// hotLoad is serve-hot's closed loop: each client draws its keys from a
// Zipf distribution over the hot set in list order, from its own seeded
// stream, and spells a share of them inline.
func (sv *serveRun) hotLoad(conns []*conn, d time.Duration, tr *tracer, tag string) ([]sample, []outcome, time.Duration) {
	outs := make([][]outcome, len(conns))
	next := make([]func() request, len(conns))
	for w := range conns {
		rng := rand.New(rand.NewPCG(sv.o.seed, uint64(w)+1))
		z := rand.NewZipf(rng, sv.w.ZipfS, 1, uint64(len(sv.hot)-1))
		next[w] = func() request {
			e := sv.hot[z.Uint64()]
			if rng.Float64() < sv.w.InlineShare {
				return request{body: e.inline, entry: e}
			}
			return request{body: e.named, entry: e}
		}
	}
	per, elapsed := closedLoop(len(conns), d, func(w, seq int) {
		outs[w] = append(outs[w], sv.send(conns[w], tr, fmt.Sprintf("%s-w%d-%d", tag, w, seq), next[w]()))
	})
	var samples []sample
	var all []outcome
	for w := range per {
		samples = append(samples, per[w]...)
		all = append(all, outs[w]...)
	}
	return samples, all, elapsed
}

// Kinds of serve-mixed request. The mix deals the first five; kindJoin
// is the duplicate sent beside a new key marked join.
const (
	kindRepeat = iota
	kindInline
	kindNew
	kindPortfolio
	kindInvalid
	kindJoin
)

// mixedSchedule is serve-mixed's request stream for d at the workload's
// rate: each request's body and due time. The mix fixes how many
// requests of each kind there are, and they are dealt evenly over the
// run, one to a slot, so a stretch of it never bunches new keys together
// by chance. The requests and their order are the same for every seed:
// which earlier key a repeat reuses moves the cost of a run by several
// per cent, so a seeded choice would measure the seed. The seed places
// each slot's requests at a random point within the slot. A pool key
// marked join is sent twice at one due time, so both connections carry
// it at once.
func (sv *serveRun) mixedSchedule(d time.Duration) ([]request, []time.Duration) {
	n := sv.w.RatePerS * d.Seconds()
	m := sv.w.Mix
	shares := []float64{kindRepeat: m.Repeat, kindInline: m.Inline, kindNew: m.New, kindPortfolio: m.Portfolio, kindInvalid: m.Invalid}
	counts := make([]int, len(shares))
	total := 0
	for kind, share := range shares {
		counts[kind] = int(math.Round(share * n))
		total += counts[kind]
	}
	// Smooth weighted round robin: each slot goes to the kind furthest
	// behind its share.
	deck := make([]int, total)
	credit := make([]int, len(counts))
	for s := range deck {
		best := 0
		for kind, c := range counts {
			credit[kind] += c
			if credit[kind] > credit[best] {
				best = kind
			}
		}
		credit[best] -= total
		deck[s] = best
	}
	// A repeat needs a key sent before it, so the run opens with a new
	// key: the first one dealt trades places with slot 0.
	if first := slices.Index(deck, kindNew); first > 0 {
		deck[0], deck[first] = deck[first], deck[0]
	}
	// Both pools go out in one shuffled order. A repeat picks uniformly
	// among the keys sent so far, so the first keys sent are repeated most.
	fixed := rand.New(rand.NewPCG(0, 0))
	poolOrder, folioOrder := fixed.Perm(len(sv.pool)), fixed.Perm(len(sv.folio))

	rng := rand.New(rand.NewPCG(sv.o.seed, 0))
	interval := float64(d) / float64(len(deck))
	var (
		reqs          []request
		dues          []time.Duration
		served        []*entry
		fresh, folios int
	)
	for slot, kind := range deck {
		due := time.Duration((float64(slot) + rng.Float64()) * interval)
		push := func(body []byte, e *entry, kind int) {
			reqs = append(reqs, request{body: body, entry: e, kind: kind})
			dues = append(dues, due)
		}
		switch kind {
		case kindRepeat:
			e := served[fixed.IntN(len(served))]
			push(e.named, e, kind)
		case kindInline:
			e := served[fixed.IntN(len(served))]
			push(e.inline, e, kind)
		case kindNew:
			e := sv.pool[poolOrder[fresh%len(poolOrder)]]
			fresh++
			push(e.named, e, kind)
			if e.key.Join {
				push(e.named, e, kindJoin)
			}
			served = append(served, e)
		case kindPortfolio:
			e := sv.folio[folioOrder[folios%len(folioOrder)]]
			push(e.named, e, kind)
			if folios < len(folioOrder) {
				served = append(served, e)
			}
			folios++
		default:
			push(invalidBodies[fixed.IntN(len(invalidBodies))], nil, kind)
		}
	}
	return reqs, dues
}

// phase runs one timed load phase of d against s. Requests are tagged
// with tag so the access log's lines can be matched to them.
func (sv *serveRun) phase(s *liveServer, d time.Duration, tr *tracer, tag string, log *accessLog) (*servePhase, error) {
	// Two connections, one sender each, and never more senders than CPUs.
	conns := make([]*conn, min(2, sv.o.nproc))
	for i := range conns {
		conns[i] = newConn(s.url)
		defer conns[i].hc.CloseIdleConnections()
	}
	if len(sv.hot) > 0 {
		// Warm the memory cache over the hot set in both spellings.
		for i, e := range sv.hot {
			for j, body := range [][]byte{e.named, e.inline} {
				sv.r.attempted++
				if out := sv.send(conns[0], nil, fmt.Sprintf("warm-%s-%d-%d", tag, i, j), request{body: body, entry: e}); out.err != nil {
					sv.r.opFailed("warm-up: %v", out.err)
				}
			}
		}
	}

	p := &servePhase{counters: map[string]int64{}}
	for _, c := range phaseCounters {
		p.counters[c] = -s.counter(c)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.u0 = readUsage()
	if len(sv.hot) > 0 {
		p.samples, p.outs, p.elapsed = sv.hotLoad(conns, d, tr, tag)
	} else {
		reqs, dues := sv.mixedSchedule(d)
		p.outs = make([]outcome, len(reqs))
		p.samples = openLoop(dues, len(conns), func(w, i int) {
			p.outs[i] = sv.send(conns[w], tr, fmt.Sprintf("%s-%d", tag, i), reqs[i])
		})
		for _, smp := range p.samples {
			p.elapsed = max(p.elapsed, smp.done)
		}
	}
	p.u1 = readUsage()
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	for _, c := range phaseCounters {
		p.counters[c] += s.counter(c)
	}

	for _, out := range p.outs {
		sv.r.attempted++
		if out.err != nil {
			sv.r.opFailed("%v", out.err)
		}
	}
	if n := s.counter("cschedd_disk_corrupt_total"); n != 0 {
		sv.r.problem("daemon.disk_corrupt = %d, want 0", n)
	}
	if sv.w.Mix != nil {
		count := map[string]int{}
		for _, out := range p.outs {
			count[out.cache]++
		}
		for _, disp := range dispositions {
			if count[disp] == 0 {
				sv.r.problem("phase %s served no %s response", tag, disp)
			}
		}
	}
	if log != nil {
		var err error
		if p.lines, err = waitForLines(log, tag+"-", len(p.outs)); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// waitForLines returns the access-log lines whose request id starts
// with prefix once there are n of them. The daemon logs a request after
// its response is on the wire, so the last lines can trail the replies.
func waitForLines(log *accessLog, prefix string, n int) ([]logLine, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		all, err := log.lines()
		if err != nil {
			return nil, err
		}
		var lines []logLine
		for _, l := range all {
			if strings.HasPrefix(l.ID, prefix) {
				lines = append(lines, l)
			}
		}
		if len(lines) >= n {
			return lines, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("access log has %d lines for %d requests", len(lines), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// verify recompiles the workload's verification keys directly after
// timing (through the portfolio for portfolio keys), asks the server for
// each once more, and requires the served key, II and fingerprint to
// match the direct compile; each schedule then runs on the simulator. It
// returns the II and copy sums.
func (sv *serveRun) verify(s *liveServer, agg *compileAgg) (ii, copies int, err error) {
	c := newConn(s.url)
	defer c.hc.CloseIdleConnections()
	for i, k := range sv.w.verifyKeys() {
		e, err := sv.entry(k)
		if err != nil {
			return 0, 0, err
		}
		sv.r.attempted++
		rep := c.post(e.named, fmt.Sprintf("verify-%d", i))
		if err := sv.chk.check(request{body: e.named, entry: e}, rep); err != nil {
			sv.r.opFailed("verify: %v", err)
			continue
		}
		var body daemon.CompileResponse
		if err := json.Unmarshal(rep.body, &body); err != nil {
			sv.r.opFailed("verify %s: %v", k, err)
			continue
		}
		spec := kernels.ByName(k.Kernel)
		kern, err := kasm.Compile(spec.Source)
		if err != nil {
			return 0, 0, err
		}
		opts, _ := k.coreOptions()
		m := machine.ByName(k.Machine)
		sv.r.attempted++
		var sched *core.Schedule
		start := time.Now()
		if k.Portfolio {
			sched, _, err = core.CompilePortfolio(context.Background(), kern, m, opts, core.PortfolioOptions{Workers: sv.o.nproc})
			sv.o.tracer.record("core.CompilePortfolio", "verify/"+k.String(), 0, start, time.Now())
		} else {
			sched, err = core.Compile(kern, m, opts)
			sv.o.tracer.record("core.Compile", "verify/"+k.String(), 0, start, time.Now())
		}
		if err != nil {
			sv.r.opFailed("compile %s: %v", k, err)
			continue
		}
		// A portfolio's pass counters depend on how its race ran, so only
		// single compiles feed the pass metrics.
		if !k.Portfolio {
			agg.add(sched, time.Since(start))
		}
		fp := sha256.Sum256([]byte(sched.Fingerprint()))
		if body.Key != e.cacheKey || body.II != sched.II || body.Fingerprint != hex.EncodeToString(fp[:]) {
			sv.r.opFailed("%s: served key/II/fingerprint differ from a direct compile", k)
			continue
		}
		ii += sched.II
		copies += len(sched.Ops) - len(kern.Ops)
		simulate(sv.r, sv.o.tracer, k.String(), spec, sched)
	}
	agg.rounds = 1
	return ii, copies, nil
}

// settle checks the first body each key got from the server just used:
// it must carry the key the bench derived for it, so both spellings and
// the bench agree on what was cached, and the schedule fingerprint any
// earlier server served for the key. Byte identity then starts over:
// a server promises identical bytes only for what it caches, and a
// portfolio body's pass counters differ between two cold compiles.
func (sv *serveRun) settle() {
	for key, b := range sv.chk.first {
		var body daemon.CompileResponse
		if err := json.Unmarshal(b, &body); err != nil || body.Key != key {
			sv.r.problem("%s: served body does not carry its cache key", key)
			continue
		}
		if fp, ok := sv.fps[key]; ok && fp != body.Fingerprint {
			sv.r.problem("%s: two servers served different schedules", key)
		}
		sv.fps[key] = body.Fingerprint
	}
	sv.chk.first = map[string][]byte{}
}

func runServe(w *workload, o runOpts, r *report) error {
	sv := &serveRun{w: w, o: o, r: r, chk: &checker{first: map[string][]byte{}}, fps: map[string]string{}, entries: map[string]*entry{}}
	var err error
	if sv.hot, err = sv.entryList(w.Hot); err != nil {
		return err
	}
	if sv.pool, err = sv.entryList(w.MissPool); err != nil {
		return err
	}
	if sv.folio, err = sv.entryList(w.PortfolioPool); err != nil {
		return err
	}

	var (
		setup []float64
		srv   *liveServer
	)
	for i := 0; i < w.SetupReps; i++ {
		s, d, err := sv.start(nil)
		if err != nil {
			return err
		}
		setup = append(setup, d.Seconds())
		if srv != nil {
			srv.stop()
		}
		srv = s
	}
	r.set("setup_s", median(setup))
	defer func() { srv.stop() }()

	var p *servePhase
	if !o.trace {
		if p, err = sv.phase(srv, o.seconds, nil, "run", nil); err != nil {
			return err
		}
	} else {
		a, err := sv.phase(srv, o.seconds/2, nil, "untraced", nil)
		if err != nil {
			return err
		}
		sv.settle()
		log := &accessLog{}
		traced, _, err := sv.start(log)
		if err != nil {
			return err
		}
		srv.stop()
		srv = traced
		if p, err = sv.phase(srv, o.seconds/2, o.tracer, "traced", log); err != nil {
			return err
		}
		r.set("bench.trace_overhead_share", median(p.latencies())/median(a.latencies())-1)
	}

	var agg compileAgg
	ii, copies, err := sv.verify(srv, &agg)
	if err != nil {
		return err
	}
	sv.settle()
	r.set("ii_sum", float64(ii))
	r.set("copies_sum", float64(copies))

	lat := p.latencies()
	n := float64(len(lat))
	if !o.trace {
		p99, err := tailPercentile(lat, 99, o.minTail)
		if err != nil {
			return err
		}
		ok := 0
		for i, l := range lat {
			if p.outs[i].err == nil && l <= w.SLOMS {
				ok++
			}
		}
		r.set("ops_per_s", n/p.elapsed.Seconds())
		r.set("latency_p50_ms", percentile(lat, 50))
		r.set("latency_p99_ms", p99)
		r.set("alloc_mb_per_op", float64(p.alloc)/n/1e6)
		r.set("within_slo_share", float64(ok)/n)
		return nil
	}

	agg.report(r)
	stages := map[string][]float64{}
	var stageSum, total float64
	for _, l := range p.lines {
		total += l.DurationMS
		for name, v := range l.Stages {
			stages[name] = append(stages[name], v)
			stageSum += v
		}
	}
	for _, st := range requestStages {
		r.set("daemon."+st+".p50_ms", percentile(stages[st], 50))
		r.set("daemon."+st+".p99_ms", percentile(stages[st], 99))
	}
	if total > 0 {
		r.set("daemon.stage_coverage", stageSum/total)
	}
	byDisp := map[string][]float64{}
	var withDisp float64
	for i, out := range p.outs {
		if out.cache != "" {
			byDisp[out.cache] = append(byDisp[out.cache], lat[i])
			withDisp++
		}
	}
	for _, d := range dispositions {
		if withDisp > 0 {
			r.set("daemon."+d+"_share", float64(len(byDisp[d]))/withDisp)
		}
		r.set("daemon."+d+".p50_ms", percentile(byDisp[d], 50))
	}
	r.set("daemon.compilations", float64(p.counters["cschedd_compilations_total"]))
	r.set("daemon.cache_evictions", float64(p.counters["cschedd_cache_evictions_total"]))
	r.set("daemon.disk_corrupt", float64(p.counters["cschedd_disk_corrupt_total"]))
	late := make([]float64, len(p.samples))
	for i, s := range p.samples {
		late[i] = ms(s.late())
	}
	r.set("loadgen.late_p99_ms", percentile(late, 99))
	r.set("loadgen.sent", n)
	r.set("loadgen.cpu_util", cpuUtil(p.u0, p.u1, o.nproc))
	return layerCalls(r, o.tracer, w.inputs(), 3)
}
