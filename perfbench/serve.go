package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pipedream/internal/cliconf"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/serve"
	"pipedream/internal/serve/fleet"
	"pipedream/internal/tensor"
	"pipedream/internal/topology"
)

// Open-loop serving load of serve-cnn.
const (
	lightRate      = 500.0  // requests/s in the light phase
	heavyRate      = 2000.0 // requests/s in the heavy phase
	latencyLimitMs = 10.0   // p90 limit of the rate search
	searchStep     = 1.05   // the search resolves the max rate to 5%
	searchGrow     = 1.25   // bracketing step of the search
	searchMinRate  = 50.0
	searchMaxRate  = 100000.0
	checkEvery     = 16 // every 16th request is compared bit for bit
)

// cnnStages pins serve-cnn's two stages: conv1+r1, then
// conv2+r2+flat+fc.
var cnnStages = []partition.StageSpec{
	{FirstLayer: 0, LastLayer: 1, Replicas: 1},
	{FirstLayer: 2, LastLayer: 5, Replicas: 1},
}

// rowShape is one image request row: 1 channel of 12x12.
var rowShape = []int{1, 12, 12}

// rowMix is the request size mix: mostly single rows, some 4-row
// requests, and a few 32-row requests, larger than MaxBatch, that the
// server splits and reassembles.
var rowMix = []struct {
	rows  int
	share float64
	pool  int // distinct inputs generated for this size
}{
	{1, 0.82, 2048},
	{4, 0.15, 512},
	{32, 0.03, 64},
}

// inputs is the seeded request input pool. Row 0 of each input is known
// by its first value, so a traced run can tell which request a batch
// row came from; inputs that share a first value are not attributed.
type inputs struct {
	bySize [][]*tensor.Tensor
	// first[c] is the global id of size class c's first input.
	first []int
	// rowOwner maps the bits of a row's first value to the global id of
	// the input whose row 0 it is, or -1 when two inputs share it.
	rowOwner map[uint32]int
	n        int // inputs in all
}

// id returns the global id of input index of size class c.
func (in *inputs) id(c, index int) int { return in.first[c] + index }

func newInputs(rng *rand.Rand) *inputs {
	in := &inputs{rowOwner: make(map[uint32]int)}
	n := 0
	for _, m := range rowMix {
		in.first = append(in.first, n)
		var xs []*tensor.Tensor
		for i := 0; i < m.pool; i++ {
			x := tensor.Randn(rng, 1, append([]int{m.rows}, rowShape...)...)
			xs = append(xs, x)
			key := math.Float32bits(x.Data[0])
			if _, dup := in.rowOwner[key]; dup {
				in.rowOwner[key] = -1
			} else {
				in.rowOwner[key] = n
			}
			n++
		}
		in.bySize = append(in.bySize, xs)
	}
	in.n = n
	return in
}

// arrival is one scheduled request.
type arrival struct {
	at    time.Duration // due, from the phase start
	class int
	index int
}

// schedule draws a Poisson arrival schedule at rate for d.
func schedule(rng *rand.Rand, rate float64, d time.Duration) []arrival {
	var out []arrival
	var at float64
	for {
		at += rng.ExpFloat64() / rate
		if at >= d.Seconds() {
			return out
		}
		u := rng.Float64()
		c := 0
		for acc := rowMix[0].share; c < len(rowMix)-1 && u >= acc; acc += rowMix[c].share {
			c++
		}
		out = append(out, arrival{at: time.Duration(at * float64(time.Second)), class: c, index: rng.Intn(rowMix[c].pool)})
	}
}

// goodput is the rate of requests that met the latency limit, from when
// they were due, over the given windows: the offered rate times the
// share within the limit. Failed and shed requests are misses.
func (p *phaseResult) goodput(windows []int) float64 {
	met := 0
	for _, w := range windows {
		for _, l := range p.windows[w] {
			if l <= latencyLimitMs {
				met++
			}
		}
	}
	return float64(met) / (p.dur.Seconds() * float64(len(windows)) / float64(len(p.windows)))
}

// all lists every window of the phase.
func (p *phaseResult) all() []int {
	out := make([]int, len(p.windows))
	for i := range out {
		out[i] = i
	}
	return out
}

// phaseWindows splits a phase into one-second windows (at least one).
func phaseWindows(d time.Duration) int {
	if n := int(d / time.Second); n > 1 {
		return n
	}
	return 1
}

// outcome is what happened to one scheduled request.
type outcome struct {
	due, sent, done time.Duration // since the phase start
	dispatched      atomic.Int64  // ns since tracer origin; 0 = unseen
	batchRows       atomic.Int64  // rows of the stage-0 batch it opened in
	err             error
	y               *tensor.Tensor // kept for sampled requests only
}

// phaseResult summarizes one open-loop phase.
type phaseResult struct {
	name       string
	rate       float64
	wall       time.Duration // until the last response
	dur        time.Duration // of the schedule
	sent, ok   int
	failed     int
	lat        []float64   // ms from due; misses are +Inf
	late       []float64   // ms the generator sent after due
	windows    [][]float64 // lat split into equal windows of due time
	steal      []float64   // stolen CPU share of each window, percent
	backlogEnd int         // requests outstanding when the last was sent
	outcomes   []outcome
	arrivals   []arrival
	origin     int64 // tracer time of the phase start (traced runs)
}

// p is the phase's q-th latency percentile: the median over its windows
// of each window's percentile, so one stall (a GC, a busy neighbour)
// moves one window rather than the phase.
func (p *phaseResult) p(q float64) float64 { return p.pOver(p.all(), q) }

// pOver is p over the given windows only.
func (p *phaseResult) pOver(windows []int, q float64) float64 {
	var per []float64
	for _, i := range windows {
		if w := p.windows[i]; len(w) > 0 {
			per = append(per, percentile(append([]float64(nil), w...), q))
		}
	}
	return median(per)
}

// serveRig is a running serving fleet plus its reference model.
type serveRig struct {
	f   *fleet.Fleet
	ten *fleet.Tenant
	ref *nn.Sequential
	in  *inputs
	t   *tracer

	mu      sync.Mutex
	current []outcome      // the phase the batch hook attributes rows to
	owner   []atomic.Int64 // per input id: index+1 of the outcome using it
}

// setupServe builds serve-cnn: the images task profiled and priced on
// its pinned two stages, served by a 2-replica fleet routed
// least-in-flight with the default batching, then warmed up.
func setupServe(seed int64, t *tracer) (*serveRig, error) {
	mdl := &cliconf.Model{Task: "images", Seed: seed}
	task, err := mdl.Build()
	if err != nil {
		return nil, err
	}
	var prof *profile.ModelProfile
	t.time("profile.Measure", func() { prof = profile.Measure(task.Factory(), "images", task.Train, 4) })
	var plan *partition.Plan
	t.time("partition.NewPlan", func() {
		plan, err = partition.NewPlan(prof, topology.Flat(2, 10e9, topology.V100), partition.PlanOptions{Stages: cnnStages})
	})
	if err != nil {
		return nil, err
	}
	rig := &serveRig{ref: task.Factory(), in: newInputs(rand.New(rand.NewSource(seed))), t: t}
	if t != nil {
		t.batchLayers = map[string]bool{"conv1": true}
		t.onBatch = rig.onBatch
	}
	model := t.wrapModel(task.Factory())
	t.time("fleet.New", func() {
		rig.f, err = fleet.New(fleet.Config{Replicas: 2, Policy: fleet.LeastInFlight},
			fleet.TenantConfig{Name: "cnn", Server: serve.Config{Model: model, Plan: plan, InputShape: rowShape}})
	})
	if err != nil {
		return nil, err
	}
	if rig.ten, err = rig.f.Tenant("cnn"); err != nil {
		rig.f.Close()
		return nil, err
	}
	rig.owner = make([]atomic.Int64, rig.in.n)
	// Warm up: a short heavy-rate open loop.
	warm := rig.run("warm-up", rand.New(rand.NewSource(seed+7)), heavyRate, 500*time.Millisecond, 1)
	if warm.failed > 0 {
		rig.f.Close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, warm.sent)
	}
	return rig, nil
}

// onBatch is the traced stage-0 hook: it stamps each request whose
// first row opens a batch with the time its compute started.
func (r *serveRig) onBatch(x *tensor.Tensor, at int64) {
	if x.NumDims() == 0 || x.Dim(0) == 0 {
		return
	}
	rowSize := x.Size() / x.Dim(0)
	for row := 0; row < x.Dim(0); row++ {
		id, ok := r.in.rowOwner[math.Float32bits(x.Data[row*rowSize])]
		if !ok || id < 0 {
			continue
		}
		if k := r.owner[id].Load(); k > 0 {
			r.mu.Lock()
			cur := r.current
			r.mu.Unlock()
			if int(k-1) < len(cur) && cur[k-1].dispatched.CompareAndSwap(0, at) {
				cur[k-1].batchRows.Store(int64(x.Dim(0)))
			}
		}
	}
}

// run drives one open-loop phase: requests are sent on a seeded Poisson
// schedule whether or not earlier ones have returned, and each latency
// runs from when the request was due.
func (r *serveRig) run(name string, rng *rand.Rand, rate float64, d time.Duration, windows int) *phaseResult {
	arr := schedule(rng, rate, d)
	pr := &phaseResult{name: name, rate: rate, arrivals: arr, outcomes: make([]outcome, len(arr))}
	r.mu.Lock()
	r.current = pr.outcomes
	r.mu.Unlock()
	var wg sync.WaitGroup
	var done atomic.Int64
	start := time.Now()
	if r.t != nil {
		pr.origin = r.t.now()
	}
	meter := newStealMeter()
	for i, a := range arr {
		if wait := a.at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		for int(a.at*time.Duration(windows)/d) > len(pr.steal) {
			pr.steal = append(pr.steal, meter.lap())
		}
		o := &pr.outcomes[i]
		o.due = a.at
		o.sent = time.Since(start)
		x := r.in.bySize[a.class][a.index]
		if r.t != nil {
			r.owner[r.in.id(a.class, a.index)].Store(int64(i + 1))
		}
		wg.Add(1)
		go func(i int, x *tensor.Tensor) {
			defer wg.Done()
			y, err := r.ten.Infer(x)
			o := &pr.outcomes[i]
			o.done = time.Since(start)
			o.err = err
			if err == nil && (i%checkEvery == 0 || !shapeOK(y, x.Dim(0))) {
				o.y = y
			}
			done.Add(1)
		}(i, x)
	}
	pr.backlogEnd = len(arr) - int(done.Load())
	for len(pr.steal) < windows {
		pr.steal = append(pr.steal, meter.lap())
	}
	wg.Wait()
	pr.wall = time.Since(start)
	pr.account(d, windows)
	return pr
}

// account turns the outcomes into the phase's counts, latencies and
// generator lateness. Latency runs from when a request was due, so time
// the generator fell behind counts against it; a failed or shed request
// is a miss. Windows split the phase's d by due time.
func (pr *phaseResult) account(d time.Duration, windows int) {
	pr.sent = len(pr.outcomes)
	pr.dur = d
	pr.windows = make([][]float64, windows)
	for i := range pr.outcomes {
		o := &pr.outcomes[i]
		pr.late = append(pr.late, ms(o.sent-o.due))
		lat := miss
		if o.err != nil {
			pr.failed++
		} else {
			pr.ok++
			lat = ms(o.done - o.due)
		}
		pr.lat = append(pr.lat, lat)
		w := int(o.due * time.Duration(windows) / d)
		if w >= windows {
			w = windows - 1
		}
		pr.windows[w] = append(pr.windows[w], lat)
	}
}

func shapeOK(y *tensor.Tensor, rows int) bool {
	return y != nil && y.NumDims() == 2 && y.Dim(0) == rows && y.Dim(1) == 4
}

// verify checks every response's shape and compares the sampled ones bit
// for bit against a whole-model ForwardInfer of the unwrapped reference
// model. It returns the number of responses checked and the failures.
func (r *serveRig) verify(pr *phaseResult) (checked, bad int) {
	a := tensor.NewArena()
	for i := range pr.outcomes {
		o := &pr.outcomes[i]
		if o.err != nil {
			continue
		}
		x := r.in.bySize[pr.arrivals[i].class][pr.arrivals[i].index]
		if o.y == nil { // shape was checked when the response arrived
			continue
		}
		checked++
		if !shapeOK(o.y, x.Dim(0)) {
			bad++
			continue
		}
		want := r.ref.ForwardInfer(x, a)
		for k := range want.Data {
			if math.Float32bits(want.Data[k]) != math.Float32bits(o.y.Data[k]) {
				bad++
				break
			}
		}
		a.Reset()
	}
	return checked, bad
}

// probe runs one rate-search step and reports whether the fleet kept up:
// p90 within the limit, nothing shed or failed, and no growing backlog.
func (r *serveRig) probe(rng *rand.Rand, rate float64, d time.Duration) (bool, *phaseResult) {
	pr := r.run(fmt.Sprintf("search@%.0f", rate), rng, rate, d, 4)
	return keptUp(pr), pr
}

// keptUp is the rate search's pass rule.
func keptUp(pr *phaseResult) bool {
	// In steady state the requests outstanding at any moment are about
	// rate × latency; twice the limit's worth means the queue is growing.
	backlogOK := float64(pr.backlogEnd) <= 2*pr.rate*latencyLimitMs/1000+16
	return pr.failed == 0 && pr.p(90) <= latencyLimitMs && backlogOK
}

// searchRate finds the highest rate that passes, starting from a rate
// already known to pass or fail. It grows (or shrinks) by searchGrow to
// bracket the limit, then bisects geometrically until the bracket is
// within searchStep, and never calls probe more than maxSteps times.
func searchRate(start float64, startOK bool, maxSteps int, probe func(rate float64) bool) float64 {
	lo, hi := 0.0, 0.0
	if startOK {
		lo = start
	} else {
		hi = start
	}
	steps := 0
	for steps < maxSteps && (lo == 0 || hi == 0) {
		var r float64
		if hi == 0 {
			r = lo * searchGrow
			if r > searchMaxRate {
				return lo
			}
		} else {
			r = hi / searchGrow
			if r < searchMinRate {
				return r
			}
		}
		steps++
		if probe(r) {
			lo = r
		} else {
			hi = r
		}
	}
	if lo == 0 {
		return hi / searchGrow
	}
	for steps < maxSteps && hi > 0 && hi/lo > searchStep {
		m := math.Sqrt(lo * hi)
		steps++
		if probe(m) {
			lo = m
		} else {
			hi = m
		}
	}
	return lo
}

// maxRate searches for the highest open-loop rate at which p90 stays
// within the limit, nothing fails and the backlog does not grow,
// starting from the heavy phase, in at most seven probes sharing budget.
func maxRate(rig *serveRig, rng *rand.Rand, heavy *phaseResult, budget time.Duration) float64 {
	const maxSteps = 7
	probes := []*phaseResult{heavy}
	lo := searchRate(heavy.rate, keptUp(heavy), maxSteps, func(rate float64) bool {
		ok, pr := rig.probe(rng, rate, budget/maxSteps)
		probes = append(probes, pr)
		fmt.Printf("search: %.0f req/s p90 %.3f ms failed %d backlog %d -> %v\n", rate, pr.p(90), pr.failed, pr.backlogEnd, ok)
		return ok
	})
	r := fitCrossing(probes, lo)
	fmt.Printf("search: highest passing probe %.0f req/s, fitted p90 limit crossing %.0f req/s\n", lo, r)
	return r
}

// fitCrossing refines the search result: it fits log p90 against log
// rate over every probe that failed nothing and returns the rate where
// the fit reaches the latency limit, kept within the probed range. A
// single noisy probe then moves the result less than it moves the
// bracket. With too few points or a flat fit it returns fallback.
func fitCrossing(probes []*phaseResult, fallback float64) float64 {
	var xs, ys []float64
	minR, maxR := math.Inf(1), 0.0
	for _, pr := range probes {
		p90 := pr.p(90)
		if pr.failed > 0 || math.IsInf(p90, 0) || p90 <= 0 {
			continue
		}
		xs = append(xs, math.Log(pr.rate))
		ys = append(ys, math.Log(p90))
		minR = math.Min(minR, pr.rate)
		maxR = math.Max(maxR, pr.rate)
	}
	if len(xs) < 3 {
		return fallback
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	if sxx == 0 || sxy/sxx < 0.1 {
		return fallback
	}
	b := sxy / sxx
	r := math.Exp(mx + (math.Log(latencyLimitMs)-my)/b)
	return math.Min(math.Max(r, minR), maxR)
}

// serveStats sums the replica servers' counters.
func (r *serveRig) serveStats() (st serve.Stats, picks []int64, retries int64) {
	ts := r.f.Stats().Tenants[0]
	for _, rep := range ts.Replicas {
		s := rep.Serve
		st.Requests += s.Requests
		st.Rows += s.Rows
		st.Responses += s.Responses
		st.Shed += s.Shed
		st.Errors += s.Errors
		st.Batches += s.Batches
		if s.P50Micros > st.P50Micros {
			st.P50Micros = s.P50Micros
		}
		picks = append(picks, rep.Picks)
	}
	return st, picks, ts.Retries
}

// runServe runs serve-cnn.
func runServe(cfg runConfig) (*result, error) {
	res := &result{}
	S := time.Duration(cfg.seconds * float64(time.Second))
	rng := rand.New(rand.NewSource(cfg.seed + 100))
	addPhase := func(rig *serveRig, pr *phaseResult) {
		checked, bad := rig.verify(pr)
		res.phases = append(res.phases, phase{name: pr.name, sent: pr.sent, ok: pr.ok, failed: pr.failed})
		res.checks = append(res.checks, check{name: pr.name + "-responses", ok: bad == 0,
			detail: fmt.Sprintf("%d sampled responses bit-identical to ForwardInfer, %d differ; every shape checked", checked-bad, bad)})
		fmt.Printf("phase %s: rate %.0f/s p50 %.3f ms p90 %.3f ms p99 %.3f ms late p99 %.3f ms\n",
			pr.name, pr.rate, pr.p(50), pr.p(90), pr.p(99), percentile(append([]float64(nil), pr.late...), 99))
	}
	if !cfg.trace {
		var setups []float64
		var rig *serveRig
		for i := 0; i < setupRepeats; i++ {
			if rig != nil {
				rig.f.Close()
			}
			t0 := time.Now()
			var err error
			if rig, err = setupServe(cfg.seed, nil); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		defer rig.f.Close()
		resetPeakRSS()
		light := rig.run("light", rng, lightRate, 2*S/5, phaseWindows(2*S/5))
		addPhase(rig, light)
		heavy := rig.run("heavy", rng, heavyRate, 3*S/5, phaseWindows(3*S/5))
		addPhase(rig, heavy)
		res.set("setup_s", median(setups))
		res.set("mem_peak_mb", peakRSSMB())
		qh, ql := quieter(heavy.steal), quieter(light.steal)
		fmt.Printf("quieter half of windows: light p50 %.6g ms (steal %s %%), heavy goodput %.6g/s of %.6g/s (steal %s %%)\n",
			light.pOver(ql, 50), fmtSteal(light.steal), heavy.goodput(qh), heavy.goodput(heavy.all()), fmtSteal(heavy.steal))
		res.set("throughput_per_s", heavy.goodput(qh))
		res.set("latency_p50_ms", light.pOver(ql, 50))
		return res, nil
	}
	return runServeTraced(cfg, res, rng, S, addPhase)
}

// runServeTraced runs a light phase on an untraced fleet, then light and
// heavy phases and the rate search on a traced one, and reports the
// per-layer metrics of the traced one.
func runServeTraced(cfg runConfig, res *result, rng *rand.Rand, S time.Duration, addPhase func(*serveRig, *phaseResult)) (*result, error) {
	plain, err := setupServe(cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	// The tracing overhead is read at light load, where latency repeats
	// to a few percent run to run; heavy-load latency moves more than the
	// overhead with the host alone.
	baseLight := plain.run("untraced-light", rng, lightRate, S/8, phaseWindows(S/8))
	plain.f.Close()

	t := newTracer()
	rig, err := setupServe(cfg.seed, t)
	if err != nil {
		return nil, err
	}
	defer rig.f.Close()
	t.reset("nn.")
	st0, picks0, retries0 := rig.serveStats()
	g0 := readGoStats()
	hw := watchHeap()
	light := rig.run("light", rng, lightRate, S/8, phaseWindows(S/8))
	heavy := rig.run("heavy", rng, heavyRate, S/4, phaseWindows(S/4))
	heapPeak := hw.end()
	g1 := readGoStats()
	st1, picks1, retries1 := rig.serveStats()
	addPhase(rig, light)
	addPhase(rig, heavy)
	res.set("serve.heavy_goodput_per_s", heavy.goodput(heavy.all()))

	for _, l := range serveLayers {
		if n, tot := t.totals("nn." + l + ".infer"); n > 0 {
			res.set("nn."+l+".infer_us", us(tot)/float64(n))
		}
	}
	_, infer := t.sumPrefix("nn.", ".infer")
	workers := 2 * len(cnnStages)
	res.set("nn.compute_share", float64(infer)/float64(time.Duration(workers)*(light.wall+heavy.wall)))
	res.set("serve.light_p50_ms", light.p(50))
	res.set("serve.light_p90_ms", light.p(90))
	res.set("serve.heavy_p50_ms", heavy.p(50))
	res.set("serve.heavy_p90_ms", heavy.p(90))
	res.set("serve.light_wait_share", waitShare(light, false))
	res.set("serve.heavy_wait_share", waitShare(heavy, false))
	res.set("serve.light_timeout_share", waitShare(light, true))
	res.set("serve.heavy_timeout_share", waitShare(heavy, true))
	batches := float64(st1.Batches - st0.Batches)
	reqs := float64(st1.Requests - st0.Requests)
	res.set("serve.rows_per_batch", float64(st1.Rows-st0.Rows)/batches)
	res.set("serve.batches_per_req", batches/reqs)
	res.set("serve.server_p50_ms", st1.P50Micros/1000)
	res.set("serve.p99_ms", heavy.p(99))
	res.set("serve.shed", float64(st1.Shed-st0.Shed))
	res.set("serve.errors", float64(st1.Errors-st0.Errors))
	var pmax, psum float64
	for i := range picks1 {
		p := float64(picks1[i] - picks0[i])
		psum += p
		pmax = math.Max(pmax, p)
	}
	res.set("fleet.pick_imbalance", pmax/(psum/float64(len(picks1)))-1)
	res.set("fleet.retries", float64(retries1-retries0))
	var sentLat []float64
	for _, pr := range []*phaseResult{light, heavy} {
		for i := range pr.outcomes {
			if o := &pr.outcomes[i]; o.err == nil {
				sentLat = append(sentLat, ms(o.done-o.sent))
			}
		}
	}
	res.set("fleet.client_minus_server_p50_ms", percentile(sentLat, 50)-st1.P50Micros/1000)
	_, d := t.totals("fleet.New")
	res.set("fleet.new_ms", ms(d))
	_, d = t.totals("profile.Measure")
	res.set("profile.measure_ms", ms(d))
	_, d = t.totals("partition.NewPlan")
	res.set("partition.plan_ms", ms(d))
	res.set("go.allocs_per_req", float64(g1.mallocs-g0.mallocs)/float64(light.sent+heavy.sent))
	res.set("go.gc_cpu_share", (g1.gcCPU-g0.gcCPU)/math.Max(g1.totalCPU-g0.totalCPU, 1e-9))
	res.set("go.heap_peak_mb", heapPeak)
	late := append(append([]float64(nil), light.late...), heavy.late...)
	res.set("gen.late_p99_ms", percentile(late, 99))
	res.set("gen.late_max_ms", percentile(late, 100))
	res.set("trace.overhead_pct", (light.p(50)/baseLight.p(50)-1)*100)
	// Last, so its probes stay out of the phase totals above.
	res.set("serve.max_rps", maxRate(rig, rng, heavy, S/2))
	return res, nil
}

// waitShare is the share of the phase's median latency (from send)
// that requests spent before their first row's stage-0 compute began:
// time in the batcher and in queues. With timeoutOnly it counts only
// what the batch timeout can explain: nothing for a request whose batch
// left full, and at most BatchTimeout otherwise; the rest of the wait
// is queueing.
func waitShare(pr *phaseResult, timeoutOnly bool) float64 {
	var waits, lats []float64
	for i := range pr.outcomes {
		o := &pr.outcomes[i]
		at := o.dispatched.Load()
		if o.err != nil || at == 0 {
			continue
		}
		w := time.Duration(at-pr.origin) - o.sent
		if timeoutOnly {
			switch {
			case o.batchRows.Load() >= serve.DefaultMaxBatch:
				w = 0
			case w > serve.DefaultBatchTimeout:
				w = serve.DefaultBatchTimeout
			}
		}
		waits = append(waits, ms(w))
		lats = append(lats, ms(o.done-o.sent))
	}
	if len(lats) == 0 {
		return 0
	}
	return median(waits) / median(lats)
}
