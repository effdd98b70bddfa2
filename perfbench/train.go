package main

import (
	"fmt"
	"math"
	"time"

	"pipedream/internal/cliconf"
	"pipedream/internal/collective"
	"pipedream/internal/data"
	"pipedream/internal/metrics"
	"pipedream/internal/modelzoo/branching"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/profile"
	"pipedream/internal/tensor"
	"pipedream/internal/topology"
	"pipedream/internal/transport"
)

// trainRun is one built training workload: a pipeline ready for its
// timed epochs plus what the correctness checks need.
type trainRun struct {
	p          *pipeline.Pipeline
	plan       *partition.Plan
	prof       *profile.ModelProfile // nil for an analytic profile
	train      data.Dataset
	tt         *tracedTransport // nil unless traced
	closers    []func()
	maxLoss    float64                                     // final-epoch mean loss must stay below
	evalChecks func(model *nn.Sequential) ([]check, error) // held-out accuracy checks
}

func (r *trainRun) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// lstmStages pins train-lstm's plan 2-1: the input stage (emb + lstm1)
// replicated twice, then lstm2 + ft + dec.
var lstmStages = []partition.StageSpec{
	{FirstLayer: 0, LastLayer: 1, Replicas: 2},
	{FirstLayer: 2, LastLayer: 4, Replicas: 1},
}

// setupLSTM builds train-lstm: the sequence task (GNMT analogue)
// profiled with profile.Measure, priced with partition.NewPlan on the
// pinned 2-1 stages, run over in-process channels with the ring
// all-reduce, weight stashing and NOAM depth.
func setupLSTM(seed int64, t *tracer) (*trainRun, error) {
	mdl := &cliconf.Model{Task: "sequence", Seed: seed}
	task, err := mdl.Build()
	if err != nil {
		return nil, err
	}
	r := &trainRun{train: task.Train, maxLoss: 0.05}
	var prof *profile.ModelProfile
	t.time("profile.Measure", func() {
		prof = profile.Measure(task.Factory(), "sequence", task.Train, 8)
	})
	r.prof = prof
	t.time("partition.NewPlan", func() {
		r.plan, err = partition.NewPlan(prof, topology.Flat(3, 10e9, topology.V100),
			partition.PlanOptions{Stages: lstmStages, Sync: partition.SyncRing})
	})
	if err != nil {
		return nil, err
	}
	sync := pipeline.SyncConfig{AllReduce: collective.Ring}
	var tr transport.Transport = transport.NewChannels(r.plan.Workers, cliconf.Buffer(r.plan, task.Factory(), sync))
	r.closers = append(r.closers, func() { tr.Close() })
	if t != nil {
		r.tt = t.wrapTransport(tr)
		tr = r.tt
	}
	opts := pipeline.Options{
		ModelFactory: func() *nn.Sequential { return t.wrapModel(task.Factory()) },
		Plan:         r.plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: task.NewOptimizer,
		Mode:         pipeline.WeightStashing,
		Transport:    tr,
		SyncConfig:   sync,
	}
	if t != nil {
		opts.Metrics = metrics.NewRegistry()
	}
	t.time("pipeline.New", func() { r.p, err = pipeline.New(opts) })
	if err != nil {
		r.close()
		return nil, err
	}
	r.closers = append(r.closers, func() { r.p.Close() })
	eval := task.Eval
	r.evalChecks = func(model *nn.Sequential) ([]check, error) {
		acc := accuracy(eval, func(x *tensor.Tensor) (*tensor.Tensor, error) {
			y, _ := model.Forward(x, false)
			return y, nil
		}, func(l int) int { return l })
		return []check{{name: "eval-accuracy", ok: acc >= 0.95, detail: fmt.Sprintf("%.3f >= 0.95", acc)}}, nil
	}
	return r, nil
}

// setupDAG builds train-dag: the branching stand-in's five-stage
// residual diamond with two heads over TCP loopback, priced from the
// analytic profile (profile.Measure replays models as chains and cannot
// run this one).
func setupDAG(seed int64, t *tracer) (*trainRun, error) {
	b := branching.StandIn(seed)
	r := &trainRun{train: b.Train, maxLoss: 0.6}
	prof := &profile.ModelProfile{Model: b.Name, MinibatchSize: 1, InputBytes: 4}
	for range b.Factory().Layers {
		prof.Layers = append(prof.Layers, profile.LayerProfile{
			Name: "l", FwdTime: 1, BwdTime: 2, ActivationBytes: 4, WeightBytes: 4,
		})
	}
	var err error
	t.time("partition.NewPlan", func() {
		r.plan, err = partition.NewPlan(prof, topology.Flat(len(b.Stages), 1e9, topology.V100),
			partition.PlanOptions{Stages: b.Stages, Graph: b.Graph})
	})
	if err != nil {
		return nil, err
	}
	buffer := cliconf.Buffer(r.plan, b.Factory(), pipeline.SyncConfig{}) * b.Graph.MaxDegree()
	tcp, err := transport.NewTCP(r.plan.Workers, buffer)
	if err != nil {
		return nil, err
	}
	var tr transport.Transport = tcp
	r.closers = append(r.closers, func() { tcp.Close() })
	if t != nil {
		r.tt = t.wrapTransport(tr)
		tr = r.tt
	}
	opts := pipeline.Options{
		ModelFactory: func() *nn.Sequential { return t.wrapModel(b.Factory()) },
		Plan:         r.plan,
		Loss:         nn.SoftmaxCrossEntropy,
		SinkLoss:     map[int]pipeline.LossFunc{b.ParityHead: branching.ParityLoss},
		NewOptimizer: b.NewOptimizer,
		Mode:         pipeline.WeightStashing,
		Transport:    tr,
	}
	if t != nil {
		opts.Metrics = metrics.NewRegistry()
	}
	t.time("pipeline.New", func() { r.p, err = pipeline.New(opts) })
	if err != nil {
		r.close()
		return nil, err
	}
	r.closers = append(r.closers, func() { r.p.Close() })
	plan, eval := r.plan, b.Eval
	r.evalChecks = func(model *nn.Sequential) ([]check, error) {
		var out []check
		for _, h := range []struct {
			name  string
			stage int
			label func(int) int
			min   float64
		}{
			{"eval-accuracy-class-head", b.ClassHead, func(l int) int { return l }, 0.85},
			{"eval-accuracy-parity-head", b.ParityHead, func(l int) int { return l % 2 }, 0.75},
		} {
			var ferr error
			acc := accuracy(eval, func(x *tensor.Tensor) (*tensor.Tensor, error) {
				y, err := pipeline.ForwardGraphHead(model, plan, x, h.stage)
				if err != nil {
					ferr = err
				}
				return y, err
			}, h.label)
			if ferr != nil {
				return nil, ferr
			}
			out = append(out, check{name: h.name, ok: acc >= h.min, detail: fmt.Sprintf("%.3f >= %.2f", acc, h.min)})
		}
		return out, nil
	}
	return r, nil
}

// accuracy is the argmax accuracy of predict over every batch of ds
// against label(l) of each label l.
func accuracy(ds data.Dataset, predict func(*tensor.Tensor) (*tensor.Tensor, error), label func(int) int) float64 {
	correct, total := 0, 0
	for i := 0; i < ds.NumBatches(); i++ {
		b := ds.Batch(i)
		y, err := predict(b.X)
		if err != nil {
			return 0
		}
		rows, cols := y.Dim(0), y.Dim(1)
		for r := 0; r < rows; r++ {
			best, arg := y.At(r, 0), 0
			for c := 1; c < cols; c++ {
				if v := y.At(r, c); v > best {
					best, arg = v, c
				}
			}
			if arg == label(b.Labels[r]) {
				correct++
			}
		}
		total += rows
	}
	return float64(correct) / float64(total)
}

// epochLog collects what the timed epochs produced.
type epochLog struct {
	walls     []float64 // ms per Train call
	window    []int     // window of each epoch, in runEpochs
	steal     []float64 // stolen CPU share of each window, percent
	samples   int
	trainTime time.Duration
	minibatch int
	lastLoss  float64
	stages    []pipeline.StageStats // summed per worker over traced epochs
	trainSelf time.Duration         // Train span time not covered by any child span
	trainSpan time.Duration
}

// runEpochs trains whole epochs, one Train call each as pipedream-train
// does, until the deadline passes (and at least three). Epochs are
// grouped into windows of about a second, each with its stolen CPU
// share.
func runEpochs(r *trainRun, deadline time.Time) (*epochLog, error) {
	log := &epochLog{}
	meter, start := newStealMeter(), time.Now()
	for time.Now().Before(deadline) || len(log.walls) < 3 {
		if err := trainEpoch(r, nil, log); err != nil {
			return nil, err
		}
		log.window = append(log.window, len(log.steal))
		if time.Since(start) >= time.Second {
			log.steal = append(log.steal, meter.lap())
			start = time.Now()
		}
	}
	if log.window[len(log.window)-1] == len(log.steal) {
		log.steal = append(log.steal, meter.lap())
	}
	return log, nil
}

// quiet returns the samples/s and the median epoch wall time (ms) over
// the epochs of the quieter half of the windows.
func (log *epochLog) quiet() (rate, p50 float64) {
	keep := make(map[int]bool)
	for _, w := range quieter(log.steal) {
		keep[w] = true
	}
	var walls []float64
	var total float64 // ms
	for i, w := range log.window {
		if keep[w] {
			walls = append(walls, log.walls[i])
			total += log.walls[i]
		}
	}
	perEpoch := float64(log.samples) / float64(len(log.walls))
	return perEpoch * float64(len(walls)) / (total / 1000), percentile(walls, 50)
}

// startTraced forgets what the tracer saw during set-up and warm-up, so
// the totals cover only timed epochs.
func startTraced(r *trainRun, t *tracer) {
	t.reset("nn.")
	t.reset("transport.")
	r.tt.reset()
}

// trainEpoch trains one epoch and adds it to log. With a tracer the
// Train call is a span whose self time is what no layer or send span
// inside it covers.
func trainEpoch(r *trainRun, t *tracer, log *epochLog) error {
	mbs := r.train.NumBatches()
	var rep *pipeline.Report
	var err error
	if t != nil {
		s := t.time("pipeline.Train", func() { rep, err = r.p.Train(r.train, mbs) })
		if err == nil {
			log.trainSelf += time.Duration(selfTime(s, t.drainKept()))
			log.trainSpan += time.Duration(s.end - s.start)
		}
	} else {
		rep, err = r.p.Train(r.train, mbs)
	}
	if err != nil {
		return fmt.Errorf("train epoch %d: %w", len(log.walls)+1, err)
	}
	log.walls = append(log.walls, float64(rep.WallTime)/1e6)
	log.samples += rep.Samples
	log.trainTime += rep.WallTime
	log.minibatch += mbs
	log.lastLoss = rep.MeanLoss()
	if rep.Stages != nil {
		addStages(log, rep.Stages)
	}
	return nil
}

// addStages accumulates per-worker StageStats across epochs.
func addStages(log *epochLog, st []pipeline.StageStats) {
	if log.stages == nil {
		log.stages = make([]pipeline.StageStats, len(st))
		for i, s := range st {
			log.stages[i] = pipeline.StageStats{Worker: s.Worker, Stage: s.Stage, Replica: s.Replica}
		}
	}
	for i, s := range st {
		a := &log.stages[i]
		a.FwdOps += s.FwdOps
		a.BwdOps += s.BwdOps
		a.FwdTime += s.FwdTime
		a.BwdTime += s.BwdTime
		a.SyncWait += s.SyncWait
		a.SyncFirstWait += s.SyncFirstWait
		a.SyncTailWait += s.SyncTailWait
		a.Idle += s.Idle
		a.Wall += s.Wall
		// Means of per-epoch means, weighted by ops, are summed here and
		// divided out in the report.
		a.MeanQueueDepth += s.MeanQueueDepth * float64(s.FwdOps+s.BwdOps)
		a.MeanStaleness += s.MeanStaleness * float64(s.BwdOps)
		if s.PeakStashBytes > a.PeakStashBytes {
			a.PeakStashBytes = s.PeakStashBytes
		}
	}
}

// setupAndWarm builds the workload and warms it up with one untimed
// epoch (which also dials TCP links); it returns the run and how long
// that took.
func setupAndWarm(seed int64, setup func(int64, *tracer) (*trainRun, error), t *tracer) (*trainRun, time.Duration, error) {
	t0 := time.Now()
	r, err := setup(seed, t)
	if err != nil {
		return nil, 0, err
	}
	if _, err := r.p.Train(r.train, r.train.NumBatches()); err != nil {
		r.close()
		return nil, 0, fmt.Errorf("warm-up epoch: %w", err)
	}
	return r, time.Since(t0), nil
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// runTrain runs a training workload. With tracing off it sets up
// setupRepeats times (keeping the last), then trains whole epochs for
// the run's seconds. A traced run trains the first half untraced and
// the second half traced, to report the tracing overhead.
func runTrain(cfg runConfig, setup func(int64, *tracer) (*trainRun, error)) (*result, error) {
	res := &result{}
	if !cfg.trace {
		var setups []float64
		var r *trainRun
		for i := 0; i < setupRepeats; i++ {
			if r != nil {
				r.close()
			}
			var d time.Duration
			var err error
			if r, d, err = setupAndWarm(cfg.seed, setup, nil); err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		defer r.close()
		resetPeakRSS()
		log, err := runEpochs(r, deadlineAfter(cfg.seconds))
		if err != nil {
			return nil, err
		}
		if err := trainChecks(res, r, log); err != nil {
			return nil, err
		}
		rate, p50 := log.quiet()
		fmt.Printf("all %d epochs: %.6g samples/s, epoch p50 %.6g ms; quieter half of %d windows (steal %s %%): %.6g samples/s, p50 %.6g ms\n",
			len(log.walls), float64(log.samples)/log.trainTime.Seconds(), percentile(append([]float64(nil), log.walls...), 50),
			len(log.steal), fmtSteal(log.steal), rate, p50)
		res.set("setup_s", median(setups))
		res.set("mem_peak_mb", peakRSSMB())
		res.set("throughput_per_s", rate)
		res.set("latency_p50_ms", p50)
		return res, nil
	}

	// The traced run alternates epochs between an untraced and a traced
	// pipeline, so host drift cancels out of the tracing overhead.
	plain, _, err := setupAndWarm(cfg.seed, setup, nil)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	t := newTracer()
	r, _, err := setupAndWarm(cfg.seed, setup, t)
	if err != nil {
		return nil, err
	}
	defer r.close()
	startTraced(r, t)
	base, log := &epochLog{}, &epochLog{}
	g0 := readGoStats()
	hw := watchHeap()
	deadline := deadlineAfter(cfg.seconds)
	for err == nil && (time.Now().Before(deadline) || len(log.walls) < 3) {
		if err = trainEpoch(plain, nil, base); err == nil {
			err = trainEpoch(r, t, log)
		}
	}
	heapPeak := hw.end()
	g1 := readGoStats()
	if err != nil {
		return nil, err
	}
	if err := trainChecks(res, r, log); err != nil {
		return nil, err
	}
	rate := float64(log.samples) / log.trainTime.Seconds()
	baseRate := float64(base.samples) / base.trainTime.Seconds()
	res.set("trace.overhead_pct", (baseRate/rate-1)*100)
	res.set("go.allocs_per_mb", float64(g1.mallocs-g0.mallocs)/float64(base.minibatch+log.minibatch))
	res.set("go.gc_cpu_share", (g1.gcCPU-g0.gcCPU)/math.Max(g1.totalCPU-g0.totalCPU, 1e-9))
	res.set("go.heap_peak_mb", heapPeak)
	trainLayerMetrics(res, r, log, t, rate)
	return res, nil
}

// trainChecks records the run's phase counts and correctness checks: the
// last epoch's mean loss under the workload's threshold and held-out
// accuracy above its floor.
func trainChecks(res *result, r *trainRun, log *epochLog) error {
	res.phases = append(res.phases, phase{name: "train", sent: log.minibatch, ok: log.minibatch})
	res.checks = append(res.checks, check{name: "final-epoch-loss", ok: log.lastLoss < r.maxLoss,
		detail: fmt.Sprintf("%.4f < %g", log.lastLoss, r.maxLoss)})
	evals, err := r.evalChecks(r.p.CollectModel())
	if err != nil {
		return err
	}
	res.checks = append(res.checks, evals...)
	return nil
}

// trainLayerMetrics turns a traced run's spans, transport counts and
// Report.Stages into the per-layer metrics.
func trainLayerMetrics(res *result, r *trainRun, log *epochLog, t *tracer, rate float64) {
	mb := float64(log.minibatch)
	for _, l := range trainLayers {
		for _, dir := range []string{"fwd", "bwd"} {
			if n, tot := t.totals("nn." + l + "." + dir); n > 0 {
				res.set("nn."+l+"."+dir+"_us", us(tot)/float64(n))
			}
		}
	}
	_, fwd := t.sumPrefix("nn.", ".fwd")
	_, bwd := t.sumPrefix("nn.", ".bwd")
	layerTime := fwd + bwd

	var opTime, wall, syncWait, syncFirst time.Duration
	var ops int
	var queueW, staleW float64
	var stash int64
	perStage := make(map[int][]pipeline.StageStats)
	for _, s := range log.stages {
		opTime += s.FwdTime + s.BwdTime
		wall += s.Wall
		syncWait += s.SyncWait
		syncFirst += s.SyncFirstWait
		ops += s.FwdOps + s.BwdOps
		queueW += s.MeanQueueDepth
		staleW += s.MeanStaleness
		if s.PeakStashBytes > stash {
			stash = s.PeakStashBytes
		}
		perStage[s.Stage] = append(perStage[s.Stage], s)
	}
	if wall > 0 {
		res.set("nn.compute_share", float64(layerTime)/float64(wall))
	}
	if ops > 0 {
		res.set("pipeline.self_us_per_op", us(opTime-layerTime)/float64(ops))
		res.set("pipeline.queue_mean", queueW/float64(ops))
	}
	var bwdOps int
	for _, s := range log.stages {
		bwdOps += s.BwdOps
	}
	if bwdOps > 0 {
		res.set("pipeline.staleness_mean", staleW/float64(bwdOps))
	}
	res.set("pipeline.stash_peak_kb", float64(stash)/1024)
	if log.trainSpan > 0 {
		res.set("pipeline.train_self_share", float64(log.trainSelf)/float64(log.trainSpan))
	}
	for s, reps := range perStage {
		var busy, w, idle time.Duration
		for _, st := range reps {
			busy += st.FwdTime + st.BwdTime
			w += st.Wall
			idle += st.Idle
		}
		if w > 0 {
			res.set(fmt.Sprintf("pipeline.s%d.bubble", s), 1-float64(busy)/float64(w))
		}
		res.set(fmt.Sprintf("pipeline.s%d.idle_ms_per_mb", s), ms(idle)/mb)
		if r.prof != nil && s < len(r.plan.StageTimes) {
			// The plan's stage time is per minibatch amortized over the
			// stage's replicas: the replicas' mean busy time over all
			// minibatches.
			meas := busy.Seconds() / float64(len(reps)) / mb
			if meas > 0 {
				res.set(fmt.Sprintf("partition.pred_stage_err.s%d", s), r.plan.StageTimes[s]/meas-1)
			}
		}
	}
	if r.prof != nil && rate > 0 {
		res.set("partition.pred_tput_ratio", r.plan.PredictedThroughput/rate)
	}
	if syncWait > 0 {
		res.set("collective.sync_wait_ms_per_mb", ms(syncWait)/mb)
		res.set("collective.first_wait_share", float64(syncFirst)/float64(syncWait))
	}
	tt := r.tt.totals()
	res.set("transport.msgs_per_mb", float64(tt.msgs)/mb)
	res.set("transport.kb_per_mb", float64(tt.bytes)/1024/mb)
	if tt.msgs > 0 {
		res.set("transport.send_us_mean", us(tt.sendTotal)/float64(tt.msgs))
	}
	res.set("transport.send_us_p99", us(tt.sendP99))
	res.set("transport.send_us_per_mb", us(tt.sendTotal)/mb)
	res.set("collective.wire_kb_per_mb", float64(tt.chunkBytes)/1024/mb)
	res.set("collective.chunks_per_mb", float64(tt.chunks)/mb)
	if _, d := t.totals("profile.Measure"); d > 0 {
		res.set("profile.measure_ms", ms(d))
	}
	_, d := t.totals("partition.NewPlan")
	res.set("partition.plan_ms", ms(d))
	_, d = t.totals("pipeline.New")
	res.set("pipeline.new_ms", ms(d))
}
