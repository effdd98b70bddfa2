// Command perfbench is the repository benchmark: it runs one workload
// against the public APIs of the pipeline, serving fleet, profiler and
// partitioner, checks the outputs, and prints every metric by name and
// unit, ending with one JSON line. A traced run (--trace 1) reports the
// per-layer metrics instead, timed from this package's own wrappers
// around the calls into each layer.
//
//	bash perfbench/run.sh --workload train-lstm --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare <results-A> <results-B>
//
// Workloads: train-lstm, train-dag, serve-cnn (see NOTES.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// check is one correctness check.
type check struct {
	name   string
	ok     bool
	detail string
}

// phase counts the operations of one part of a run.
type phase struct {
	name             string
	sent, ok, failed int
}

// result is what a workload reports.
type result struct {
	checks  []check
	phases  []phase
	metrics map[string]float64
}

func (r *result) set(name string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]float64)
	}
	r.metrics[name] = v
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*result, error){
	"train-lstm": func(c runConfig) (*result, error) { return runTrain(c, setupLSTM) },
	"train-dag":  func(c runConfig) (*result, error) { return runTrain(c, setupDAG) },
	"serve-cnn":  runServe,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare <results-A> <results-B>")
			os.Exit(2)
		}
		if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload to run: train-lstm, train-dag, or serve-cnn")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d gomaxprocs=%d\n",
		*workload, cfg.seed, cfg.seconds, *traceFlag, runtime.GOMAXPROCS(0))
	calib := calibrate()
	steal0, total0 := cpuTicks()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.set("host.calib_ms", calib)
	steal1, total1 := cpuTicks()
	res.set("host.steal_pct", stealPct(steal0, total0, steal1, total1))
	if err := emit(os.Stdout, res, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints the human-readable lines (phases, checks, every metric),
// then the one-line JSON result with exactly the metrics the mode
// reports.
func emit(w io.Writer, res *result, traced bool) error {
	attempted, failed := 0, 0
	for _, p := range res.phases {
		fmt.Fprintf(w, "phase %s: sent %d ok %d failed %d\n", p.name, p.sent, p.ok, p.failed)
		attempted += p.sent
		failed += p.failed
	}
	correct := true
	for _, c := range res.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
			correct = false
			failed++
		}
		attempted++
		fmt.Fprintf(w, "check %s: %s (%s)\n", c.name, status, c.detail)
	}
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			v = 0 // a layer this workload bypasses
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if !traced {
		// Host-drift guards, printed beside the end-to-end metrics; the
		// traced run lists them among its own.
		fmt.Fprintf(w, "metric host.calib_ms %.6g ms\n", res.metrics["host.calib_ms"])
		fmt.Fprintf(w, "metric host.steal_pct %.6g %%\n", res.metrics["host.steal_pct"])
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %s %.6g %s\n", n, out[n].Value, out[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, attempted, failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

// Layer names of the three workloads' models.
var (
	trainLayers = []string{"emb", "lstm1", "lstm2", "ft", "dec",
		"stem", "stem_t", "branch", "branch_t", "trunk", "trunk_t", "class_head", "parity_head"}
	serveLayers = []string{"conv1", "r1", "conv2", "r2", "flat", "fc"}
)

// maxStages is the most stages any workload's plan has (train-dag);
// lstmStages are the ones whose predicted times are checked.
const maxStages = 5

// perLayer lists the traced run's metrics. Every workload reports all
// of them; a layer the workload bypasses reads 0.
func perLayer() []metricDef {
	var d []metricDef
	for _, l := range trainLayers {
		d = append(d, metricDef{"nn." + l + ".fwd_us", "us"}, metricDef{"nn." + l + ".bwd_us", "us"})
	}
	for _, l := range serveLayers {
		d = append(d, metricDef{"nn." + l + ".infer_us", "us"})
	}
	d = append(d, metricDef{"nn.compute_share", "share"})
	for s := 0; s < maxStages; s++ {
		d = append(d, metricDef{fmt.Sprintf("pipeline.s%d.bubble", s), "share"},
			metricDef{fmt.Sprintf("pipeline.s%d.idle_ms_per_mb", s), "ms"})
	}
	d = append(d,
		metricDef{"pipeline.self_us_per_op", "us"},
		metricDef{"pipeline.train_self_share", "share"},
		metricDef{"pipeline.queue_mean", "count"},
		metricDef{"pipeline.staleness_mean", "count"},
		metricDef{"pipeline.stash_peak_kb", "KiB"},
		metricDef{"pipeline.new_ms", "ms"},
		metricDef{"transport.msgs_per_mb", "count"},
		metricDef{"transport.kb_per_mb", "KiB"},
		metricDef{"transport.send_us_mean", "us"},
		metricDef{"transport.send_us_p99", "us"},
		metricDef{"transport.send_us_per_mb", "us"},
		metricDef{"collective.sync_wait_ms_per_mb", "ms"},
		metricDef{"collective.first_wait_share", "share"},
		metricDef{"collective.wire_kb_per_mb", "KiB"},
		metricDef{"collective.chunks_per_mb", "count"},
		metricDef{"profile.measure_ms", "ms"},
		metricDef{"partition.plan_ms", "ms"},
	)
	for s := range lstmStages {
		d = append(d, metricDef{fmt.Sprintf("partition.pred_stage_err.s%d", s), "share"})
	}
	d = append(d,
		metricDef{"partition.pred_tput_ratio", "ratio"},
		metricDef{"serve.light_p50_ms", "ms"},
		metricDef{"serve.light_p90_ms", "ms"},
		metricDef{"serve.heavy_p50_ms", "ms"},
		metricDef{"serve.heavy_p90_ms", "ms"},
		metricDef{"serve.max_rps", "1/s"},
		metricDef{"serve.heavy_goodput_per_s", "1/s"},
		metricDef{"serve.light_wait_share", "share"},
		metricDef{"serve.heavy_wait_share", "share"},
		metricDef{"serve.light_timeout_share", "share"},
		metricDef{"serve.heavy_timeout_share", "share"},
		metricDef{"serve.rows_per_batch", "count"},
		metricDef{"serve.batches_per_req", "count"},
		metricDef{"serve.server_p50_ms", "ms"},
		metricDef{"serve.p99_ms", "ms"},
		metricDef{"serve.shed", "count"},
		metricDef{"serve.errors", "count"},
		metricDef{"fleet.new_ms", "ms"},
		metricDef{"fleet.pick_imbalance", "share"},
		metricDef{"fleet.retries", "count"},
		metricDef{"fleet.client_minus_server_p50_ms", "ms"},
		metricDef{"go.allocs_per_mb", "count"},
		metricDef{"go.allocs_per_req", "count"},
		metricDef{"go.gc_cpu_share", "share"},
		metricDef{"go.heap_peak_mb", "MB"},
		metricDef{"gen.late_p99_ms", "ms"},
		metricDef{"gen.late_max_ms", "ms"},
		metricDef{"host.calib_ms", "ms"},
		metricDef{"host.steal_pct", "%"},
		metricDef{"trace.overhead_pct", "%"},
	)
	return d
}

// deadlineAfter returns now plus a share of the run's seconds.
func deadlineAfter(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
