package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	lat := []float64{5, 1, 2, 3, 4, 6, 7, 8, 9, miss}
	if got := percentile(append([]float64(nil), lat...), 90); got != 9 {
		t.Errorf("p90 with one miss in ten = %v, want 9", got)
	}
	if got := percentile(append([]float64(nil), lat...), 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	lat[0] = miss // two misses in ten: the 9th-ranked sample is a miss
	if got := percentile(lat, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 with two misses in ten = %v, want a miss", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v, want 1.5, 4.5", q1, q3)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestOpenLoopLatencyRunsFromDue(t *testing.T) {
	pr := &phaseResult{outcomes: make([]outcome, 4)}
	set := func(i int, due, sent, done time.Duration, err error) {
		pr.outcomes[i].due, pr.outcomes[i].sent, pr.outcomes[i].done, pr.outcomes[i].err = due, sent, done, err
	}
	set(0, 0, 0, 2*time.Millisecond, nil)
	// The generator sent this one 5 ms late; it then took 2 ms.
	set(1, 10*time.Millisecond, 15*time.Millisecond, 17*time.Millisecond, nil)
	set(2, 1100*time.Millisecond, 1100*time.Millisecond, 1103*time.Millisecond, nil)
	set(3, 1500*time.Millisecond, 1500*time.Millisecond, 1501*time.Millisecond, errors.New("shed"))
	pr.account(2*time.Second, 2)
	if pr.sent != 4 || pr.ok != 3 || pr.failed != 1 {
		t.Fatalf("sent/ok/failed = %d/%d/%d, want 4/3/1", pr.sent, pr.ok, pr.failed)
	}
	want := []float64{2, 7, 3, miss}
	for i, w := range want {
		if pr.lat[i] != w {
			t.Errorf("latency[%d] = %v ms, want %v (from due, lateness included)", i, pr.lat[i], w)
		}
	}
	if pr.late[1] != 5 || pr.late[0] != 0 {
		t.Errorf("lateness = %v, want 0 and 5 ms for the first two", pr.late[:2])
	}
	if len(pr.windows[0]) != 2 || len(pr.windows[1]) != 2 {
		t.Errorf("windows hold %d and %d requests, want 2 and 2", len(pr.windows[0]), len(pr.windows[1]))
	}
	// Window p90s: [2 7] -> 7 and [3 miss] -> miss; the median of a miss
	// and 7 is a miss.
	if got := pr.p(90); !math.IsInf(got, 1) {
		t.Errorf("phase p90 = %v, want a miss", got)
	}
}

func TestInputsCoverEveryRequestDespiteSharedFirstValues(t *testing.T) {
	// Seed 61 draws two inputs whose first values are equal; the traced
	// run once sized its per-input table by distinct values and indexed
	// past its end.
	in := newInputs(rand.New(rand.NewSource(61)))
	total, shared := 0, 0
	for _, m := range rowMix {
		total += m.pool
	}
	if in.n != total {
		t.Fatalf("inputs = %d, want %d", in.n, total)
	}
	for _, id := range in.rowOwner {
		if id >= in.n {
			t.Errorf("row owner %d out of range [0, %d)", id, in.n)
		}
		if id < 0 {
			shared++
		}
	}
	if shared == 0 {
		t.Errorf("seed 61 should draw two inputs with the same first value")
	}
	if got := in.id(len(rowMix)-1, rowMix[len(rowMix)-1].pool-1); got != total-1 {
		t.Errorf("id of the last input = %d, want %d", got, total-1)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	parent := span{start: 0, end: 100}
	children := []span{
		{start: 10, end: 30},
		{start: 20, end: 40},  // overlaps the first: counted once
		{start: 90, end: 120}, // sticks out: only [90,100) counts
		{start: -5, end: 5},   // starts before: only [0,5) counts
	}
	if got := selfTime(parent, children); got != 55 {
		t.Errorf("self time = %d, want 100 - (5 + 30 + 10) = 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestRateSearchTerminates(t *testing.T) {
	const steps = 7
	cases := []struct {
		name    string
		start   float64
		startOK bool
		probe   func(float64) bool
	}{
		{"limit above start", 2500, true, func(r float64) bool { return r < 3333 }},
		{"limit below start", 2500, false, func(r float64) bool { return r < 1800 }},
		{"always passes", 2500, true, func(float64) bool { return true }},
		{"always fails", 2500, false, func(float64) bool { return false }},
		{"noisy", 2500, true, func() func(float64) bool {
			rng := rand.New(rand.NewSource(1))
			return func(float64) bool { return rng.Intn(2) == 0 }
		}()},
	}
	for _, c := range cases {
		calls := 0
		got := searchRate(c.start, c.startOK, steps, func(r float64) bool {
			calls++
			return c.probe(r)
		})
		if calls > steps {
			t.Errorf("%s: %d probes, want at most %d", c.name, calls, steps)
		}
		if !(got > 0) || math.IsInf(got, 0) {
			t.Errorf("%s: result %v", c.name, got)
		}
	}
	got := searchRate(2500, true, steps, func(r float64) bool { return r < 3333 })
	if got >= 3333 || got < 3333/searchStep {
		t.Errorf("search found %.0f, want within %.0f%% below 3333", got, (searchStep-1)*100)
	}
}

func TestSmokeEveryBenchmarkMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		if raceEnabled && w.Name == "serve-cnn" {
			continue // its fixed request rates overload a -race build
		}
		for _, traced := range []bool{false, true} {
			want := def.EndToEnd
			if traced {
				want = def.PerLayer
			}
			res, err := workloads[w.Name](runConfig{seed: 3, seconds: 1, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			var buf bytes.Buffer
			if err := emit(&buf, res, traced); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var out struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]jsonMetric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.Name, traced, err)
			}
			if out.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", w.Name, traced, out.Attempted)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
