package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runRecord is one parsed benchmark output file.
type runRecord struct {
	workload string
	seed     int64
	traced   bool
	calib    float64 // host.calib_ms
	steal    float64 // host.steal_pct
	metrics  map[string]float64
}

// parseRun reads one run's standard output: the header line names the
// workload and seed, a "metric host.calib_ms" line gives the host
// calibration, and the last line is the JSON result.
func parseRun(r io.Reader) (*runRecord, error) {
	rec := &runRecord{}
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		f := strings.Fields(line)
		switch {
		case f[0] == "perfbench" && len(f) >= 5:
			rec.workload = f[1]
			for _, kv := range f[2:] {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "seed":
					rec.seed, _ = strconv.ParseInt(v, 10, 64)
				case "trace":
					rec.traced = v == "1"
				}
			}
		case f[0] == "metric" && len(f) >= 3 && f[1] == "host.calib_ms":
			rec.calib, _ = strconv.ParseFloat(f[2], 64)
		case f[0] == "metric" && len(f) >= 3 && f[1] == "host.steal_pct":
			rec.steal, _ = strconv.ParseFloat(f[2], 64)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var out struct {
		Correct bool                  `json:"correct"`
		Metrics map[string]jsonMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if rec.workload == "" {
		return nil, fmt.Errorf("no perfbench header line")
	}
	if !out.Correct {
		return nil, fmt.Errorf("run reported correct=false")
	}
	rec.metrics = make(map[string]float64, len(out.Metrics))
	for k, m := range out.Metrics {
		rec.metrics[k] = m.Value
	}
	return rec, nil
}

// loadSet reads every file named *.out under path (or path itself) as
// one run's standard output.
func loadSet(path string) ([]*runRecord, error) {
	var files []string
	err := filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() && strings.HasSuffix(p, ".out") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var out []*runRecord
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		rec, err := parseRun(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return out, nil
}

// benchDef is the part of BENCHMARK.json compare needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict applies the comparison rule to one metric on one workload:
//
//   - improved: B beats A in at least 9 of 10 pairs (ties count for
//     neither) and the medians differ by more than A's interquartile
//     distance, or every B run beats every A run;
//   - regressed: B's median is worse than A's by more than the bound;
//   - unchanged: the medians are within the bound and A's spread is too;
//   - unresolved: anything else — A's own spread is wider than the bound.
func verdict(a, b []float64, pairs [][2]float64, higher bool, bound float64) string {
	better := func(x, y float64) bool {
		if higher {
			return x > y
		}
		return x < y
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	wins := 0
	for _, p := range pairs {
		if better(p[1], p[0]) {
			wins++
		}
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if !better(y, x) {
				allBetter = false
			}
		}
	}
	if allBetter || (len(pairs) > 0 && float64(wins) >= 0.9*float64(len(pairs)) && math.Abs(mb-ma) > q3-q1) {
		return "improved"
	}
	worse := (mb - ma) / math.Abs(ma)
	if higher {
		worse = -worse
	}
	if worse > bound {
		return "regressed"
	}
	if (q3-q1)/math.Abs(ma) <= bound {
		return "unchanged"
	}
	return "unresolved"
}

// compare prints, per workload and end-to-end metric, both sets'
// medians and quartiles, the pair wins of B over A (runs paired by seed,
// else by order) and the verdict; then the host calibration of each set,
// so box drift is visible beside any difference.
func compare(w io.Writer, pathA, pathB string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("compare runs from the repository root: %w", err)
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	setA, err := loadSet(pathA)
	if err != nil {
		return err
	}
	setB, err := loadSet(pathB)
	if err != nil {
		return err
	}
	byWorkload := func(set []*runRecord) map[string][]*runRecord {
		m := make(map[string][]*runRecord)
		for _, r := range set {
			if !r.traced {
				m[r.workload] = append(m[r.workload], r)
			}
		}
		for _, rs := range m {
			sort.Slice(rs, func(i, j int) bool { return rs[i].seed < rs[j].seed })
		}
		return m
	}
	wa, wb := byWorkload(setA), byWorkload(setB)
	var names []string
	for n := range wa {
		if _, ok := wb[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-11s %-17s %12s %23s %12s %23s %6s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "wins", "verdict")
	for _, wl := range names {
		ra, rb := wa[wl], wb[wl]
		for _, m := range def.EndToEnd {
			a, b := values(ra, m.Name), values(rb, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			pairs := pairRuns(ra, rb, m.Name)
			higher := m.Better == "higher"
			wins := 0
			for _, p := range pairs {
				if (higher && p[1] > p[0]) || (!higher && p[1] < p[0]) {
					wins++
				}
			}
			qa1, qa3 := quartiles(a)
			qb1, qb3 := quartiles(b)
			fmt.Fprintf(w, "%-11s %-17s %12.5g %11.5g..%-10.5g %12.5g %11.5g..%-10.5g %3d/%-2d  %s\n",
				wl, m.Name, median(a), qa1, qa3, median(b), qb1, qb3, wins, len(pairs),
				verdict(a, b, pairs, higher, m.Bound))
		}
		for _, h := range []struct {
			name string
			get  func(*runRecord) float64
		}{
			{"host.calib_ms", func(r *runRecord) float64 { return r.calib }},
			{"host.steal_pct", func(r *runRecord) float64 { return r.steal }},
		} {
			fmt.Fprintf(w, "%-11s %-17s %12.5g %35s %12.5g   (host drift check, not a verdict)\n",
				wl, h.name, median(hostValues(ra, h.get)), "", median(hostValues(rb, h.get)))
		}
	}
	return nil
}

func values(rs []*runRecord, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func hostValues(rs []*runRecord, get func(*runRecord) float64) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, get(r))
	}
	return out
}

// pairRuns pairs A and B runs of one workload by seed; when the sets
// share no seed it pairs them in order.
func pairRuns(ra, rb []*runRecord, name string) [][2]float64 {
	bySeed := make(map[int64]*runRecord)
	for _, r := range rb {
		bySeed[r.seed] = r
	}
	var pairs [][2]float64
	for _, a := range ra {
		if b, ok := bySeed[a.seed]; ok {
			pairs = append(pairs, [2]float64{a.metrics[name], b.metrics[name]})
		}
	}
	if len(pairs) > 0 {
		return pairs
	}
	for i := 0; i < len(ra) && i < len(rb); i++ {
		pairs = append(pairs, [2]float64{ra[i].metrics[name], rb[i].metrics[name]})
	}
	return pairs
}
