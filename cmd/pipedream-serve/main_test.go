package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pipedream/internal/modelzoo/branching"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/serve"
	"pipedream/internal/serve/fleet"
	"pipedream/internal/tensor"
)

// newFuzzServer builds a small single-stage server matching the spiral
// task's [2]-float input rows.
func newFuzzServer(t testing.TB) (infer func(*tensor.Tensor) (*tensor.Tensor, error), inputShape []int) {
	rng := rand.New(rand.NewSource(1))
	model := nn.NewSequential(
		nn.NewDense(rng, "fc1", 2, 8),
		nn.NewTanh("t1"),
		nn.NewDense(rng, "fc2", 8, 3),
	)
	srv, err := serve.NewServer(serve.Config{
		Model:        model,
		InputShape:   []int{2},
		MaxBatch:     8,
		BatchTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Infer, []int{2}
}

// FuzzInferRequest throws hostile bodies at the /infer handler: broken
// JSON, wrong row widths, huge row counts, out-of-range numbers,
// deeply wrong types. The contract under fuzzing is no panic and no
// 5xx — every malformed body maps to a typed 4xx, every well-formed
// one to 200 with a decodable response.
func FuzzInferRequest(f *testing.F) {
	infer, inputShape := newFuzzServer(f)

	f.Add([]byte(`{"inputs":[[0.5,-0.5]]}`))
	f.Add([]byte(`{"inputs":[[0.5,-0.5],[1,2]]}`))
	f.Add([]byte(`{"inputs":[]}`))
	f.Add([]byte(`{"inputs":[[]]}`))
	f.Add([]byte(`{"inputs":[[1,2,3]]}`))   // too wide
	f.Add([]byte(`{"inputs":[[1]]}`))       // too narrow
	f.Add([]byte(`{"inputs":[[NaN,1]]}`))   // NaN is not JSON
	f.Add([]byte(`{"inputs":[[1e999,0]]}`)) // overflows float
	f.Add([]byte(`{"inputs":[["a","b"]]}`)) // wrong element type
	f.Add([]byte(`{"inputs":"zebra"}`))     // wrong field type
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"inputs":[` + strings.Repeat(`[1,2],`, 2000) + `[1,2]]}`)) // over the row cap
	f.Add(bytes.Repeat([]byte("9"), 4096))

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handleInfer(infer, inputShape, rec, req)
		switch {
		case rec.Code == http.StatusOK:
			var resp inferResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with undecodable body %q: %v", rec.Body.String(), err)
			}
			if len(resp.Outputs) == 0 || len(resp.Outputs) != len(resp.Argmax) {
				t.Fatalf("200 with inconsistent response: %d outputs, %d argmax", len(resp.Outputs), len(resp.Argmax))
			}
		case rec.Code >= 400 && rec.Code < 500:
			// Typed rejection: fine.
		default:
			t.Fatalf("status %d for body %q; want 200 or 4xx", rec.Code, body)
		}
	})
}

// TestHandleInferRejectsOversizedBody: a body over the 1 MB cap fails
// with a 400 instead of being slurped into memory.
func TestHandleInferRejectsOversizedBody(t *testing.T) {
	infer, inputShape := newFuzzServer(t)
	var b bytes.Buffer
	b.WriteString(`{"inputs":[[1,2]`)
	for b.Len() <= maxInferBody {
		b.WriteString(`,[1,2]`)
	}
	b.WriteString(`]}`)
	req := httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(b.Bytes()))
	rec := httptest.NewRecorder()
	handleInfer(infer, inputShape, rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", rec.Code)
	}
}

// TestHandleInferPerHead drives the DAG serving path end to end through
// the HTTP handler: a branching-model server answers per-head requests
// (the ?head= closure the /infer mux builds), each head returns its own
// output width, and a non-sink head maps to a 400.
func TestHandleInferPerHead(t *testing.T) {
	b := branching.StandIn(11)
	srv, err := serve.NewServer(serve.Config{
		Model:        b.Factory(),
		Plan:         &partition.Plan{Stages: b.Stages, Graph: b.Graph},
		InputShape:   []int{2},
		MaxBatch:     4,
		BatchTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	post := func(head int) *httptest.ResponseRecorder {
		infer := func(x *tensor.Tensor) (*tensor.Tensor, error) { return srv.InferHead(x, head) }
		req := httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(`{"inputs":[[0.3,-0.2],[1,0.5]]}`))
		rec := httptest.NewRecorder()
		handleInfer(infer, []int{2}, rec, req)
		return rec
	}

	for _, tc := range []struct {
		head, wantCols int
	}{
		{b.ClassHead, 3},  // 3-way spiral logits
		{b.ParityHead, 2}, // 2-way parity logits
	} {
		rec := post(tc.head)
		if rec.Code != http.StatusOK {
			t.Fatalf("head %d: status %d: %s", tc.head, rec.Code, rec.Body.String())
		}
		var resp inferResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Outputs) != 2 || len(resp.Outputs[0]) != tc.wantCols {
			t.Fatalf("head %d: got %dx%d outputs, want 2x%d",
				tc.head, len(resp.Outputs), len(resp.Outputs[0]), tc.wantCols)
		}
	}

	// A stage that is not an output head is a client error, not a 5xx.
	if rec := post(1); rec.Code != http.StatusBadRequest {
		t.Fatalf("non-sink head: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
}

// TestHandleInferMethodNotAllowed pins the GET rejection.
func TestHandleInferMethodNotAllowed(t *testing.T) {
	infer, inputShape := newFuzzServer(t)
	req := httptest.NewRequest(http.MethodGet, "/infer", nil)
	rec := httptest.NewRecorder()
	handleInfer(infer, inputShape, rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /infer: status %d, want 405", rec.Code)
	}
}

// TestHealthzSumsDispatchCauses: /healthz reports the batcher's dispatch
// causes summed over the tenant's replicas.
func TestHealthzSumsDispatchCauses(t *testing.T) {
	ts := fleet.TenantStats{Replicas: []fleet.ReplicaStats{
		{Serve: serve.Stats{Batches: 7, DispatchFull: 1, DispatchDeadline: 2, DispatchIdle: 3, DispatchSplit: 1}},
		{Serve: serve.Stats{Batches: 5, DispatchFull: 4, DispatchIdle: 1}},
	}}
	agg := aggregateServe(ts)
	if agg.DispatchFull != 5 || agg.DispatchDeadline != 2 || agg.DispatchIdle != 4 || agg.DispatchSplit != 1 {
		t.Fatalf("aggregated dispatch causes full/deadline/idle/split = %d/%d/%d/%d, want 5/2/4/1",
			agg.DispatchFull, agg.DispatchDeadline, agg.DispatchIdle, agg.DispatchSplit)
	}
	body, err := json.Marshal(healthz{Stats: agg})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"DispatchIdle":4`)) {
		t.Errorf("/healthz body lacks DispatchIdle: %s", body)
	}
}
