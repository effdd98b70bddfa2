package serve

import (
	"fmt"
	"time"

	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// piece is one contiguous row range of one request assigned to a
// pipeline batch during dispatch.
type piece struct {
	pr *pendingReq
	lo int // first row within the request
	n  int
}

// Dispatch causes: why the batcher closed a batch. Each dispatch counts
// one cause in the serve.dispatch_* counters.
const (
	causeFull     = iota // the batch reached MaxBatch rows
	causeDeadline        // BatchTimeout elapsed while the pipeline was busy
	causeIdle            // the pipeline was (or became) empty
	causeSplit           // the next request could not join the batch
	numCauses
)

// batcher is the coalescing loop. It is work-conserving, like the input
// stage of PipeDream's steady state: it blocks for the first queued
// request (the seed), and if no batch is in flight — the whole pipeline
// is empty — it takes whatever is already queued without waiting and
// dispatches at once. Otherwise it collects more requests until the
// batch holds MaxBatch rows, the last in-flight batch leaves the
// pipeline, BatchTimeout elapses, or a request that cannot join arrives
// (a different head or per-row shape, or a full quota window), which
// ends the batch and seeds the next one.
//
// So BatchTimeout bounds only the wait while the pipeline is busy: a
// lone request on an idle server dispatches immediately, and a full
// batch never waits.
func (s *Server) batcher() {
	defer s.wg.Done()
	nextID := 0
	var carry *request
	// One timer and one batch slice serve every iteration, so the
	// dispatch loop allocates neither per batch.
	timer := time.NewTimer(s.cfg.BatchTimeout)
	timer.Stop()
	var buf []*request
	for {
		var first *request
		if carry != nil {
			first, carry = carry, nil
		} else {
			select {
			case <-s.done:
				return
			case first = <-s.queue:
			}
		}
		// Blocking-promote the batch seed. Safe: no other undispatched
		// request holds an in-flight slot here (the previous batch was
		// dispatched before this iteration), so a full window means the
		// wait is on dispatched requests, which always complete.
		if !s.quotaPromote(first) {
			first.resp <- result{err: ErrServerClosed}
			return
		}
		batch := append(buf[:0], first)
		rows := first.rows
		cause := causeFull
		switch {
		case rows >= s.cfg.MaxBatch:
		case len(s.inflight) == 0:
			batch, rows, carry, cause = s.fill(batch, rows)
		default:
			timer.Reset(s.cfg.BatchTimeout)
		collect:
			for rows < s.cfg.MaxBatch {
				select {
				case <-s.done:
					timer.Stop()
					// Close flushes the queue and the pending map; the
					// requests already pulled into this batch are ours
					// to fail.
					for _, r := range batch {
						r.resp <- result{err: ErrServerClosed}
					}
					return
				case req := <-s.queue:
					if !s.joins(first, req) {
						carry, cause = req, causeSplit
						break collect
					}
					batch = append(batch, req)
					rows += req.rows
				case <-s.idle:
					// The signal may be stale (sent while no batch was
					// collecting); act on it only if the pipeline is
					// still empty.
					if len(s.inflight) == 0 {
						batch, rows, carry, cause = s.fill(batch, rows)
						break collect
					}
				case <-timer.C:
					cause = causeDeadline
					break collect
				}
			}
			timer.Stop()
		}
		s.met.dispatch[cause].Inc()
		s.met.queueDepth.Set(int64(len(s.queue)))
		nextID = s.dispatch(batch, nextID)
		clear(batch) // drop request references until the slots are reused
		buf = batch[:0]
	}
}

// fill moves already-queued requests into the batch without blocking.
// It stops at MaxBatch rows (causeFull), at an empty queue (causeIdle),
// or at a request that cannot join, which it returns as the next seed
// (causeSplit).
func (s *Server) fill(batch []*request, rows int) ([]*request, int, *request, int) {
	for rows < s.cfg.MaxBatch {
		select {
		case req := <-s.queue:
			if !s.joins(batch[0], req) {
				return batch, rows, req, causeSplit
			}
			batch = append(batch, req)
			rows += req.rows
		default:
			return batch, rows, nil, causeIdle
		}
	}
	return batch, rows, nil, causeFull
}

// joins reports whether req may join the batch seeded by first: same
// head (heads travel different stage routes), same per-row shape, and an
// in-flight quota slot taken without blocking. Growing a batch must
// never block on the quota — batch members already hold in-flight slots
// and complete only after dispatch, so a blocking wait here could be on
// this very batch (deadlock). A full window instead ends the batch: the
// request carries over and blocking-promotes as the next seed, after
// this batch has been dispatched.
func (s *Server) joins(first, req *request) bool {
	return req.head == first.head && s.quotaTryPromote(req) && sameRowShape(req.x, first.x)
}

// releaseSlot frees one MaxInFlight slot and, when that empties the
// pipeline, signals the batcher so a partial batch it is collecting
// dispatches at once instead of waiting out BatchTimeout. The signal
// channel holds one token, so a signal is never lost and never blocks.
func (s *Server) releaseSlot() {
	<-s.inflight
	if len(s.inflight) == 0 {
		select {
		case s.idle <- struct{}{}:
		default:
		}
	}
}

// dispatch chops the logical concatenation of the batch's rows into
// pipeline batches of at most MaxBatch rows and sends each to stage 0,
// tagged with a fresh batch id the demultiplexer routes responses by.
// It returns the next unused batch id.
//
// A request larger than MaxBatch spans several pipeline batches; several
// small requests share one. Single-request batches reuse the request's
// tensor (or a zero-copy row-range alias of it); only multi-request
// batches copy rows into a fresh tensor.
//
// Each send first takes a MaxInFlight semaphore slot (released by the
// demultiplexer), so a slow pipeline pushes backpressure here rather
// than queueing without bound inside the transport.
func (s *Server) dispatch(batch []*request, nextID int) int {
	// One allocation each for the requests' assembly state, the pieces
	// and the chunks, however many requests the batch holds.
	prs := make([]pendingReq, len(batch))
	total := 0
	for i, r := range batch {
		prs[i] = pendingReq{req: r, remaining: r.rows, firstID: nextID}
		total += r.rows
	}
	// Assign request row ranges to pipeline batches. Every request is at
	// least one piece, and each chunk boundary but the last can cut one
	// more, which bounds the pieces all chunks share.
	nchunks := (total + s.cfg.MaxBatch - 1) / s.cfg.MaxBatch
	pieces := make([]piece, 0, len(prs)+nchunks-1)
	chunks := make([][]piece, 0, nchunks)
	start, curRows := 0, 0
	for i := range prs {
		pr := &prs[i]
		for off := 0; off < pr.req.rows; {
			n := min(s.cfg.MaxBatch-curRows, pr.req.rows-off)
			pieces = append(pieces, piece{pr: pr, lo: off, n: n})
			curRows += n
			off += n
			if curRows == s.cfg.MaxBatch {
				chunks = append(chunks, pieces[start:])
				start, curRows = len(pieces), 0
			}
		}
	}
	if start < len(pieces) {
		chunks = append(chunks, pieces[start:])
	}
	// Board every pipeline batch of this dispatch onto the current weight
	// version in one step. Stamping once per dispatch (not per chunk)
	// guarantees a request split across several pipeline batches never
	// straddles a hot-swap: all its chunks run the same generation.
	v := s.acquireVersion(len(chunks))
	for i := range prs {
		prs[i].gen = v.gen
	}
	rowSize := batch[0].x.Size() / batch[0].x.Dim(0)
	for _, ps := range chunks {
		rows := 0
		for _, p := range ps {
			rows += p.n
		}
		x := assemble(ps, rows, rowSize)
		info := &batchInfo{rows: rows, ver: v, segs: make([]segment, len(ps))}
		src := 0
		for i, p := range ps {
			info.segs[i] = segment{pr: p.pr, srcRow: src, dstRow: p.lo, n: p.n}
			src += p.n
		}
		select {
		case s.inflight <- struct{}{}:
		case <-s.done:
			s.failBatch(info, ErrServerClosed)
			s.releaseVersion(v)
			continue
		}
		s.mu.Lock()
		s.pending[nextID] = info
		s.mu.Unlock()
		s.met.batches.Inc()
		s.met.batchRows.Observe(float64(rows))
		err := s.tr.Send(0, transport.Message{
			Kind:      transport.Activation,
			Minibatch: nextID,
			Version:   v.gen,
			Tensor:    x,
			Sink:      batch[0].head, // all requests of a batch share one head
		})
		if err != nil {
			<-s.inflight
			s.mu.Lock()
			delete(s.pending, nextID)
			s.mu.Unlock()
			s.failBatch(info, fmt.Errorf("serve: batch %d lost: %v: %w", nextID, err, ErrTransport))
			// The demultiplexer will never see this batch; drop its
			// version reference here.
			s.releaseVersion(v)
		}
		nextID++
	}
	return nextID
}

// assemble builds the input tensor for one pipeline batch. One piece
// covering a whole request passes the request tensor through; one piece
// covering a row range aliases the range zero-copy (tensor.FromSlice
// does not copy, and forward passes never mutate their input); multiple
// pieces copy rows into a fresh tensor.
func assemble(ps []piece, rows, rowSize int) *tensor.Tensor {
	if len(ps) == 1 {
		p := ps[0]
		if p.n == p.pr.req.rows {
			return p.pr.req.x
		}
		shape := append([]int{p.n}, p.pr.req.x.Shape[1:]...)
		return tensor.FromSlice(p.pr.req.x.Data[p.lo*rowSize:(p.lo+p.n)*rowSize], shape...)
	}
	shape := append([]int{rows}, ps[0].pr.req.x.Shape[1:]...)
	x := tensor.New(shape...)
	dst := 0
	for _, p := range ps {
		copy(x.Data[dst:], p.pr.req.x.Data[p.lo*rowSize:(p.lo+p.n)*rowSize])
		dst += p.n * rowSize
	}
	return x
}

// failBatch delivers err to every request of the batch that has not
// already been answered.
func (s *Server) failBatch(info *batchInfo, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range info.segs {
		s.failPendingLocked(seg.pr, err)
	}
}

// failPendingLocked marks pr failed and delivers err, exactly once per
// request even when the request spans several pipeline batches. Callers
// hold s.mu.
func (s *Server) failPendingLocked(pr *pendingReq, err error) {
	if pr.failed {
		return
	}
	pr.failed = true
	pr.req.resp <- result{err: err}
}
