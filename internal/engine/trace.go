// Request-lifecycle span tracing: every sampled request leaves a chain
// of Chrome trace_event slices on the engine's Recorder — admission,
// queue wait, lane fill, each execute attempt, validation verdict,
// delivery — and every request (sampled or not) feeds the always-on
// per-stage latency histograms (engine.queue_wait_seconds,
// engine.lane_fill_seconds, engine.execute_seconds, and the existing
// end-to-end engine.latency_seconds). The disabled path
// (Options.Trace == nil) allocates nothing: newSpan answers nil before
// touching anything, and every emission helper is a guarded no-op on a
// nil span.
package engine

import (
	"time"
)

// Track layout on the trace Recorder: track 0 carries the admission /
// queue / delivery timeline, worker w draws its lane-fill and execute
// slices on track w+1. NewWithProcessor names the tracks so viewers
// show labels instead of numbers.
const traceQueueTID = 0

func workerTID(id int) int { return id + 1 }

// reqSpan is the per-request trace state threaded through the job. A
// nil reqSpan means the request is unsampled (or tracing is off).
// enqUS is written by the submitting goroutine before the job becomes
// visible to workers; claimUS by the single worker that claims it — so
// the fields need no locking.
type reqSpan struct {
	enqUS   int64 // admission timestamp (recorder clock)
	claimUS int64 // queue exit: the claiming worker's timestamp
}

// newSpan decides whether a request is traced: never without a
// Recorder, otherwise deterministic 1-in-stride sampling off a shared
// atomic counter (stride 1 skips the counter entirely).
func (e *Engine) newSpan() *reqSpan {
	if e.trace == nil {
		return nil
	}
	if e.traceStride > 1 && e.traceCtr.Add(1)%e.traceStride != 1 {
		return nil
	}
	return &reqSpan{}
}

// spanAdmit stamps admission and draws the admit marker. Called before
// the job enters the queue, so workers never race the enqUS write.
func (e *Engine) spanAdmit(j *job) {
	if j.span == nil {
		return
	}
	j.span.enqUS = e.trace.NowUS()
	e.trace.Instant(traceQueueTID, "admit", "engine", j.span.enqUS,
		map[string]any{"req": j.id})
}

// spanReject marks a request the bounded queue refused (its lifecycle
// ends here; there will be no queue_wait or request slice).
func (e *Engine) spanReject(j *job) {
	if j.span == nil {
		return
	}
	e.trace.Instant(traceQueueTID, "reject", "engine", e.trace.NowUS(),
		map[string]any{"req": j.id})
}

// claimJob stamps a job's exit from the queue: the wall-clock claim
// time, the always-on queue-wait histogram, and (sampled) the
// queue_wait slice from admission to claim.
func (e *Engine) claimJob(j *job) {
	j.claim = time.Now()
	e.queueWait.Observe(j.claim.Sub(j.enq).Seconds())
	if j.span == nil {
		return
	}
	j.span.claimUS = e.trace.NowUS()
	e.trace.Slice(traceQueueTID, "queue_wait", "engine",
		j.span.enqUS, j.span.claimUS-j.span.enqUS,
		map[string]any{"req": j.id})
}

// spanLaneFill draws the claim-to-dispatch interval of a lockstep batch
// on the executing worker's track, tagged with the width the batch
// actually reached.
func (e *Engine) spanLaneFill(j *job, worker, lanes int) {
	if j.span == nil {
		return
	}
	now := e.trace.NowUS()
	e.trace.Slice(workerTID(worker), "lane_fill", "engine",
		j.span.claimUS, now-j.span.claimUS,
		map[string]any{"req": j.id, "lanes": lanes, "width": e.opts.LaneWidth})
}

// spanNowUS reads the recorder clock iff any job in the batch is
// sampled — the shared start timestamp of a lockstep lane run. Answers
// 0 (never read by the emission helpers) when nothing is sampled, so
// the disabled path stays free.
func (e *Engine) spanNowUS(jobs []*job) int64 {
	for _, j := range jobs {
		if j.span != nil {
			return e.trace.NowUS()
		}
	}
	return 0
}

// spanExecute draws one execution pass (an RTL attempt, a lockstep lane
// run, or the software fallback) on the worker's track.
func (e *Engine) spanExecute(j *job, worker, attempt int, backend Backend, startUS int64, ok bool) {
	if j.span == nil {
		return
	}
	now := e.trace.NowUS()
	e.trace.Slice(workerTID(worker), "execute", "engine", startUS, now-startUS,
		map[string]any{"req": j.id, "attempt": attempt, "backend": backend.String(), "ok": ok})
}

// spanValidate marks the end-of-run validation verdict of an RTL pass
// (validation happens inside the executor run, so it is an instant with
// an outcome, not a separately timed stage).
func (e *Engine) spanValidate(j *job, worker int, ok bool) {
	if j.span == nil {
		return
	}
	e.trace.Instant(workerTID(worker), "validate", "engine", e.trace.NowUS(),
		map[string]any{"req": j.id, "ok": ok})
}

// spanDeliver closes the request: the end-to-end slice back on the
// queue track plus the delivery marker.
func (e *Engine) spanDeliver(j *job, r Result) {
	if j.span == nil {
		return
	}
	now := e.trace.NowUS()
	e.trace.Slice(traceQueueTID, "request", "engine",
		j.span.enqUS, now-j.span.enqUS,
		map[string]any{"req": j.id, "backend": r.Backend.String(),
			"attempts": r.Attempts, "ok": r.Err == nil})
	e.trace.Instant(traceQueueTID, "deliver", "engine", now,
		map[string]any{"req": j.id})
}
