package serve

import "repro/internal/telemetry"

// instruments holds the service-level instruments, resolved once at
// server construction. Per-route request counters and latency
// histograms belong to the request scope (requestScope); these cover
// the cross-cutting admission and failure paths.
type instruments struct {
	// admitted counts requests that acquired execution units.
	admitted *telemetry.Counter
	// admittedUnits counts the admission units those requests charged:
	// a scalar request costs 1, a batch of N items costs N, a frontier
	// sweep costs units proportional to its configuration-space size.
	admittedUnits *telemetry.Counter
	// shed counts requests rejected with 429 because the wait queue was
	// full.
	shed *telemetry.Counter
	// queueWaits counts requests that found every slot busy and had to
	// wait in the admission queue before executing.
	queueWaits *telemetry.Counter
	// panics counts handler panics converted into 500 responses.
	panics *telemetry.Counter
	// deadlineExceeded counts requests that ran out of deadline — while
	// queued or while computing — and were answered with 504.
	deadlineExceeded *telemetry.Counter
	// inflight is the number of admission units currently held by
	// executing requests.
	inflight *telemetry.Gauge
	// queueDepth is the number of requests currently waiting for units.
	queueDepth *telemetry.Gauge

	// batchRequests counts batch (POST) evaluation requests; batchItems
	// the expanded per-item evaluations they carried; batchItemErrors
	// the items that failed with a per-item error envelope.
	batchRequests   *telemetry.Counter
	batchItems      *telemetry.Counter
	batchItemErrors *telemetry.Counter
}

func newInstruments(reg *telemetry.Registry) instruments {
	return instruments{
		admitted:         reg.Counter("serve.admitted"),
		admittedUnits:    reg.Counter("serve.admitted_units"),
		shed:             reg.Counter("serve.shed"),
		queueWaits:       reg.Counter("serve.queue_waits"),
		panics:           reg.Counter("serve.panics"),
		deadlineExceeded: reg.Counter("serve.deadline_exceeded"),
		inflight:         reg.Gauge("serve.inflight"),
		queueDepth:       reg.Gauge("serve.queue_depth"),
		batchRequests:    reg.Counter("serve.batch.requests"),
		batchItems:       reg.Counter("serve.batch.items"),
		batchItemErrors:  reg.Counter("serve.batch.item_errors"),
	}
}
