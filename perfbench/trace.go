package main

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
	"shhc/internal/rpc"
)

// The traced run wraps each layer's public interface and times every call
// across it. Spans are folded into per-layer totals as they close instead
// of being kept one by one, so tracing adds no per-call heap that would
// skew the run's allocation and GC counters.

// spanTotal accumulates one layer boundary's calls and time.
type spanTotal struct{ calls, ns atomic.Int64 }

func (s *spanTotal) since(t0 time.Time) int64 {
	d := int64(time.Since(t0))
	s.calls.Add(1)
	s.ns.Add(d)
	return d
}

type spanSnap struct{ calls, ns int64 }

func (s *spanTotal) snap() spanSnap { return spanSnap{s.calls.Load(), s.ns.Load()} }

func (a spanSnap) sub(b spanSnap) spanSnap { return spanSnap{a.calls - b.calls, a.ns - b.ns} }

// tracer holds the span totals of one traced stack.
type tracer struct {
	handler  spanTotal // webfront.Handler().ServeHTTP
	index    spanTotal // webfront.Index calls (the cluster)
	backend  spanTotal // core.Backend calls on the client side (rpc.Client)
	node     spanTotal // core.Backend calls on the node rpc.NewServer serves
	getBatch spanTotal // hashdb.BatchGetter
	putBatch spanTotal // hashdb.BatchPutter
	point    spanTotal // single-key hashdb.Store probes and inserts
	// clusterSelf sums, over Index calls, the span minus its longest
	// backend call: the cluster's own routing and fan-out time.
	clusterSelf atomic.Int64
}

type traceSnap struct {
	handler, index, backend, node, getBatch, putBatch, point spanSnap
	clusterSelf                                              int64
}

func (t *tracer) snap() traceSnap {
	return traceSnap{
		handler: t.handler.snap(), index: t.index.snap(), backend: t.backend.snap(),
		node: t.node.snap(), getBatch: t.getBatch.snap(), putBatch: t.putBatch.snap(),
		point: t.point.snap(), clusterSelf: t.clusterSelf.Load(),
	}
}

func (a traceSnap) sub(b traceSnap) traceSnap {
	return traceSnap{
		handler: a.handler.sub(b.handler), index: a.index.sub(b.index),
		backend: a.backend.sub(b.backend), node: a.node.sub(b.node),
		getBatch: a.getBatch.sub(b.getBatch), putBatch: a.putBatch.sub(b.putBatch),
		point: a.point.sub(b.point), clusterSelf: a.clusterSelf - b.clusterSelf,
	}
}

// planSpan links an Index call to the backend calls it fans out to: the
// cluster passes the caller's context to every backend.
type planSpan struct{ longest atomic.Int64 }

type planSpanKey struct{}

func (p *planSpan) observe(d int64) {
	for {
		cur := p.longest.Load()
		if d <= cur || p.longest.CompareAndSwap(cur, d) {
			return
		}
	}
}

// tracedHandler times the front end's HTTP handler.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t.tr.handler.since(t0)
}

// tracedIndex times the front end's Index and forwards the optional
// surfaces the front end asserts on it.
type tracedIndex struct {
	c  *core.Cluster
	tr *tracer
}

func (t *tracedIndex) BatchLookupOrInsert(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	ps := &planSpan{}
	ctx = context.WithValue(ctx, planSpanKey{}, ps)
	t0 := time.Now()
	rs, err := t.c.BatchLookupOrInsert(ctx, pairs)
	d := t.tr.index.since(t0)
	t.tr.clusterSelf.Add(d - ps.longest.Load())
	return rs, err
}

func (t *tracedIndex) Stats(ctx context.Context) ([]core.NodeStats, error) { return t.c.Stats(ctx) }

func (t *tracedIndex) ClientTransportStats() core.ClientTransportStats {
	return t.c.ClientTransportStats()
}

func (t *tracedIndex) Replicated() bool { return t.c.Replicated() }

func (t *tracedIndex) ReplicationStats() core.ReplicationStats { return t.c.ReplicationStats() }

// tracedBackend times the cluster's calls into one rpc.Client and
// forwards the client's optional surfaces.
type tracedBackend struct {
	c  *rpc.Client
	tr *tracer
}

func (t *tracedBackend) timed(ctx context.Context, t0 time.Time) {
	d := t.tr.backend.since(t0)
	if ps, ok := ctx.Value(planSpanKey{}).(*planSpan); ok {
		ps.observe(d)
	}
}

func (t *tracedBackend) ID() ring.NodeID { return t.c.ID() }

func (t *tracedBackend) Lookup(ctx context.Context, fp fingerprint.Fingerprint) (core.LookupResult, error) {
	defer t.timed(ctx, time.Now())
	return t.c.Lookup(ctx, fp)
}

func (t *tracedBackend) LookupOrInsert(ctx context.Context, fp fingerprint.Fingerprint, val core.Value) (core.LookupResult, error) {
	defer t.timed(ctx, time.Now())
	return t.c.LookupOrInsert(ctx, fp, val)
}

func (t *tracedBackend) BatchLookupOrInsert(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	defer t.timed(ctx, time.Now())
	return t.c.BatchLookupOrInsert(ctx, pairs)
}

func (t *tracedBackend) ApplyRepair(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	defer t.timed(ctx, time.Now())
	return t.c.ApplyRepair(ctx, pairs)
}

func (t *tracedBackend) Insert(ctx context.Context, fp fingerprint.Fingerprint, val core.Value) error {
	defer t.timed(ctx, time.Now())
	return t.c.Insert(ctx, fp, val)
}

func (t *tracedBackend) Stats(ctx context.Context) (core.NodeStats, error) { return t.c.Stats(ctx) }

func (t *tracedBackend) Close() error { return t.c.Close() }

func (t *tracedBackend) RedirectsFollowed() uint64 { return t.c.RedirectsFollowed() }

func (t *tracedBackend) CreditStalls() uint64 { return t.c.CreditStalls() }

// tracedNode times the node an rpc.Server serves: the server side of each
// rpc call.
type tracedNode struct {
	n  *core.Node
	tr *tracer
}

func (t *tracedNode) ID() ring.NodeID { return t.n.ID() }

func (t *tracedNode) Lookup(ctx context.Context, fp fingerprint.Fingerprint) (core.LookupResult, error) {
	defer t.tr.node.since(time.Now())
	return t.n.Lookup(ctx, fp)
}

func (t *tracedNode) LookupOrInsert(ctx context.Context, fp fingerprint.Fingerprint, val core.Value) (core.LookupResult, error) {
	defer t.tr.node.since(time.Now())
	return t.n.LookupOrInsert(ctx, fp, val)
}

func (t *tracedNode) BatchLookupOrInsert(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	defer t.tr.node.since(time.Now())
	return t.n.BatchLookupOrInsert(ctx, pairs)
}

func (t *tracedNode) ApplyRepair(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	defer t.tr.node.since(time.Now())
	return t.n.ApplyRepair(ctx, pairs)
}

func (t *tracedNode) Insert(ctx context.Context, fp fingerprint.Fingerprint, val core.Value) error {
	defer t.tr.node.since(time.Now())
	return t.n.Insert(ctx, fp, val)
}

func (t *tracedNode) Stats(ctx context.Context) (core.NodeStats, error) { return t.n.Stats(ctx) }

func (t *tracedNode) Close() error { return t.n.Close() }

// tracedStore times a node's hash table and forwards every optional
// surface the node asserts on its store.
type tracedStore struct {
	db *hashdb.DB
	tr *tracer
}

func (t *tracedStore) Get(fp fingerprint.Fingerprint) (hashdb.Value, bool, error) {
	defer t.tr.point.since(time.Now())
	return t.db.Get(fp)
}

func (t *tracedStore) Has(fp fingerprint.Fingerprint) (bool, error) {
	defer t.tr.point.since(time.Now())
	return t.db.Has(fp)
}

func (t *tracedStore) Put(fp fingerprint.Fingerprint, v hashdb.Value) (bool, error) {
	defer t.tr.point.since(time.Now())
	return t.db.Put(fp, v)
}

func (t *tracedStore) GetBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([]hashdb.Value, []bool, error) {
	defer t.tr.getBatch.since(time.Now())
	return t.db.GetBatch(ctx, fps)
}

func (t *tracedStore) PutBatch(ctx context.Context, pairs []hashdb.Pair) ([]bool, int, error) {
	defer t.tr.putBatch.since(time.Now())
	return t.db.PutBatch(ctx, pairs)
}

func (t *tracedStore) Range(fn func(fp fingerprint.Fingerprint, v hashdb.Value) bool) error {
	return t.db.Range(fn)
}

func (t *tracedStore) Delete(fp fingerprint.Fingerprint) (bool, error) { return t.db.Delete(fp) }

func (t *tracedStore) Recovery() hashdb.RecoveryStats { return t.db.Recovery() }

func (t *tracedStore) Len() int { return t.db.Len() }

func (t *tracedStore) Sync() error { return t.db.Sync() }

func (t *tracedStore) Close() error { return t.db.Close() }
