package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/rpc"
	"shhc/internal/trace"
	"shhc/internal/webfront"
)

// tiny keeps the deployed shape at a scale a test can afford: the base
// image is still four times the total LRU and ingest still splits.
var tiny = sizes{
	nodes: 4, cache: 1024, expected: 2048,
	base: 16384, hot: 1024,
	batch: 128, small: 16,
	minPlans: 40,
}

func tinyRun(t *testing.T, w *workload, trace bool, wrap func(webfront.Index) webfront.Index) (*result, string) {
	t.Helper()
	var log bytes.Buffer
	res, err := run(runConfig{
		w: w, sz: tiny, seed: 7, seconds: 1, trace: trace, clients: 2,
		workDir: t.TempDir(), log: &log, wrapIndex: wrap,
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", w.name, err, log.String())
	}
	return res, log.String()
}

// declared reads the metrics BENCHMARK.json promises, with their units.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, names []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, perLayer, names
}

func checkMetrics(t *testing.T, kind string, got map[string]metric, want map[string]string, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok || m.Unit != unit || (positive && !(m.Value > 0)) {
			t.Errorf("%s: metric %s = %+v (present %v), want unit %s", kind, name, m, ok, unit)
		}
	}
}

// TestTinyRunsPassAudit runs every workload BENCHMARK.json declares at
// tiny scale, untraced and traced, and checks that each prints every
// declared metric with its unit and passes the answer audit.
func TestTinyRunsPassAudit(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	for _, name := range names {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			res, log := tinyRun(t, w, false, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < tiny.minPlans {
				t.Fatalf("untraced: correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, log)
			}
			checkMetrics(t, "untraced", res.Metrics, endToEnd, true)

			res, log = tinyRun(t, w, true, nil)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d\n%s", res.Correct, res.Failed, log)
			}
			checkMetrics(t, "traced", res.Metrics, perLayer, false)
			if m := res.Metrics["cluster.backend_calls_per_plan"]; m.Value < 1 {
				t.Errorf("traced: %v backend calls per plan; the spans saw no traffic", m.Value)
			}
		})
	}
}

// flipOne answers one lookup of the n-th plan wrongly.
type flipOne struct {
	webfront.Index
	n     int64
	calls atomic.Int64
}

func (f *flipOne) BatchLookupOrInsert(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	rs, err := f.Index.BatchLookupOrInsert(ctx, pairs)
	if err == nil && len(rs) > 0 && f.calls.Add(1) == f.n {
		rs[len(rs)/2].Exists = !rs[len(rs)/2].Exists
	}
	return rs, err
}

// TestFlippedAnswerFailsAudit injects one wrong Exists into the timed
// window and expects the audit to catch it.
func TestFlippedAnswerFailsAudit(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := generate(w, tiny, 7, 1, 2*w.clientsPerCPU, 2)
			if err != nil {
				t.Fatal(err)
			}
			// Flip an answer in the first timed plan of the last setup.
			preload := 0
			for _, s := range in.preload {
				preload += len(s.plans)
			}
			warm := in.streams[0].warm * len(in.streams)
			in.close()
			calls := int64(preload + warm + 1)
			res, log := tinyRun(t, w, false, func(idx webfront.Index) webfront.Index {
				return &flipOne{Index: idx, n: calls}
			})
			if res.Correct || res.Failed != 1 {
				t.Fatalf("flipped answer: correct=%v failed=%d, want an audit failure on one plan\n%s", res.Correct, res.Failed, log)
			}
			if !strings.Contains(log, "audit (untraced pass) FAILED") {
				t.Errorf("log does not report the audit failure:\n%s", log)
			}
		})
	}
}

// TestIngestFollowsWebServerTrace checks that each ingest client's ids
// repeat at trace.WebServer's redundancy and reuse distance, and never
// touch the base image.
func TestIngestFollowsWebServerTrace(t *testing.T) {
	w, err := workloadByName("ingest")
	if err != nil {
		t.Fatal(err)
	}
	sz := tiny
	sz.batch = 2048
	in, err := generate(w, sz, 7, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	for c, s := range in.streams {
		a := trace.NewAnalyzer("ingest")
		for _, p := range s.plans {
			for _, id := range p.ids {
				if !isNewID(id) {
					t.Fatalf("client %d: base-image id %d in ingest", c, id)
				}
				a.Observe(fingerprint.FromUint64(id))
			}
		}
		st := a.Stats()
		t.Logf("client %d: %v", c, st)
		if d := st.PctRedundant - trace.WebServer.PctRedundant; d < -0.03 || d > 0.03 {
			t.Errorf("client %d: %.3f redundant, want %.2f", c, st.PctRedundant, trace.WebServer.PctRedundant)
		}
		if r := st.MeanDistance / float64(trace.WebServer.Distance); r < 0.75 || r > 1.25 {
			t.Errorf("client %d: mean reuse distance %.0f, want about %d", c, st.MeanDistance, trace.WebServer.Distance)
		}
		if st.Unique != s.newIDs {
			t.Errorf("client %d: %d unique ids, %d new ids", c, st.Unique, s.newIDs)
		}
	}
}

// TestWrappersForwardOptionalInterfaces checks that each tracing wrapper
// implements exactly the optional interfaces its wrapped type does, so the
// traced stack takes the same code paths.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	type recovery interface{ Recovery() hashdb.RecoveryStats }
	type transportReporter interface {
		RedirectsFollowed() uint64
		CreditStalls() uint64
	}
	type clientTransport interface {
		ClientTransportStats() core.ClientTransportStats
	}
	type replication interface {
		Replicated() bool
		ReplicationStats() core.ReplicationStats
	}
	optional := []reflect.Type{
		reflect.TypeFor[hashdb.Store](), reflect.TypeFor[hashdb.BatchGetter](), reflect.TypeFor[hashdb.BatchPutter](),
		reflect.TypeFor[core.Ranger](), reflect.TypeFor[core.Deleter](), reflect.TypeFor[recovery](),
		reflect.TypeFor[core.Backend](), reflect.TypeFor[core.RepairApplier](), reflect.TypeFor[core.Migrator](),
		reflect.TypeFor[transportReporter](), reflect.TypeFor[webfront.Index](), reflect.TypeFor[clientTransport](),
		reflect.TypeFor[replication](),
	}
	pairs := []struct{ inner, wrapper reflect.Type }{
		{reflect.TypeFor[*hashdb.DB](), reflect.TypeFor[*tracedStore]()},
		{reflect.TypeFor[*core.Node](), reflect.TypeFor[*tracedNode]()},
		{reflect.TypeFor[*rpc.Client](), reflect.TypeFor[*tracedBackend]()},
		{reflect.TypeFor[*core.Cluster](), reflect.TypeFor[*tracedIndex]()},
	}
	for _, p := range pairs {
		for _, iface := range optional {
			// A node's Migrator surface is for rebalancing; the rpc
			// server never asserts it, so the server-side wrapper does
			// not carry it.
			if p.wrapper == reflect.TypeFor[*tracedNode]() && iface == reflect.TypeFor[core.Migrator]() {
				continue
			}
			if got, want := p.wrapper.Implements(iface), p.inner.Implements(iface); got != want {
				t.Errorf("%v implements %v = %v, but %v does: %v", p.wrapper, iface, got, p.inner, want)
			}
		}
	}
}
