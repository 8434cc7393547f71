package main

import (
	"fmt"

	"shhc/internal/trace"
)

// sizes fixes the deployment and the input scale.
type sizes struct {
	// nodes, cache and expected configure the cluster: node count, LRU
	// entries per node, and each node's ExpectedItems (hash table and
	// Bloom filter sizing, one value as shhc-node's -expected sets both).
	nodes, cache, expected int
	// base is the preloaded base image; hot is chatty's hot set, the
	// newest hot ids of the base image.
	base, hot int
	// batch is the large-plan size (the backup client's PlanBatch) and
	// small the chatty plan size.
	batch, small int
	// minPlans is the fewest timed plans a run makes, so that ten or more
	// samples lie beyond p99.
	minPlans int
}

// deployed is the benchmark's scale. The base image is 2.5 times the
// cluster's total LRU, so its cold part cycles with a reuse distance of
// about 1.5 cluster-fulls of LRU and never hits the cache. ExpectedItems
// leaves the preloaded tables well below the split load factor (1.5x
// ExpectedItems entries per node), and ingest pushes them past it about
// halfway through its timed window. The preload dominates set-up time, so
// the base image is no larger than that needs.
var deployed = sizes{
	nodes: 4, cache: 1 << 16, expected: 1 << 18,
	base: 640 << 10, hot: 1 << 16,
	batch: 2048, small: 16,
	minPlans: 1000,
}

// cold is how many of the oldest base ids are cold: preloaded before the
// last 1.25 cluster-fulls of LRU inserts, so no cache holds them.
func (sz sizes) cold() int { return sz.base - sz.nodes*sz.cache*5/4 }

// workload is one traffic mix of plans. Every workload drives the same
// stack with closed-loop clients, one keep-alive connection each.
type workload struct {
	name  string
	index int
	// large selects batch-sized plans; otherwise plans are small.
	large bool
	// clientsPerCPU scales the closed loop: small plans need more clients
	// in flight to keep every CPU busy.
	clientsPerCPU int
	// rate is the nominal timed plans per second on the reference
	// machine: a run makes seconds*rate plans (at least minPlans), so the
	// work is fixed for a given --seconds and the run lasts about that
	// long.
	rate float64
	// spec, when set, is the trace each client's ids are drawn from
	// (picker.traced).
	spec *trace.Spec
	// fill writes plan p's ids for client c.
	fill func(pk *picker, c, p int, warm bool, ids []uint64, sz sizes, clients int)
}

var workloads = []*workload{
	{
		// First backups of new clients into an index that already holds
		// the base image, drawn from the repo's trace generator at
		// trace.WebServer's redundancy (18%), mean reuse distance (10,781
		// fingerprints of the client's own stream) and duplicate run
		// length. Its repeats lie well inside the LRU; Bloom negatives
		// send the rest, most lookups, down the insert path, and the
		// tables split online.
		name: "ingest", index: 0, large: true, clientsPerCPU: 1, rate: 50, spec: &trace.WebServer,
		fill: func(pk *picker, c, _ int, _ bool, ids []uint64, _ sizes, _ int) {
			for i := range ids {
				ids[i] = pk.traced(c)
			}
		},
	},
	{
		// An incremental backup: trace.MailServer's redundancy (85%),
		// with every duplicate taken from the cold base image, the
		// previous backup, so that most lookups miss the LRU, pass the
		// Bloom filter and read hash-table pages. The read-side twin of
		// ingest.
		name: "rebackup", index: 1, large: true, clientsPerCPU: 1, rate: 70,
		fill: func(pk *picker, c, _ int, _ bool, ids []uint64, _ sizes, _ int) {
			for i := range ids {
				if pk.rng.Float64() < trace.MailServer.PctRedundant {
					ids[i] = pk.cold.id()
				} else {
					ids[i] = pk.fresh(c)
				}
			}
		},
	},
	{
		// Small clients sending small plans from a hot set that fits in
		// the LRU: per-request cost (HTTP, JSON, cluster fan-out, one rpc
		// round trip per node touched) dominates. Warm-up walks each
		// client's share of the hot set once, so every timed lookup is a
		// cache hit.
		name: "chatty", index: 2, large: false, clientsPerCPU: 4, rate: 5600,
		fill: func(pk *picker, c, p int, warm bool, ids []uint64, sz sizes, clients int) {
			lo := sz.base - sz.hot
			for i := range ids {
				if warm {
					ids[i] = uint64(lo + (c*(sz.hot/clients)+p*len(ids)+i)%sz.hot)
				} else {
					ids[i] = uint64(lo + pk.rng.IntN(sz.hot))
				}
			}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest, rebackup or chatty)", name)
}

func (w *workload) planSize(sz sizes) int {
	if w.large {
		return sz.batch
	}
	return sz.small
}

func (w *workload) timedPlans(seconds int, sz sizes) int {
	return max(sz.minPlans, int(float64(seconds)*w.rate))
}

// warmPlans is each client's warm-up: enough large plans to settle the
// heap and connections, or, for small plans, one pass over the client's
// share of the hot set.
func (w *workload) warmPlans(sz sizes, clients int) int {
	if w.large {
		return 16
	}
	return (sz.hot/clients + sz.small - 1) / sz.small
}
