package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"shhc/internal/hashdb"
	"shhc/internal/metrics"
)

// counters is a snapshot of every public counter the benchmark reads.
type counters struct {
	cpu time.Duration // process user+sys time
	mem runtime.MemStats

	lookups, bloomShort, storeHits, storeMisses, bloomFalse uint64
	cacheHits, cacheMisses, evictions                       uint64

	entries, slots          uint64
	splits, maxChain        uint64
	reads, writes           int64
	busy                    time.Duration
	redirects, creditStalls uint64

	trace traceSnap
}

func readCounters(st *stack, tr *tracer) (counters, error) {
	var c counters
	var err error
	if c.cpu, err = processCPU(); err != nil {
		return c, err
	}
	runtime.ReadMemStats(&c.mem)
	for _, n := range st.nodes {
		ns, err := n.Stats(context.Background())
		if err != nil {
			return c, err
		}
		c.lookups += ns.Lookups
		c.bloomShort += ns.BloomShort
		c.storeHits += ns.StoreHits
		c.storeMisses += ns.StoreMisses
		c.bloomFalse += ns.BloomFalse
		c.cacheHits += ns.Cache.Hits
		c.cacheMisses += ns.Cache.Misses
		c.evictions += ns.Cache.Evictions
	}
	for _, db := range st.dbs {
		ds := db.Stats()
		c.entries += ds.Entries
		c.slots += ds.Buckets * hashdb.SlotsPerPage
		c.splits += ds.Splits
		c.maxChain = max(c.maxChain, ds.MaxChain)
		c.reads += ds.Device.Reads
		c.writes += ds.Device.Writes
		c.busy += ds.Device.Busy
	}
	ts := st.cluster.ClientTransportStats()
	c.redirects, c.creditStalls = ts.RedirectsFollowed, ts.CreditStalls
	if tr != nil {
		c.trace = tr.snap()
	}
	return c, nil
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func (p *pass) cpuPerFP(in *inputs) float64 {
	return float64(p.after.cpu-p.before.cpu) / 1e3 / float64(in.timedFPs())
}

// latencyMS is quantile q of the latencies in milliseconds, and how many
// samples lie beyond it. It sorts lat.
func latencyMS(lat []time.Duration, q float64) (ms float64, beyond int) {
	v := metrics.Percentile(lat, q)
	for _, l := range lat {
		if l > v {
			beyond++
		}
	}
	return float64(v) / 1e6, beyond
}

// endToEnd is what a backup client sees, from an untraced pass.
func endToEnd(p *pass) map[string]metric {
	var rate, cpu, p50 []float64
	for _, rd := range p.rounds {
		rate = append(rate, float64(rd.fps)/rd.wall.Seconds())
		cpu = append(cpu, float64(rd.cpu)/1e3/float64(rd.fps))
		p50 = append(p50, rd.p50)
	}
	return map[string]metric{
		"plan_fps_per_s":     {median(rate), "fp/s"},
		"plan_p50_ms":        {median(p50), "ms"},
		"cpu_us_per_fp":      {median(cpu), "us"},
		"live_heap_mb":       {float64(p.heapBytes) / (1 << 20), "MiB"},
		"index_bytes_per_fp": {float64(p.indexBytes) / float64(p.after.entries), "B"},
		"setup_s":            {median(p.setupS), "s"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer is the layer budget: spans from the traced pass and counters
// read around its timed window, plus the untraced pass for the tracing
// overhead, the check that tracing left the code path unchanged, and the
// tail latency. plan_p99_ms is reported here, without a bound, because
// CPU time the host takes away from the VM doubles it for whole runs.
func perLayer(cfg runConfig, in *inputs, plain, traced *pass) map[string]metric {
	a, b := traced.after, traced.before
	t := a.trace.sub(b.trace)
	plans := float64(in.timedPlans())
	fps := float64(in.timedFPs())
	var clientNs int64
	for _, s := range in.streams {
		for _, l := range s.lat {
			clientNs += int64(l)
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	hashdbNs := t.getBatch.ns + t.putBatch.ns + t.point.ns

	// Tracing must not change what the layers do: the counters the
	// forwarded interfaces drive must match the untraced pass.
	pa, pb := plain.after, plain.before
	pairs := []struct {
		name          string
		plain, traced float64
	}{
		{"lru.hits", float64(pa.cacheHits - pb.cacheHits), float64(a.cacheHits - b.cacheHits)},
		{"device.reads", float64(pa.reads - pb.reads), float64(a.reads - b.reads)},
		{"device.writes", float64(pa.writes - pb.writes), float64(a.writes - b.writes)},
		{"hashdb.splits", float64(pa.splits - pb.splits), float64(a.splits - b.splits)},
	}
	drift := 0.0
	for _, p := range pairs {
		d := ratio(p.traced-p.plain, max(p.plain, 1))
		if d < 0 {
			d = -d
		}
		drift = max(drift, d)
		fmt.Fprintf(cfg.log, "forwarded counter %s: untraced %.0f traced %.0f\n", p.name, p.plain, p.traced)
	}

	var p99 []float64
	for _, rd := range plain.rounds {
		p99 = append(p99, rd.p99)
	}

	return map[string]metric{
		"plan_p99_ms":                    {median(p99), "ms"},
		"webfront.self_us_per_plan":      {us(t.handler.ns-t.index.ns) / plans, "us"},
		"webfront.transport_us_per_plan": {us(clientNs-t.handler.ns) / plans, "us"},
		"cluster.self_us_per_plan":       {us(t.clusterSelf) / plans, "us"},
		"cluster.backend_calls_per_plan": {float64(t.backend.calls) / plans, "calls"},
		"rpc.overhead_us_per_call":       {ratio(us(t.backend.ns-t.node.ns), float64(t.backend.calls)), "us"},
		"rpc.calls_per_plan":             {float64(t.node.calls) / plans, "calls"},
		"rpc.credit_stalls":              {float64(a.creditStalls - b.creditStalls), "count"},
		"rpc.redirects":                  {float64(a.redirects - b.redirects), "count"},
		"node.self_us_per_call":          {ratio(us(t.node.ns-hashdbNs), float64(t.node.calls)), "us"},
		"lru.hit_ratio": {ratio(float64(a.cacheHits-b.cacheHits),
			float64(a.cacheHits-b.cacheHits+a.cacheMisses-b.cacheMisses)), "ratio"},
		"lru.evictions_per_fp": {float64(a.evictions-b.evictions) / fps, "count"},
		"bloom.negative_ratio": {ratio(float64(a.bloomShort-b.bloomShort), float64(a.lookups-b.lookups)), "ratio"},
		"bloom.false_positive_ratio": {ratio(float64(a.bloomFalse-b.bloomFalse),
			float64(a.storeHits-b.storeHits+a.storeMisses-b.storeMisses)), "ratio"},
		"hashdb.getbatch_us_per_call":   {ratio(us(t.getBatch.ns), float64(t.getBatch.calls)), "us"},
		"hashdb.putbatch_us_per_call":   {ratio(us(t.putBatch.ns), float64(t.putBatch.calls)), "us"},
		"hashdb.page_reads_per_fp":      {float64(a.reads-b.reads) / fps, "pages"},
		"hashdb.page_writes_per_fp":     {float64(a.writes-b.writes) / fps, "pages"},
		"hashdb.splits":                 {float64(a.splits - b.splits), "count"},
		"hashdb.max_chain":              {float64(a.maxChain), "pages"},
		"hashdb.load_factor":            {ratio(float64(a.entries), float64(a.slots)), "ratio"},
		"device.modeled_busy_us_per_fp": {us(int64(a.busy-b.busy)) / fps, "us"},
		"runtime.allocs_per_fp":         {float64(a.mem.Mallocs-b.mem.Mallocs) / fps, "allocs"},
		"runtime.gc_cycles":             {float64(a.mem.NumGC - b.mem.NumGC), "count"},
		"runtime.gc_pause_ms":           {float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6, "ms"},
		"trace.overhead_frac":           {traced.cpuPerFP(in)/plain.cpuPerFP(in) - 1, "frac"},
		"trace.counter_drift_frac":      {drift, "frac"},
	}
}

// flushPolicy is how the stack writes, stated with every result.
const flushPolicy = "write-through: each insert goes to the hash table's pages by buffered pwrite into the page cache; " +
	"no journal, no write-back destage, no fsync on the timed path (the table fsyncs only its one-time dirty mark, " +
	"during preload); the SSD model accounts I/O without sleeping"

// printEnv records the machine, the code and the inputs.
func printEnv(cfg runConfig, in *inputs) {
	plans := map[string]int{}
	for _, w := range workloads {
		n := cfg.clients * w.clientsPerCPU
		plans[w.name] = w.timedPlans(cfg.seconds, cfg.sz) / n * n
	}
	sz := cfg.sz
	env := map[string]any{
		"go":                          runtime.Version(),
		"goos":                        runtime.GOOS,
		"goarch":                      runtime.GOARCH,
		"gomaxprocs":                  runtime.GOMAXPROCS(0),
		"numcpu":                      runtime.NumCPU(),
		"cpu_model":                   cpuModel(),
		"commit":                      commit(),
		"workload":                    cfg.w.name,
		"seed":                        cfg.seed,
		"clients":                     len(in.streams),
		"plan_fps":                    cfg.w.planSize(sz),
		"timed_plans":                 in.timedPlans(),
		"warm_plans":                  in.streams[0].warm * len(in.streams),
		"timed_plans_by_workload":     plans,
		"flush_policy":                flushPolicy,
		"nodes":                       sz.nodes,
		"base_image_fps":              sz.base,
		"total_lru_entries":           sz.nodes * sz.cache,
		"base_over_total_lru":         float64(sz.base) / float64(sz.nodes*sz.cache),
		"cold_base_fps":               sz.cold(),
		"expected_items_per_node":     sz.expected,
		"base_per_node_over_expected": float64(sz.base) / float64(sz.nodes) / float64(sz.expected),
		"split_load_factor":           hashdb.DefaultSplitLoadFactor,
	}
	var news int
	for _, s := range in.streams {
		news += s.newIDs
	}
	env["new_fps"] = news
	env["final_per_node_over_expected"] = float64(sz.base+news) / float64(sz.nodes) / float64(sz.expected)
	line, _ := json.Marshal(env)
	fmt.Fprintf(cfg.log, "env %s\n", line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}
