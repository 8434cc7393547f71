// Command perfbench is SHHC's end-to-end benchmark. It starts the deployed
// stack in process — web front end, cluster, rpc transport, four hybrid
// nodes and their file-backed hash tables — and drives POST /v1/plan with
// closed-loop backup clients, one or more per CPU, replaying a fixed,
// seeded set of plans. It audits every answer against the dedup invariant
// and prints the end-to-end metrics (--trace 0) or, from a traced run, the
// per-layer metrics (--trace 1). The last line of standard output is the
// result as one JSON object.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"shhc/internal/webfront"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: ingest, rebackup or chatty")
		seed    = fs.Uint64("seed", 1, "seed the inputs are generated from")
		seconds = fs.Int("seconds", 10, "nominal measured seconds; sets the fixed number of timed plans")
		trace   = fs.Int("trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics from a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	cfg := runConfig{
		w: w, sz: deployed, seed: *seed, seconds: *seconds, trace: *trace == 1,
		clients: runtime.NumCPU(), workDir: work, log: stdout,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: answer audit failed; see the audit line above")
		return 1
	}
	return 0
}

// runConfig is one benchmark invocation.
type runConfig struct {
	w       *workload
	sz      sizes
	seed    uint64
	seconds int
	trace   bool
	// clients is the CPU count: the preload's stream count, and the
	// closed loop's size per unit of the workload's clientsPerCPU.
	clients int
	workDir string
	log     io.Writer
	// wrapIndex is passed to every stack (the self-test's fault hook).
	wrapIndex func(webfront.Index) webfront.Index
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a --trace 0 run sets the stack up; setup_s is
// their median.
const setups = 3

func run(cfg runConfig) (*result, error) {
	in, err := generate(cfg.w, cfg.sz, cfg.seed, cfg.seconds, cfg.clients*cfg.w.clientsPerCPU, cfg.clients)
	if err != nil {
		return nil, err
	}
	defer in.close()
	printEnv(cfg, in)

	if !cfg.trace {
		p, err := runPass(cfg, in, nil, setups)
		if err != nil {
			return nil, err
		}
		res := &result{Correct: true, Metrics: endToEnd(p)}
		p.finish(cfg, in, res)
		return res, nil
	}

	plain, err := runPass(cfg, in, nil, 1)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	traced, err := runPass(cfg, in, tr, 1)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: perLayer(cfg, in, plain, traced)}
	plain.finish(cfg, in, res)
	traced.finish(cfg, in, res)
	return res, nil
}

// timedRounds is how many rounds the timed plans are replayed in. Each
// round ends when every client has finished its share. Every timed metric
// is the median over rounds, so a few seconds of interference from outside
// the process, or one round's rare slow plans, move it less.
const timedRounds = 5

// round is one timed round's cost and latency.
type round struct {
	wall, cpu time.Duration
	fps       int
	p50, p99  float64 // ms
}

// pass is one measured replay of the timed plans on a fresh stack.
type pass struct {
	traced     bool
	setupS     []float64
	rounds     []round
	before     counters
	after      counters
	heapBytes  uint64
	indexBytes int64
	audit      auditResult
}

// finish prints the pass's audit and folds it into res, which starts out
// correct. A result that several passes finish is correct only if every
// pass was, and its failed count is the worst pass's.
func (p *pass) finish(cfg runConfig, in *inputs, res *result) {
	res.Attempted = in.timedPlans()
	failed := p.audit.failed()
	res.Failed = max(res.Failed, failed)
	res.Correct = res.Correct && p.audit.ok()
	kind := "untraced"
	if p.traced {
		kind = "traced"
	}
	if p.audit.ok() {
		fmt.Fprintf(cfg.log, "audit (%s pass) ok: %d timed plans, plan_fail_frac 0\n", kind, res.Attempted)
		return
	}
	fmt.Fprintf(cfg.log, "audit (%s pass) FAILED: plan_fail_frac %.6f (%d failed, %d wrong of %d), %d violations; first: %s\n",
		kind, float64(failed)/float64(res.Attempted), p.audit.failedPlans, p.audit.wrongPlans,
		res.Attempted, p.audit.violations, p.audit.first)
}

// runPass sets the stack up `setups` times, tearing down all but the
// last, then replays the timed plans on the last one and audits every
// answer.
func runPass(cfg runConfig, in *inputs, tr *tracer, setups int) (*pass, error) {
	p := &pass{traced: tr != nil}
	for _, s := range in.streams {
		s.reset()
	}
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		st, conns, err := setUp(cfg, in, tr, i)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		p.setupS = append(p.setupS, d)
		fmt.Fprintf(cfg.log, "setup %d: %.3f s (start %d nodes, preload %d fps, warm up %d plans)\n",
			i+1, d, cfg.sz.nodes, cfg.sz.base, in.streams[0].warm*len(in.streams))
		if err := auditPreload(in.preload); err != nil {
			closeAll(conns, st)
			return nil, err
		}
		if i < setups-1 {
			if err := closeAll(conns, st); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.measure(cfg, in, st, conns, tr); err != nil {
			closeAll(conns, st)
			return nil, err
		}
		if err := closeAll(conns, st); err != nil {
			return nil, err
		}
	}
	p.audit = auditStreams(in.streams)
	return p, nil
}

// setUp starts a stack, connects the clients, preloads the base image and
// warms up: everything setup_s counts.
func setUp(cfg runConfig, in *inputs, tr *tracer, i int) (*stack, []*conn, error) {
	st, err := startStack(stackOptions{
		sz: cfg.sz, dir: filepath.Join(cfg.workDir, fmt.Sprintf("stack-%d", i)),
		tr: tr, wrapIndex: cfg.wrapIndex,
	})
	if err != nil {
		return nil, nil, err
	}
	var conns []*conn
	for range in.streams {
		c, err := dialConn(st.addr)
		if err != nil {
			closeAll(conns, st)
			return nil, nil, err
		}
		conns = append(conns, c)
	}
	if _, err := drive(conns, in.preload, preloadPhase); err != nil {
		closeAll(conns, st)
		return nil, nil, fmt.Errorf("preload: %w", err)
	}
	if _, err := drive(conns, in.streams, warmPhase); err != nil {
		closeAll(conns, st)
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, conns, nil
}

func closeAll(conns []*conn, st *stack) error {
	var errs []error
	for _, c := range conns {
		errs = append(errs, c.close())
	}
	errs = append(errs, st.close())
	return errors.Join(errs...)
}

func (p *pass) measure(cfg runConfig, in *inputs, st *stack, conns []*conn, tr *tracer) error {
	var err error
	if p.before, err = readCounters(st, tr); err != nil {
		return err
	}
	for r := 0; r < timedRounds; r++ {
		cpu0, err := processCPU()
		if err != nil {
			return err
		}
		ph := timedRound(r, timedRounds)
		wall, err := drive(conns, in.streams, ph)
		if err != nil {
			return fmt.Errorf("timed round %d: %w", r+1, err)
		}
		cpu1, err := processCPU()
		if err != nil {
			return err
		}
		rd := round{wall: wall, cpu: cpu1 - cpu0}
		var lat []time.Duration
		for _, s := range in.streams {
			for _, pl := range s.plans[ph.from(s):ph.to(s)] {
				rd.fps += len(pl.ids)
			}
			lat = append(lat, s.lat[ph.from(s)-s.warm:ph.to(s)-s.warm]...)
		}
		rd.p50, _ = latencyMS(lat, 0.50)
		var beyond int
		rd.p99, beyond = latencyMS(lat, 0.99)
		p.rounds = append(p.rounds, rd)
		fmt.Fprintf(cfg.log, "timed round %d: %d plans, %d fps in %.3f s, %.0f fp/s, %.3f us CPU/fp, p50 %.3f ms, p99 %.3f ms (%d samples beyond)\n",
			r+1, len(lat), rd.fps, wall.Seconds(), float64(rd.fps)/wall.Seconds(), float64(rd.cpu)/1e3/float64(rd.fps),
			rd.p50, rd.p99, beyond)
	}
	if p.after, err = readCounters(st, tr); err != nil {
		return err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapBytes = ms.HeapAlloc
	if p.indexBytes, err = st.indexBytes(); err != nil {
		return err
	}
	var lat []time.Duration
	for _, s := range in.streams {
		lat = append(lat, s.lat...)
	}
	p50, _ := latencyMS(lat, 0.50)
	p99, beyond := latencyMS(lat, 0.99)
	var wall time.Duration
	for _, rd := range p.rounds {
		wall += rd.wall
	}
	fmt.Fprintf(cfg.log, "timed: %d plans, %d fps in %.3f s on %d clients; over all rounds p50 %.3f ms, p99 %.3f ms (%d samples beyond)\n",
		in.timedPlans(), in.timedFPs(), wall.Seconds(), len(in.streams),
		p50, p99, beyond)
	return nil
}

// reset clears a stream's replies before a new pass.
func (s *stream) reset() {
	clear(s.failed)
	clear(s.missOff)
	clear(s.lat)
	s.failMsg = ""
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
