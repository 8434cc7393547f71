package main

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strconv"
	"syscall"
	"time"
	"unsafe"

	"shhc/internal/fingerprint"
	"shhc/internal/trace"
)

// arena is an anonymous memory mapping that holds every pre-encoded
// request and the fingerprint ids behind it. Keeping the inputs off the Go
// heap means they neither inflate live_heap_mb nor pace the collector.
type arena struct {
	mem []byte
	off int
}

func newArena(size int) (*arena, error) {
	if size < 8 {
		size = 8
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap %d-byte input arena: %w", size, err)
	}
	return &arena{mem: mem}, nil
}

func (a *arena) bytes(n int) []byte {
	a.off = (a.off + 7) &^ 7
	b := a.mem[a.off : a.off+n : a.off+n]
	a.off += n
	return b
}

func (a *arena) ids(n int) []uint64 {
	if n == 0 {
		return nil
	}
	b := a.bytes(8 * n)
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}

func (a *arena) uint32s(n int) []uint32 {
	if n == 0 {
		return nil
	}
	b := a.bytes(4 * n)
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}

func (a *arena) close() error { return syscall.Munmap(a.mem) }

// Fingerprint ids. Base-image ids are [0, baseFPs); every client's new
// fingerprints live in a space of their own, so no two clients ever share
// a new fingerprint and the audit can count each one's answers exactly.
const newIDBit = 1 << 62

func newID(client, k int) uint64 { return newIDBit | uint64(client)<<40 | uint64(k) }

func isNewID(id uint64) bool { return id&newIDBit != 0 }

// newIDIndex is k for newID(client, k).
func newIDIndex(id uint64) int { return int(id & (1<<40 - 1)) }

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fingerprintOf maps an id to a SHA-1-sized fingerprint. The first word is
// a bijection of the id, so distinct ids never collide, and all three
// words are uniform, as real SHA-1 values are on the ring and in the
// hash table's buckets.
func fingerprintOf(seed, id uint64) (fp [20]byte) {
	h1 := mix64(seed ^ mix64(id))
	h2 := mix64(h1 + 0x9e3779b97f4a7c15)
	h3 := mix64(h2 + 0x9e3779b97f4a7c15)
	binary.BigEndian.PutUint64(fp[0:], h1)
	binary.BigEndian.PutUint64(fp[8:], h2)
	binary.BigEndian.PutUint32(fp[16:], uint32(h3>>32))
	return fp
}

// plan is one pre-encoded POST /v1/plan request and the ids it carries.
type plan struct {
	req []byte
	ids []uint64
}

const (
	bodyPrefix = `{"fingerprints":[`
	bodySuffix = `]}`
	hexFPLen   = 40
)

func bodyLen(n int) int {
	if n == 0 {
		return len(bodyPrefix) + len(bodySuffix)
	}
	return len(bodyPrefix) + n*(hexFPLen+2) + (n - 1) + len(bodySuffix)
}

func requestHeader(n int) string {
	return "POST /v1/plan HTTP/1.1\r\nHost: shhc-front\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(bodyLen(n)) + "\r\n\r\n"
}

// planBytes is the arena space one n-fingerprint plan needs: the request,
// its ids, and room for the reply's missing indices.
func planBytes(n int) int {
	return len(requestHeader(n)) + bodyLen(n) + 8*n + 4*n + 24
}

// encode writes a plan's request into the arena.
func (a *arena) encode(seed uint64, ids []uint64) plan {
	hdr := requestHeader(len(ids))
	req := a.bytes(len(hdr) + bodyLen(len(ids)))
	w := copy(req, hdr)
	w += copy(req[w:], bodyPrefix)
	for i, id := range ids {
		if i > 0 {
			req[w] = ','
			w++
		}
		fp := fingerprintOf(seed, id)
		req[w] = '"'
		hex.Encode(req[w+1:], fp[:])
		req[w+1+hexFPLen] = '"'
		w += hexFPLen + 2
	}
	copy(req[w:], bodySuffix)
	return plan{req: req, ids: ids}
}

// stream is one closed-loop client's fixed sequence of plans. The first
// warm plans are set-up; the rest are timed.
type stream struct {
	plans []plan
	warm  int
	// newIDs is how many new fingerprints the stream introduces.
	newIDs int
	// missing holds every reply's missing indices back to back, and
	// missOff[i]..missOff[i+1] delimits plan i's share.
	missing []uint32
	missOff []int
	// failed marks plans whose request failed outright.
	failed []bool
	// failMsg is the first failure's error.
	failMsg string
	// lat is each timed plan's client-observed latency.
	lat []time.Duration
}

// inputs is everything a run replays, generated from the seed before any
// timing starts.
type inputs struct {
	preload []*stream
	streams []*stream
	arena   *arena
}

func (in *inputs) close() error { return in.arena.close() }

func (in *inputs) timedPlans() int {
	n := 0
	for _, s := range in.streams {
		n += len(s.plans) - s.warm
	}
	return n
}

func (in *inputs) timedFPs() int {
	n := 0
	for _, s := range in.streams {
		for _, p := range s.plans[s.warm:] {
			n += len(p.ids)
		}
	}
	return n
}

// picker draws ids for one client's plans.
type picker struct {
	rng  *rand.Rand
	cold coldCycle
	news int
	// gen is the client's trace stream, and seen maps each fingerprint
	// it has emitted to the new id it became.
	gen  *trace.Generator
	seen map[fingerprint.Fingerprint]int
}

// coldCycle walks one client's share of the cold part of the base image in
// a seeded order and wraps around, so a cold fingerprint comes back only
// after the whole share has been seen — a reuse distance beyond the
// cluster's LRU. Every client walks the same permutation of the cold ids,
// each over its own disjoint span of it.
type coldCycle struct {
	n, mult, add, lo, span, next int
}

func newColdCycle(seed uint64, n, client, clients int) coldCycle {
	rng := rand.New(rand.NewPCG(seed, 0xc01d))
	mult := 1 + rng.IntN(n-1)
	for gcd(mult, n) != 1 {
		mult = 1 + rng.IntN(n-1)
	}
	span := n / clients
	return coldCycle{n: n, mult: mult, add: rng.IntN(n), lo: client * span, span: span}
}

func (c *coldCycle) id() uint64 {
	i := c.lo + c.next
	c.next = (c.next + 1) % c.span
	return uint64((i*c.mult + c.add) % c.n)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// generate builds the run's inputs: the base-image preload split over
// preloaders streams, then each of the clients' warm-up and timed plans
// for the workload.
func generate(w *workload, sz sizes, seed uint64, seconds, clients, preloaders int) (*inputs, error) {
	planSize := w.planSize(sz)
	timedPerClient := w.timedPlans(seconds, sz) / clients
	if timedPerClient < 1 {
		timedPerClient = 1
	}
	warmPerClient := w.warmPlans(sz, clients)
	preloadPlans := (sz.base + sz.batch - 1) / sz.batch

	size := preloadPlans * planBytes(sz.batch)
	size += clients * (timedPerClient + warmPerClient) * planBytes(planSize)
	ar, err := newArena(size + 4096)
	if err != nil {
		return nil, err
	}
	in := &inputs{arena: ar}

	// Preload: the base image in id order, plan i to stream i%preloaders.
	for c := 0; c < preloaders; c++ {
		in.preload = append(in.preload, &stream{})
	}
	for p := 0; p < preloadPlans; p++ {
		lo := p * sz.batch
		hi := min(lo+sz.batch, sz.base)
		ids := ar.ids(hi - lo)
		for i := range ids {
			ids[i] = uint64(lo + i)
		}
		s := in.preload[p%preloaders]
		s.plans = append(s.plans, ar.encode(seed, ids))
	}
	for _, s := range in.preload {
		s.prepare(ar)
	}

	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewPCG(seed, uint64(w.index)<<32|uint64(c)))
		pk := &picker{rng: rng, cold: newColdCycle(seed, sz.cold(), c, clients)}
		s := &stream{warm: warmPerClient}
		total := warmPerClient + timedPerClient
		if w.spec != nil {
			spec := *w.spec
			spec.Fingerprints = total * planSize
			spec.Seed = rng.Int64()
			pk.gen = trace.NewGenerator(spec)
			pk.seen = make(map[fingerprint.Fingerprint]int)
		}
		for p := 0; p < total; p++ {
			ids := ar.ids(planSize)
			w.fill(pk, c, p, p < warmPerClient, ids, sz, clients)
			s.plans = append(s.plans, ar.encode(seed, ids))
		}
		s.newIDs = pk.news
		s.prepare(ar)
		in.streams = append(in.streams, s)
	}
	return in, nil
}

// prepare sizes the stream's reply log in the arena.
func (s *stream) prepare(ar *arena) {
	n := 0
	for _, p := range s.plans {
		n += len(p.ids)
	}
	s.missing = ar.uint32s(n)
	s.missOff = make([]int, len(s.plans)+1)
	s.failed = make([]bool, len(s.plans))
	s.lat = make([]time.Duration, len(s.plans)-s.warm)
}

// fresh returns a new id for the client.
func (pk *picker) fresh(client int) uint64 {
	id := newID(client, pk.news)
	pk.news++
	return id
}

// traced returns the client's next id from its trace stream: a new id the
// first time the generator emits a fingerprint, and that id again each time
// the generator repeats it.
func (pk *picker) traced(client int) uint64 {
	fp, _ := pk.gen.Next()
	if k, ok := pk.seen[fp]; ok {
		return newID(client, k)
	}
	pk.seen[fp] = pk.news
	return pk.fresh(client)
}
