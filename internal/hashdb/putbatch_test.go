package hashdb

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"shhc/internal/device"
	"shhc/internal/fingerprint"
)

func testDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Create(filepath.Join(t.TempDir(), "putbatch.shdb"), opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPutBatchBasic(t *testing.T) {
	db := testDB(t, Options{ExpectedItems: 1000})
	pairs := make([]Pair, 100)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(uint64(i)), Val: Value(i + 1)}
	}
	created, pages, err := db.PutBatch(context.Background(), pairs)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if pages == 0 || pages >= len(pairs) {
		t.Fatalf("pagesWritten = %d, want coalesced (0 < pages < %d)", pages, len(pairs))
	}
	for i, c := range created {
		if !c {
			t.Fatalf("created[%d] = false for a fresh fingerprint", i)
		}
	}
	if db.Len() != len(pairs) {
		t.Fatalf("Len = %d, want %d", db.Len(), len(pairs))
	}
	for i := range pairs {
		v, ok, err := db.Get(pairs[i].FP)
		if err != nil || !ok || v != pairs[i].Val {
			t.Fatalf("Get(%d) = (%v,%v,%v), want (%v,true,nil)", i, v, ok, err, pairs[i].Val)
		}
	}

	// Second batch: half updates (new values), half fresh.
	second := make([]Pair, 100)
	for i := range second {
		second[i] = Pair{FP: fp(uint64(i + 50)), Val: Value(1000 + i)}
	}
	created, _, err = db.PutBatch(context.Background(), second)
	if err != nil {
		t.Fatalf("PutBatch(second): %v", err)
	}
	for i, c := range created {
		want := i >= 50 // first 50 overlap the initial batch
		if c != want {
			t.Fatalf("created[%d] = %v, want %v", i, c, want)
		}
	}
	if db.Len() != 150 {
		t.Fatalf("Len = %d, want 150", db.Len())
	}
	for i := range second {
		v, ok, _ := db.Get(second[i].FP)
		if !ok || v != second[i].Val {
			t.Fatalf("updated Get(%d) = (%v,%v), want (%v,true)", i, v, ok, second[i].Val)
		}
	}
}

func TestPutBatchDuplicateInBatch(t *testing.T) {
	// A fresh fingerprint appearing twice in one batch: the first copy is
	// appended, the second must find that appended slot and update it
	// (last value wins, created=false), wherever the append landed.
	cases := []struct {
		name    string
		preload int // fp(0..preload-1) stored before the batch
		pages   int // pagesWritten by the batch
	}{
		// Both copies on the (empty) bucket page.
		{"bucket page", 0, 1},
		// The chain is full: the first copy lands on a newly appended
		// overflow page and the later copy updates it there.
		{"new overflow page", SlotsPerPage, 2},
		// The first copy takes the bucket page's last free slot, the
		// other fresh fingerprint spills to a new overflow page, and the
		// later copy updates the bucket page.
		{"last free slot", SlotsPerPage - 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := testDB(t, Options{Buckets: 1})
			for i := 0; i < tc.preload; i++ {
				if _, err := db.Put(fp(uint64(i)), Value(i+1)); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			a, b := fp(1<<20), fp(1<<20+1)
			pairs := []Pair{
				{FP: a, Val: 1},
				{FP: b, Val: 2},
				{FP: a, Val: 3}, // same fingerprint again: an update, last value wins
			}
			created, pages, err := db.PutBatch(context.Background(), pairs)
			if err != nil {
				t.Fatalf("PutBatch: %v", err)
			}
			if !created[0] || !created[1] || created[2] {
				t.Fatalf("created = %v, want [true true false]", created)
			}
			if v, ok, _ := db.Get(a); !ok || v != 3 {
				t.Fatalf("Get(dup) = (%v,%v), want (3,true)", v, ok)
			}
			if v, ok, _ := db.Get(b); !ok || v != 2 {
				t.Fatalf("Get(other) = (%v,%v), want (2,true)", v, ok)
			}
			if want := tc.preload + 2; db.Len() != want {
				t.Fatalf("Len = %d, want %d", db.Len(), want)
			}
			if pages != tc.pages {
				t.Fatalf("pagesWritten = %d, want %d", pages, tc.pages)
			}
		})
	}
}

// TestPrefixCollision pins that chain scans confirm a prefix-key match
// against all 20 bytes: fingerprints with identical first 8 bytes share a
// bucket and a scan key, yet stay distinct entries for every operation.
func TestPrefixCollision(t *testing.T) {
	db := testDB(t, Options{ExpectedItems: 1000})
	fps := make([]fingerprint.Fingerprint, 4)
	pairs := make([]Pair, len(fps))
	for i := range fps {
		fps[i] = fp(1)
		fps[i][8+3*i] ^= 0x5a // differ only within bytes 8..19
		pairs[i] = Pair{FP: fps[i], Val: Value(10 + i)}
		if fps[i].Prefix64() != fps[0].Prefix64() || (i > 0 && fps[i] == fps[0]) {
			t.Fatalf("fps[%d] is not a distinct prefix twin of fps[0]", i)
		}
	}
	created, _, err := db.PutBatch(context.Background(), pairs)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for i, c := range created {
		if !c {
			t.Fatalf("created[%d] = false for a distinct fingerprint", i)
		}
	}
	if db.Len() != len(fps) {
		t.Fatalf("Len = %d, want %d", db.Len(), len(fps))
	}
	check := func(want map[int]Value) {
		t.Helper()
		vals, found, err := db.GetBatch(context.Background(), fps)
		if err != nil {
			t.Fatalf("GetBatch: %v", err)
		}
		for i := range fps {
			wv, wok := want[i]
			if v, ok, err := db.Get(fps[i]); err != nil || ok != wok || v != wv {
				t.Fatalf("Get(fps[%d]) = (%v,%v,%v), want (%v,%v,nil)", i, v, ok, err, wv, wok)
			}
			if found[i] != wok || vals[i] != wv {
				t.Fatalf("GetBatch[%d] = (%v,%v), want (%v,%v)", i, vals[i], found[i], wv, wok)
			}
		}
	}
	check(map[int]Value{0: 10, 1: 11, 2: 12, 3: 13})

	if created, err := db.Put(fps[1], 99); err != nil || created {
		t.Fatalf("Put(update) = (%v,%v), want (false,nil)", created, err)
	}
	check(map[int]Value{0: 10, 1: 99, 2: 12, 3: 13})

	if ok, err := db.Delete(fps[2]); err != nil || !ok {
		t.Fatalf("Delete = (%v,%v), want (true,nil)", ok, err)
	}
	check(map[int]Value{0: 10, 1: 99, 3: 13})
	if db.Len() != len(fps)-1 {
		t.Fatalf("Len after Delete = %d, want %d", db.Len(), len(fps)-1)
	}
}

func TestPutBatchOverflowChains(t *testing.T) {
	// One bucket: everything chains off a single page, forcing overflow
	// allocation inside the batch.
	db := testDB(t, Options{Buckets: 1})
	n := SlotsPerPage*3 + 5
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(uint64(i)), Val: Value(i + 1)}
	}
	created, pages, err := db.PutBatch(context.Background(), pairs)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for i, c := range created {
		if !c {
			t.Fatalf("created[%d] = false", i)
		}
	}
	if wantPages := 4; pages != wantPages {
		t.Fatalf("pagesWritten = %d, want %d (bucket page + 3 overflow)", pages, wantPages)
	}
	if db.Len() != n {
		t.Fatalf("Len = %d, want %d", db.Len(), n)
	}
	st := db.Stats()
	if st.OverflowPages != 3 {
		t.Fatalf("OverflowPages = %d, want 3", st.OverflowPages)
	}
	for i := range pairs {
		v, ok, _ := db.Get(pairs[i].FP)
		if !ok || v != pairs[i].Val {
			t.Fatalf("Get(%d) = (%v,%v), want (%v,true)", i, v, ok, pairs[i].Val)
		}
	}

	// A later per-key Put walks the 4-page chain: chain telemetry must
	// see it.
	if _, err := db.Put(fp(uint64(n)), Value(n+1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	st = db.Stats()
	if st.MaxChain < 4 {
		t.Fatalf("MaxChain = %d, want >= 4", st.MaxChain)
	}
	var hist uint64
	for _, c := range st.ChainHist {
		hist += c
	}
	if hist == 0 {
		t.Fatal("ChainHist recorded no walks")
	}
}

func TestPutUpdateStopsAtHitPage(t *testing.T) {
	// An in-place update found on an early chain page must not pay reads
	// for the rest of the chain (the old per-key Put's early return,
	// preserved by the streaming update in putChain).
	dev := device.New(device.Null, device.Account)
	db, err := Create(filepath.Join(t.TempDir(), "early.shdb"), Options{Buckets: 1, Device: dev})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer db.Close()
	n := SlotsPerPage*2 + 4 // three-page chain
	for i := 0; i < n; i++ {
		if _, err := db.Put(fp(uint64(i)), Value(i+1)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	readsBefore := dev.Stats().Reads
	// fp(0) was inserted first, so it lives on the bucket page itself.
	if created, err := db.Put(fp(0), 999); err != nil || created {
		t.Fatalf("update Put = (%v,%v), want (false,nil)", created, err)
	}
	if reads := dev.Stats().Reads - readsBefore; reads != 1 {
		t.Fatalf("update on the bucket page cost %d page reads, want 1", reads)
	}
	if v, ok, _ := db.Get(fp(0)); !ok || v != 999 {
		t.Fatalf("updated value = (%v,%v), want (999,true)", v, ok)
	}
}

func TestPutBatchMatchesPut(t *testing.T) {
	// The batched path and the per-key path must produce identical
	// logical contents on the same (duplicate-heavy) input.
	rng := rand.New(rand.NewSource(42))
	pairs := make([]Pair, 500)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(uint64(rng.Intn(120))), Val: Value(rng.Intn(1 << 20))}
	}

	sequential := testDB(t, Options{Buckets: 3})
	batched := testDB(t, Options{Buckets: 3})
	for _, p := range pairs {
		if _, err := sequential.Put(p.FP, p.Val); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if _, _, err := batched.PutBatch(context.Background(), pairs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if sequential.Len() != batched.Len() {
		t.Fatalf("Len mismatch: sequential %d, batched %d", sequential.Len(), batched.Len())
	}
	if err := sequential.Range(func(f fingerprint.Fingerprint, v Value) bool {
		bv, ok, err := batched.Get(f)
		if err != nil || !ok || bv != v {
			t.Fatalf("batched Get(%s) = (%v,%v,%v), want (%v,true,nil)", f.Short(), bv, ok, err, v)
		}
		return true
	}); err != nil {
		t.Fatalf("Range: %v", err)
	}
}

func TestPutBatchCancelled(t *testing.T) {
	db := testDB(t, Options{ExpectedItems: 1000})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pairs := make([]Pair, 64)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(uint64(i)), Val: Value(i + 1)}
	}
	if _, _, err := db.PutBatch(ctx, pairs); err != context.Canceled {
		t.Fatalf("PutBatch(cancelled) err = %v, want context.Canceled", err)
	}
	// The database must stay fully usable: a cancelled batch may have
	// written some chains and skipped others, never torn one.
	if _, _, err := db.PutBatch(context.Background(), pairs); err != nil {
		t.Fatalf("PutBatch after cancel: %v", err)
	}
	for i := range pairs {
		if v, ok, err := db.Get(pairs[i].FP); err != nil || !ok || v != pairs[i].Val {
			t.Fatalf("Get(%d) after cancelled batch = (%v,%v,%v)", i, v, ok, err)
		}
	}
}

// TestPutBatchConcurrentWithReads race-stresses batched writes against
// point and batched reads all landing on one bucket page (Buckets: 1), the
// worst case for the read-modify-write exclusion.
func TestPutBatchConcurrentWithReads(t *testing.T) {
	db, err := Create(filepath.Join(t.TempDir(), "race.shdb"), Options{
		Buckets: 1,
		Device:  device.New(device.Null, device.Account),
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer db.Close()

	const keys = 96
	fps := make([]fingerprint.Fingerprint, keys)
	for i := range fps {
		fps[i] = fp(uint64(i))
	}
	val := func(i int) Value { return Value(i*7 + 1) } // fixed mapping: readers can verify

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Writers: batched inserts of random slices, values fixed per key.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				lo := rng.Intn(keys)
				hi := lo + 1 + rng.Intn(keys-lo)
				pairs := make([]Pair, 0, hi-lo)
				for k := lo; k < hi; k++ {
					pairs = append(pairs, Pair{FP: fps[k], Val: val(k)})
				}
				if _, _, err := db.PutBatch(context.Background(), pairs); err != nil {
					t.Errorf("PutBatch: %v", err)
					return
				}
			}
		}(int64(w))
	}
	// Point readers.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(keys)
				v, ok, err := db.Get(fps[k])
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if ok && v != val(k) {
					t.Errorf("Get(%d) = %v, want %v", k, v, val(k))
					return
				}
			}
		}(int64(r + 2))
	}
	// Batched reader.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			vals, found, err := db.GetBatch(context.Background(), fps)
			if err != nil {
				t.Errorf("GetBatch: %v", err)
				return
			}
			for k := range fps {
				if found[k] && vals[k] != val(k) {
					t.Errorf("GetBatch(%d) = %v, want %v", k, vals[k], val(k))
					return
				}
			}
		}
	}()

	writers.Wait()
	close(stop)
	readers.Wait()
	// Final state: every key the writers covered holds its fixed value.
	for k := range fps {
		if v, ok, _ := db.Get(fps[k]); ok && v != val(k) {
			t.Fatalf("final Get(%d) = %v, want %v", k, v, val(k))
		}
	}
}

func BenchmarkDBPutBatch(b *testing.B) {
	db := benchDB(b, 1<<20)
	const batch = 512
	pairs := make([]Pair, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range pairs {
			pairs[k] = Pair{FP: fp(uint64(i*batch + k)), Val: Value(k + 1)}
		}
		if _, _, err := db.PutBatch(context.Background(), pairs); err != nil {
			b.Fatal(err)
		}
	}
}
