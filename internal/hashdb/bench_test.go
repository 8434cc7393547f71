package hashdb

import (
	"context"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"testing"

	"shhc/internal/device"
	"shhc/internal/fingerprint"
)

func benchDB(b *testing.B, expected int) *DB {
	b.Helper()
	// Null device: measure the store's own CPU+filesystem cost.
	db, err := Create(filepath.Join(b.TempDir(), "bench.shdb"), Options{
		ExpectedItems: expected,
		Device:        device.New(device.Null, device.Account),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func BenchmarkDBPut(b *testing.B) {
	db := benchDB(b, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Put(fp(uint64(i)), Value(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBGetHit(b *testing.B) {
	db := benchDB(b, 1<<18)
	const n = 1 << 16
	for i := 0; i < n; i++ {
		db.Put(fp(uint64(i)), Value(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := db.Get(fp(uint64(i % n))); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkDBGetMiss(b *testing.B) {
	db := benchDB(b, 1<<18)
	for i := 0; i < 1<<14; i++ {
		db.Put(fp(uint64(i)), Value(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := db.Get(fp(uint64(1<<32 + i))); err != nil || ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkMemStorePut(b *testing.B) {
	s := NewMemStore(device.New(device.Null, device.Account))
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put(fp(uint64(i)), Value(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// mixFP is a cheap stand-in for fp in the filled-table benchmarks: a
// splitmix64 expansion of i, uniform like SHA-1 output (and with a
// distinct prefix for every i), so minting a 512-pair batch costs a few
// microseconds instead of 512 SHA-1 sums.
func mixFP(i uint64) fingerprint.Fingerprint {
	var w [24]byte
	for k := 0; k < 3; k++ {
		i += 0x9e3779b97f4a7c15
		z := (i ^ i>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.BigEndian.PutUint64(w[8*k:], z^z>>31)
	}
	return fingerprint.Fingerprint(w[:fingerprint.Size])
}

// filledDB returns a resizable table preloaded with mixFP(0..n-1) to just
// under its split load factor, so bucket pages are as full as a
// long-running node's and every probe pays a real page scan.
func filledDB(b *testing.B) (db *DB, n int) {
	b.Helper()
	db = benchDB(b, 1<<16)
	n = int(db.splitLF*float64(db.numBuckets()*SlotsPerPage)) - 1
	pairs := make([]Pair, 0, 512)
	for i := 0; i < n; i++ {
		pairs = append(pairs, Pair{FP: mixFP(uint64(i)), Val: Value(i + 1)})
		if len(pairs) == cap(pairs) || i == n-1 {
			if _, _, err := db.PutBatch(context.Background(), pairs); err != nil {
				b.Fatal(err)
			}
			pairs = pairs[:0]
		}
	}
	return db, n
}

// BenchmarkDBPutBatchFilled is ingest's write shape: 512-pair batches,
// ~80% fresh fingerprints and ~20% updates of stored ones, into a table
// at its split load factor (so it keeps splitting as it grows).
func BenchmarkDBPutBatchFilled(b *testing.B) {
	db, n := filledDB(b)
	rng := rand.New(rand.NewSource(1))
	fresh := uint64(n)
	pairs := make([]Pair, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range pairs {
			if rng.Intn(100) < 80 {
				pairs[k] = Pair{FP: mixFP(fresh), Val: Value(k)}
				fresh++
			} else {
				pairs[k] = Pair{FP: mixFP(uint64(rng.Intn(n))), Val: Value(k)}
			}
		}
		if _, _, err := db.PutBatch(context.Background(), pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBGetBatchFilled is rebackup's read shape: 512-probe batches,
// ~85% hits on stored fingerprints and ~15% misses, against a table at
// its split load factor.
func BenchmarkDBGetBatchFilled(b *testing.B) {
	db, n := filledDB(b)
	rng := rand.New(rand.NewSource(1))
	miss := uint64(1 << 40)
	fps := make([]fingerprint.Fingerprint, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range fps {
			if rng.Intn(100) < 85 {
				fps[k] = mixFP(uint64(rng.Intn(n)))
			} else {
				fps[k] = mixFP(miss)
				miss++
			}
		}
		if _, _, err := db.GetBatch(context.Background(), fps); err != nil {
			b.Fatal(err)
		}
	}
}
