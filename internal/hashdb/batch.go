package hashdb

import (
	"context"
	"sync"

	"shhc/internal/fingerprint"
	"shhc/internal/parallel"
)

// BatchGetter is implemented by stores whose point probes can be coalesced
// into one batched read. The hybrid node's asynchronous SSD phase uses it
// to pay one device charge per bucket page instead of one per fingerprint,
// and to overlap page reads up to the device's internal parallelism.
type BatchGetter interface {
	// GetBatch looks up every fingerprint, returning values and found
	// flags in input order. A lookup error fails the whole batch. A
	// cancelled ctx stops the batch from issuing further device reads
	// (reads already issued complete) and fails it with ctx.Err().
	GetBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([]Value, []bool, error)
}

var (
	_ BatchGetter = (*DB)(nil)
	_ BatchGetter = (*MemStore)(nil)
)

// groupBy partitions item indices by a shard key (bucket page for the
// on-disk table, map shard for the in-RAM store), returning the groups as
// a slice the worker pool can pull from. Within a group, indices keep
// input order, which is what gives batched writes their in-order duplicate
// semantics.
func groupBy(n int, keyOf func(int) uint64) [][]int {
	groups := make(map[uint64][]int, n)
	for i := 0; i < n; i++ {
		k := keyOf(i)
		groups[k] = append(groups[k], i)
	}
	work := make([][]int, 0, len(groups))
	for _, idxs := range groups {
		work = append(work, idxs)
	}
	return work
}

// groupIdxBy is groupBy over an explicit index set: the retry rounds of a
// batch regroup only the indices a concurrent bucket split displaced.
// Relative input order is preserved within each group.
func groupIdxBy(idxs []int, keyOf func(int) uint64) [][]int {
	groups := make(map[uint64][]int, len(idxs))
	for _, i := range idxs {
		k := keyOf(i)
		groups[k] = append(groups[k], i)
	}
	work := make([][]int, 0, len(groups))
	for _, g := range groups {
		work = append(work, g)
	}
	return work
}

// GetBatch looks up every fingerprint, reading each distinct bucket page
// once. Probes are grouped by bucket page; each group walks its bucket
// chain under the owning stripe's read lock, scanning one pooled page
// buffer for all of the group's fingerprints. Groups run concurrently up
// to parallel.IODepth, so modeled (Sleep-mode) devices overlap reads the
// way real flash channels do. Results are positionally aligned with fps;
// duplicate fingerprints in the input each get the same answer at the cost
// of no extra I/O. Cancelling ctx stops new page reads between groups and
// between chain pages.
func (db *DB) GetBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([]Value, []bool, error) {
	vals := make([]Value, len(fps))
	found := make([]bool, len(fps))
	if len(fps) == 0 {
		return vals, found, nil
	}
	pending := make([]int, len(fps))
	for i := range pending {
		pending[i] = i
	}
	// A concurrent linear-hashing split can remap probes between the
	// lock-free grouping and the stripe lock; getChain reports those back
	// and the batch regroups and retries them (see PutBatch).
	for len(pending) > 0 {
		work := groupIdxBy(pending, func(i int) uint64 { return db.bucketOf(fps[i]) })
		var staleMu sync.Mutex
		var stale []int
		err := parallel.Do(ctx, len(work), parallel.IODepth, func(w int) error {
			idxs := work[w]
			st, err := db.getChain(ctx, db.bucketOf(fps[idxs[0]]), idxs, fps, vals, found)
			if len(st) > 0 {
				staleMu.Lock()
				stale = append(stale, st...)
				staleMu.Unlock()
			}
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		pending = stale
	}
	return vals, found, nil
}

// getChain walks one bucket chain, resolving every probe index in idxs.
// Each chain page is read exactly once and scanned for all still-missing
// fingerprints of the group. Probes a concurrent split remapped away from
// bucket are returned in stale for the caller to retry. idxs is scratch.
func (db *DB) getChain(ctx context.Context, bucket uint64, idxs []int, fps []fingerprint.Fingerprint, vals []Value, found []bool) (stale []int, err error) {
	st := db.stripeOf(bucket)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	remaining := idxs[:0]
	for _, idx := range idxs {
		if db.resizable && db.bucketOf(fps[idx]) != bucket {
			stale = append(stale, idx)
		} else {
			remaining = append(remaining, idx)
		}
	}
	done := ctx.Done()
	page := getPage()
	defer putPage(page)
	for p := db.bucketPageOf(bucket); p != 0 && len(remaining) > 0; {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return stale, err
			}
		}
		if err := db.readPage(p, page); err != nil {
			return stale, err
		}
		n := pageCount(page)
		kept := remaining[:0]
		for _, idx := range remaining {
			if i := findSlot(page, 0, n, &fps[idx]); i >= 0 {
				vals[idx], found[idx] = valueAt(page, i), true
			} else {
				kept = append(kept, idx)
			}
		}
		remaining = kept
		p = pageNext(page)
	}
	return stale, nil
}

// GetBatch looks up every fingerprint. The in-RAM store has no pages to
// coalesce, but probes still overlap across shard groups up to
// parallel.IODepth so a MemStore charged to a Sleep-mode device exposes
// the same device parallelism as the on-disk table — this is what keeps
// MemStore an honest stand-in for the SSD hash table in simulations.
// Cancelling ctx stops new device reads between probes.
func (s *MemStore) GetBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([]Value, []bool, error) {
	vals := make([]Value, len(fps))
	found := make([]bool, len(fps))
	if len(fps) == 0 {
		return vals, found, nil
	}
	work := groupBy(len(fps), func(i int) uint64 {
		return fps[i].Bucket64() & (memShards - 1)
	})
	done := ctx.Done()
	err := parallel.Do(ctx, len(work), parallel.IODepth, func(w int) error {
		idxs := work[w]
		sh := s.shard(fps[idxs[0]])
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		if s.closed {
			return ErrClosed
		}
		for _, idx := range idxs {
			if done != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			s.dev.Read(entrySize)
			v, ok := sh.m[fps[idx]]
			vals[idx] = v
			found[idx] = ok
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}
