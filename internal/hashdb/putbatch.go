package hashdb

// This file implements the batched write path: the write-side twin of the
// coalesced read path in batch.go. A PutBatch groups its pairs by bucket
// page and performs one read-modify-write per bucket chain — every chain
// page is read at most once and written at most once no matter how many of
// the batch's entries land on it — with chains processed concurrently up
// to parallel.IODepth. This is what turns the small random SSD writes that
// dominate flash-backed stores into a handful of large page writes.

import (
	"context"
	"sync"
	"sync/atomic"

	"shhc/internal/fingerprint"
	"shhc/internal/parallel"
)

// Pair couples a fingerprint with the value to store for it.
type Pair struct {
	FP  fingerprint.Fingerprint
	Val Value
}

// BatchPutter is implemented by stores whose point inserts can be
// coalesced into one batched read-modify-write per bucket page. The hybrid
// node's batch-insert arm and its group-commit destager use it to pay one
// page write per dirtied page instead of one device round-trip per entry.
type BatchPutter interface {
	// PutBatch stores every pair, overwriting existing values. created
	// reports, in input order, whether each pair created a new entry
	// (a fingerprint appearing twice in one batch resolves in input
	// order, so the second occurrence is an update). pagesWritten is the
	// number of device page writes the batch cost — entry writes for
	// stores without pages — the denominator of the write-coalescing
	// ratio. A store error fails the whole batch. A cancelled ctx stops
	// the batch from issuing device I/O for further bucket chains and
	// fails it with ctx.Err(); a chain whose in-memory mutation has
	// finished always writes out completely, so cancellation can strand
	// at most already-allocated (unreferenced) overflow pages, never a
	// torn chain.
	PutBatch(ctx context.Context, pairs []Pair) (created []bool, pagesWritten int, err error)
}

var (
	_ BatchPutter = (*DB)(nil)
	_ BatchPutter = (*MemStore)(nil)
)

// PutBatch stores every pair with one read-modify-write per distinct
// bucket chain. Chains run concurrently up to parallel.IODepth, so modeled
// (Sleep-mode) devices overlap page I/O the way real flash channels do.
//
// The bucket grouping is computed without locks, so a concurrent linear-
// hashing split can remap some pairs between grouping and the stripe
// lock; putChain detects those under the lock and reports them back, and
// the batch simply regroups and retries the leftovers — splits are rare
// and move at most one bucket at a time, so the retry set collapses
// immediately.
func (db *DB) PutBatch(ctx context.Context, pairs []Pair) ([]bool, int, error) {
	created := make([]bool, len(pairs))
	if len(pairs) == 0 {
		return created, 0, nil
	}
	var pages atomic.Int64
	pending := make([]int, len(pairs))
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		work := groupIdxBy(pending, func(i int) uint64 { return db.bucketOf(pairs[i].FP) })
		var staleMu sync.Mutex
		var stale []int
		err := parallel.Do(ctx, len(work), parallel.IODepth, func(w int) error {
			idxs := work[w]
			n, st, err := db.putChain(ctx, db.bucketOf(pairs[idxs[0]].FP), idxs, pairs, created)
			pages.Add(int64(n))
			if len(st) > 0 {
				staleMu.Lock()
				stale = append(stale, st...)
				staleMu.Unlock()
			}
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		pending = stale
	}
	if err := db.maybeSplit(); err != nil {
		return nil, 0, err
	}
	return created, int(pages.Load()), nil
}

// chainPage is one page of a bucket chain held in memory during a batched
// read-modify-write. no == 0 marks a fresh overflow page whose file
// position has not been allocated yet. Slots from read on were appended
// by this read-modify-write (read is 0 on a fresh page).
type chainPage struct {
	no    uint64
	buf   []byte
	read  int
	dirty bool
}

// putChain applies the group's pairs to one bucket chain as a single
// read-modify-write under the owning stripe's lock: the chain is read once
// into pooled page buffers, all updates and appends are applied in memory
// (growing the chain with placeholder pages when it fills), overflow
// allocations claim their page numbers in one allocRun call (draining the
// free list before extending the file), and only then are the dirty pages
// written — new overflow pages before the pages that link to them, so an
// interrupted batch strands orphan pages rather than dangling pointers.
// bucket is a bucket index; pairs a concurrent split remapped away from it
// since the caller grouped them are returned in stale for the caller to
// retry (the mapping is stable under the stripe lock, so the filter is
// authoritative). idxs is the caller's group and is used as scratch:
// putChain compacts it in place, keeping input order. Returns the number
// of page writes issued.
func (db *DB) putChain(ctx context.Context, bucket uint64, idxs []int, pairs []Pair, created []bool) (writes int, stale []int, err error) {
	st := db.stripeOf(bucket)
	st.mu.Lock()
	defer st.mu.Unlock()
	if db.closed {
		return 0, nil, ErrClosed
	}
	remaining := idxs[:0]
	for _, idx := range idxs {
		if db.resizable && db.bucketOf(pairs[idx].FP) != bucket {
			stale = append(stale, idx)
		} else {
			remaining = append(remaining, idx)
		}
	}
	if len(remaining) == 0 {
		return 0, stale, nil
	}
	if err := db.markDirty(); err != nil {
		return 0, stale, err
	}

	// Most chains are a page or two long: keep their headers on the stack.
	var short [4]chainPage
	chain := short[:0]
	defer func() {
		for i := range chain {
			putPage(chain[i].buf)
		}
	}()
	// Read the chain, applying in-place updates (in input order) as pages
	// arrive and stopping early once every pair is satisfied — a
	// pure-update group pays only the pages up to its last hit, like the
	// old per-key Put did. A fingerprint appears at most once per chain,
	// so a resolved pair cannot also live on an unread page. Appends need
	// the whole chain (free-slot search + tail link), so reading
	// continues while any pair is unresolved.
	done := ctx.Done()
	for p := db.bucketPageOf(bucket); p != 0 && len(remaining) > 0; {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return 0, stale, err
			}
		}
		buf := getPage()
		if err := db.readPage(p, buf); err != nil {
			putPage(buf)
			return 0, stale, err
		}
		n := pageCount(buf)
		//lint:ignore poolescape chain is a function-local staging slice; every chainPage.buf is released by the putPage loop before putBatch returns.
		chain = append(chain, chainPage{no: p, buf: buf, read: n})
		cp := &chain[len(chain)-1]
		kept := remaining[:0]
		for _, idx := range remaining {
			if j := findSlot(buf, 0, n, &pairs[idx].FP); j >= 0 {
				// Later duplicates of one fingerprint overwrite in
				// order; the last value wins, as sequential Puts would.
				setEntryAt(buf, j, pairs[idx].FP, pairs[idx].Val)
				cp.dirty = true
			} else {
				kept = append(kept, idx)
			}
		}
		remaining = kept
		p = pageNext(buf)
	}
	db.observeChain(len(chain))

	// The read loop saw the whole chain, so no on-disk entry matches a
	// still-unresolved pair; only a slot this call appended can — an
	// earlier copy of the same fresh fingerprint, which this copy then
	// updates. Appends fill the first page with a free slot, so pages
	// before it stay full: the walk checks each page's appended slots
	// and stops at the first page with room, where the pair is appended.
	// A full chain grows by a placeholder page (no=0).
	var createdCount, newPages int
next:
	for _, idx := range remaining {
		fp, val := &pairs[idx].FP, pairs[idx].Val
		i, n := 0, 0
		for ; i < len(chain); i++ {
			n = pageCount(chain[i].buf)
			if j := findSlot(chain[i].buf, chain[i].read, n, fp); j >= 0 {
				setEntryAt(chain[i].buf, j, *fp, val)
				continue next
			}
			if n < SlotsPerPage {
				break
			}
		}
		if i == len(chain) {
			buf := getPage()
			clear(buf)
			//lint:ignore poolescape chain is a function-local staging slice; every chainPage.buf is released by the putPage loop before putBatch returns.
			chain = append(chain, chainPage{buf: buf})
			newPages++
			n = 0
		}
		setEntryAt(chain[i].buf, n, *fp, val)
		setPageCount(chain[i].buf, n+1)
		chain[i].dirty = true
		created[idx] = true
		createdCount++
	}

	// One allocRun call claims file positions for every new overflow
	// page, reusing freed pages before growing the file.
	if newPages > 0 {
		nos, err := db.allocRun(newPages)
		if err != nil {
			return 0, stale, err
		}
		k := 0
		for i := range chain {
			if chain[i].no == 0 {
				chain[i].no = nos[k]
				k++
			}
		}
		for i := 0; i+1 < len(chain); i++ {
			if pageNext(chain[i].buf) != chain[i+1].no {
				setPageNext(chain[i].buf, chain[i+1].no)
				chain[i].dirty = true
			}
		}
	}

	for i := len(chain) - 1; i >= 0; i-- {
		if !chain[i].dirty {
			continue
		}
		if err := db.writePage(chain[i].no, chain[i].buf); err != nil {
			return writes, stale, err
		}
		writes++
	}
	db.entries.Add(uint64(createdCount))
	db.overflowPages.Add(uint64(newPages))
	return writes, stale, nil
}

// PutBatch stores every pair. The in-RAM store has no pages to coalesce —
// pagesWritten is one per entry — but writes still overlap across shard
// groups up to parallel.IODepth and each shard lock is taken once per
// group instead of once per pair, mirroring GetBatch. Cancelling ctx stops
// new device writes between entries.
func (s *MemStore) PutBatch(ctx context.Context, pairs []Pair) ([]bool, int, error) {
	created := make([]bool, len(pairs))
	if len(pairs) == 0 {
		return created, 0, nil
	}
	work := groupBy(len(pairs), func(i int) uint64 {
		return pairs[i].FP.Bucket64() & (memShards - 1)
	})
	done := ctx.Done()
	err := parallel.Do(ctx, len(work), parallel.IODepth, func(w int) error {
		idxs := work[w]
		sh := s.shard(pairs[idxs[0]].FP)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if s.closed {
			return ErrClosed
		}
		for _, idx := range idxs {
			if done != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			s.dev.Write(entrySize)
			_, existed := sh.m[pairs[idx].FP]
			sh.m[pairs[idx].FP] = pairs[idx].Val
			created[idx] = !existed
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return created, len(pairs), nil
}
