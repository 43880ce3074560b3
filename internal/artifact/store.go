package artifact

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// defaultCapacity bounds the store when the caller passes 0: generous for
// the evaluation grid (12 cells × 2 distinct routes = 24 artifacts) while
// still bounding memory for long interactive sessions.
const defaultCapacity = 64

// Stats are the store's cumulative counters. Hit/miss totals per key are
// schedule-invariant given a fixed disk state — a key used u times costs
// exactly 1 miss and u−1 hits when cold, or u hits when a valid disk copy
// exists, regardless of which runner gets there first, because the
// single-flight leader blocks the others — but the attribution of those
// hits to individual flows depends on scheduling, so higher layers
// surface them as reporting-only.
type Stats struct {
	Hits      uint64 // lookups served without computing (memory, waiters, or disk)
	Misses    uint64 // lookups that computed and published a new artifact
	Evictions uint64 // artifacts dropped by the LRU bound

	// Disk is the persistent tier's view, zero when none is attached.
	Disk DiskStats
}

// Sub returns s minus base, for windowed per-flow deltas.
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Hits: s.Hits - base.Hits, Misses: s.Misses - base.Misses,
		Evictions: s.Evictions - base.Evictions,
		Disk:      s.Disk.Sub(base.Disk),
	}
}

// Store is a bounded, concurrency-safe, content-addressed artifact cache
// with single-flight computation: concurrent Do calls for one key elect a
// leader that computes while the rest block and share the sealed value.
// One Store may serve every runner of a process (internal/sched passes a
// shared one to all cells); sharing never changes a result byte, because
// a hit returns exactly the bytes the miss sealed. WithDisk layers a
// persistent tier underneath, extending the same guarantee across process
// boundaries: a leader's miss falls through to disk, and only a load that
// survives the full envelope verification (checksum, version, fingerprint,
// key — see codec.go) is served.
type Store struct {
	mu       sync.Mutex
	capacity int
	entries  map[Key]*list.Element // -> *entry, in lru
	lru      *list.List            // front = most recently used
	inflight map[Key]*flight
	disk     *DiskStore // optional persistent tier; nil = memory only

	stats Stats
}

type entry struct {
	key Key
	art *Artifact
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	art  *Artifact
	err  error
}

// NewStore returns a store bounded to capacity artifacts; a capacity
// below 1 selects the default.
func NewStore(capacity int) *Store {
	if capacity < 1 {
		capacity = defaultCapacity
	}
	return &Store{
		capacity: capacity,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
		inflight: make(map[Key]*flight),
	}
}

// WithDisk layers a persistent tier under the LRU and returns the store.
// Misses fall through to disk before computing, fresh seals write through,
// and Peek loads warm base artifacts across process boundaries. Attach it
// at construction time, before the store is shared.
func (s *Store) WithDisk(d *DiskStore) *Store {
	s.disk = d
	return s
}

// Do returns the artifact for key, computing it with compute on a miss.
// The boolean reports whether the call was served from the store (true)
// or ran compute (false). Concurrent calls for the same key run compute
// once: the leader computes and publishes, waiters count as hits. If the
// leader fails, its error propagates to it alone; each waiter retries as
// a new leader (the computation is deterministic, but its error may be a
// per-caller cancellation).
func (s *Store) Do(ctx context.Context, key Key, compute func(context.Context) (*Artifact, error)) (*Artifact, bool, error) {
	for {
		s.mu.Lock()
		if el, ok := s.entries[key]; ok {
			s.lru.MoveToFront(el)
			s.stats.Hits++
			art := el.Value.(*entry).art
			s.mu.Unlock()
			return art, true, nil
		}
		if f, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if f.err == nil {
				s.mu.Lock()
				s.stats.Hits++
				s.mu.Unlock()
				return f.art, true, nil
			}
			continue // leader failed; retry as a new leader
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[key] = f
		s.mu.Unlock()

		// Leader: fall through to the persistent tier before computing. A
		// verified disk load is as good as a memory hit — the envelope's
		// checksum + fingerprint + key checks guarantee it carries exactly
		// the bytes some earlier compute sealed — so it counts as a hit and
		// skips the compute entirely. Only a genuine two-tier miss computes,
		// and the fresh seal writes through (failure to persist is counted
		// in DiskStats.WriteErrors, never surfaced: the run has its result).
		var art *Artifact
		var err error
		fromDisk := false
		if s.disk != nil {
			if got := s.disk.Load(key); got != nil && got.key == key {
				art, fromDisk = got, true
			}
		}
		if art == nil {
			art, err = compute(ctx)
			if err == nil && art == nil {
				err = fmt.Errorf("artifact: compute returned nil artifact for %s", key)
			}
			if err == nil && art.key != key {
				err = fmt.Errorf("artifact: compute sealed %s while computing %s", art.key, key)
			}
			if err == nil && s.disk != nil {
				_ = s.disk.Save(art)
			}
		}
		f.art, f.err = art, err

		s.mu.Lock()
		delete(s.inflight, key)
		if err == nil {
			if fromDisk {
				s.stats.Hits++
			} else {
				s.stats.Misses++
			}
			s.insertLocked(key, art)
		}
		s.mu.Unlock()
		close(f.done)
		if err != nil {
			return nil, false, err
		}
		return art, fromDisk, nil
	}
}

// insertLocked publishes an artifact and evicts past the capacity bound.
func (s *Store) insertLocked(key Key, art *Artifact) {
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		el.Value.(*entry).art = art
		return
	}
	s.entries[key] = s.lru.PushFront(&entry{key: key, art: art})
	for s.lru.Len() > s.capacity {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*entry).key)
		s.stats.Evictions++
	}
}

// Peek returns the artifact for key without counting a memory lookup or
// touching the LRU order, or nil when absent in both tiers. The ECO path
// uses it to probe for a warm base artifact without distorting the
// hit/miss totals; the disk fall-through is what lets a second process
// resume an ECO from a base artifact routed by the first. A disk-loaded
// artifact is published into the memory tier so later lookups hit there.
func (s *Store) Peek(key Key) *Artifact {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		art := el.Value.(*entry).art
		s.mu.Unlock()
		return art
	}
	disk := s.disk
	s.mu.Unlock()
	if disk == nil {
		return nil
	}
	art := disk.Load(key)
	if art == nil || art.key != key {
		return nil
	}
	s.mu.Lock()
	s.insertLocked(key, art)
	s.mu.Unlock()
	return art
}

// Discard drops key from both tiers. An ECO resume calls it when the
// artifact's drain section fails to decode (Artifact.Drain): its Result
// verified at load, so its file would otherwise keep loading as a hit
// with a drain state no resume can use. The disk copy is removed and
// counted Corrupt, and the next compute of key writes it through again.
func (s *Store) Discard(key Key) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.lru.Remove(el)
		delete(s.entries, key)
	}
	disk := s.disk
	s.mu.Unlock()
	if disk != nil {
		disk.discard(key)
	}
}

// Len returns the number of cached artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Stats returns the cumulative counters, including the persistent tier's
// when one is attached.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	disk := s.disk
	s.mu.Unlock()
	if disk != nil {
		st.Disk = disk.Stats()
	}
	return st
}
