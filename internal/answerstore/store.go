// Package answerstore is the engine's answer cache (the paper's task
// cache, Fig. 1) as a persistent, concurrency-safe, cross-query
// answer store: crowd votes for a question keyed by normalized content
// (task, kind, tuple content via Question.CacheKey) outlive the query
// that paid for them, so an identical question asked later — by the same
// tenant or a different one — is served from the store instead of being
// re-posted to the marketplace.
//
// This is the service-layer half of the paper's §2.6 task cache: within
// one run the executor already dedups identical questions; across runs
// crowd labor is the scarce resource, and dedup across traffic is what
// makes the unit economics of a shared query service work.
//
// Persistence is an internal/framelog log of JSON records, one per
// Store call, with torn-tail truncation on open, so a crash mid-append
// loses at most the record being written.
package answerstore

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"qurk/internal/framelog"
	"qurk/internal/hit"
)

// Policy gates which stored entries may be served.
type Policy struct {
	// MinAgreement is the minimum number of stored votes an entry needs
	// before Lookup will serve it. Entries below the floor stay stored
	// (a later run may add votes) but read as misses. Zero means any
	// non-empty entry qualifies.
	MinAgreement int
	// MaxAge is how long an entry stays servable after it was stored.
	// Zero means entries never go stale. Stale entries read as misses
	// and are overwritten by the next Store for the same key.
	MaxAge time.Duration
}

// entry is one stored question's votes plus its freshness timestamp.
type entry struct {
	answers  []hit.CachedAnswer
	storedAt time.Time
}

// record is the on-disk JSON payload for one Store call.
type record struct {
	Key      uint64             `json:"key"`
	Task     string             `json:"task"`
	Kind     uint8              `json:"kind"`
	StoredAt time.Time          `json:"stored_at"`
	Answers  []hit.CachedAnswer `json:"answers"`
}

// Stats is a snapshot of store traffic since open.
type Stats struct {
	// Entries is the number of distinct questions currently held.
	Entries int `json:"entries"`
	// Hits counts Lookups served from the store.
	Hits int `json:"hits"`
	// Misses counts Lookups that found nothing servable.
	Misses int `json:"misses"`
	// Stored counts Store calls accepted since open.
	Stored int `json:"stored"`
	// Loaded counts entries replayed from the file at open.
	Loaded int `json:"loaded"`
}

// Store is a cross-query answer store. It satisfies core.AnswerStore, so
// plugging it into an Engine's Answers slot routes every crowd operator's
// question minting through it. All methods are safe for concurrent use
// by any number of queries.
type Store struct {
	mu      sync.Mutex
	entries map[uint64]entry
	pol     Policy
	log     *framelog.Log // nil when memory-only
	stats   Stats
	now     func() time.Time
}

// Open opens (creating if needed) the store backed by the record file at
// path, replaying existing records into memory and truncating a torn
// tail left by a crash. An empty path yields a memory-only store that
// lives as long as the process — useful for tests and single-run CLIs.
func Open(path string, pol Policy) (*Store, error) {
	s := &Store{
		entries: make(map[uint64]entry),
		pol:     pol,
		now:     time.Now,
	}
	if path == "" {
		return s, nil
	}
	log, err := framelog.Open(path, os.O_CREATE, func(payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return framelog.ErrTorn
		}
		s.entries[rec.Key] = entry{answers: rec.Answers, storedAt: rec.StoredAt}
		s.stats.Loaded++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("answerstore: open %s: %w", path, err)
	}
	s.log = log
	s.stats.Entries = len(s.entries)
	return s, nil
}

// servable reports whether e passes the policy gates at time now.
func (s *Store) servable(e entry, now time.Time) bool {
	if len(e.answers) == 0 {
		return false
	}
	if s.pol.MinAgreement > 0 && len(e.answers) < s.pol.MinAgreement {
		return false
	}
	if s.pol.MaxAge > 0 && now.Sub(e.storedAt) > s.pol.MaxAge {
		return false
	}
	return true
}

// Lookup returns the stored votes for a question if a servable entry
// exists under the policy (enough votes, fresh enough). The returned
// slice is shared — callers must not mutate it.
func (s *Store) Lookup(q *hit.Question) ([]hit.CachedAnswer, bool) {
	key := q.CacheKey()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if ok && s.servable(e, s.now()) {
		s.stats.Hits++
		return e.answers, true
	}
	s.stats.Misses++
	return nil, false
}

// Store records votes for a question, replacing any prior entry, and
// appends the record to the backing file (fsynced before return, so a
// served answer is never lost to a crash). Empty vote sets are ignored:
// a question whose assignments all expired must not poison the store.
func (s *Store) Store(q *hit.Question, answers []hit.CachedAnswer) {
	if len(answers) == 0 {
		return
	}
	cp := make([]hit.CachedAnswer, len(answers))
	copy(cp, answers)
	key := q.CacheKey()
	s.mu.Lock()
	defer s.mu.Unlock()
	at := s.now()
	s.entries[key] = entry{answers: cp, storedAt: at}
	s.stats.Stored++
	s.stats.Entries = len(s.entries)
	if s.log == nil {
		return
	}
	s.append(record{Key: key, Task: q.Task, Kind: uint8(q.Kind), StoredAt: at, Answers: cp})
}

// append durably writes one record. On an append error the store falls
// back to memory-only: it keeps serving (losing persistence is strictly
// better than failing queries mid-run).
func (s *Store) append(rec record) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if err := s.log.Append(payload); err != nil {
		s.log.Close()
		s.log = nil
	}
}

// Stats returns a snapshot of store traffic.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	return st
}

// Len returns the number of distinct questions held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Close releases the backing file. The in-memory map stays readable;
// subsequent Stores simply stop persisting.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// setClock overrides the freshness clock; tests use it to exercise
// MaxAge without sleeping.
func (s *Store) setClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}
