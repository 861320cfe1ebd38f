// Durable queries: the service-level manifest + WAL pair behind
// qurkd's -journal-dir, and the restart recovery that resumes them.
//
// Every submitted query persists two files in the journal directory:
//
//	<id>.manifest.json  who/what: tenant, query text, resolved options,
//	                    backend, budget, and an options fingerprint
//	<id>.qjl            the wal.Journal of the run itself: HIT-group
//	                    intents/results, breaker checkpoints, budget
//	                    charge records, and the terminal seal
//
// The manifest is what Recover needs before it can rebuild an engine
// (the WAL's own meta only carries the query text and fingerprint);
// the WAL is what makes the rebuilt run bit-identical. Charge records
// (wal.LogCharge) make tenant accounting exactly-once across crashes:
// the gate journals every ledger charge before the group posts, the
// recovery replays them into a fresh ledger, and the resumed run pops
// them (wal.TakeCharge) instead of charging again.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"qurk/internal/core"
	"qurk/internal/wal"
)

// manifest is the service-level record of one durable query.
type manifest struct {
	ID            string       `json:"id"`
	Tenant        string       `json:"tenant"`
	Backend       string       `json:"backend"`
	Query         string       `json:"query"`
	BudgetDollars float64      `json:"budget_dollars"`
	Options       core.Options `json:"options"`
	Fingerprint   uint64       `json:"fingerprint"`
}

// sealCancelled is the seal reason for queries the user explicitly
// cancelled; unlike "interrupted" seals, Recover does not resume them.
const sealCancelled = "cancelled"

// manifestPath and journalPath name a query's two durable files.
func (s *Service) manifestPath(id string) string {
	return filepath.Join(s.cfg.JournalDir, id+".manifest.json")
}

func (s *Service) journalPath(id string) string {
	return filepath.Join(s.cfg.JournalDir, id+".qjl")
}

// writeManifest persists the manifest atomically (tmp + rename), so a
// crash mid-write never leaves a torn manifest for Recover to trip on.
func (s *Service) writeManifest(m *manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encoding manifest %s: %w", m.ID, err)
	}
	path := s.manifestPath(m.ID)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("service: writing manifest %s: %w", m.ID, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("service: committing manifest %s: %w", m.ID, err)
	}
	return nil
}

// readManifest loads one manifest file.
func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("service: decoding %s: %w", path, err)
	}
	if m.ID == "" || m.Tenant == "" || m.Query == "" {
		return nil, fmt.Errorf("service: manifest %s is missing id, tenant, or query", path)
	}
	return &m, nil
}

// attachJournal makes one admitted submission durable: it writes the
// manifest, creates the WAL, and rewires the engine so every HIT
// group and budget charge flows through the journal. Returns the open
// journal the query must seal at its terminal transition.
func (s *Service) attachJournal(id, backend string, tenant *Tenant, src string, gate *BudgetGate, eng *core.Engine) (*wal.Journal, error) {
	fp := wal.Fingerprint(src, eng.Options, backend)
	m := &manifest{
		ID:            id,
		Tenant:        tenant.ID,
		Backend:       backend,
		Query:         src,
		BudgetDollars: tenant.BudgetDollars,
		Options:       eng.Options,
		Fingerprint:   fp,
	}
	if err := s.writeManifest(m); err != nil {
		return nil, err
	}
	j, err := wal.Create(s.journalPath(id), wal.Meta{Query: src, Backend: backend, Fingerprint: fp})
	if err != nil {
		return nil, fmt.Errorf("service: creating journal for %s: %w", id, err)
	}
	s.wireJournal(j, gate, eng)
	return j, nil
}

// wireJournal routes an engine's marketplace traffic through the
// journal: replay-or-post via wal.Market, breaker checkpoints via
// eng.Journal, and crash-safe budget charges via the gate.
func (s *Service) wireJournal(j *wal.Journal, gate *BudgetGate, eng *core.Engine) {
	gate.Journal = j
	eng.Market = wal.NewMarket(gate, j)
	eng.Journal = j
}

// Recover scans the journal directory and re-admits every durable
// query found there: unfinished (and deadline-interrupted) queries
// resume running under their original tenants and IDs, completed ones
// replay for free so their rows are servable again, and explicitly
// cancelled ones are registered terminal. Tenant ledgers are rebuilt
// from the journals' charge records, so a group charged before the
// crash is never charged again. Queries whose journal does not match
// their manifest (fingerprint or query-text drift) are registered as
// failed — the daemon keeps serving everyone else.
//
// Callers that configure JournalDir must call Recover exactly once,
// after New; the service reports not-ready until it completes.
func (s *Service) Recover() error {
	defer func() {
		s.mu.Lock()
		s.recovering = false
		s.mu.Unlock()
	}()
	if s.cfg.JournalDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.JournalDir, 0o755); err != nil {
		return fmt.Errorf("service: journal dir: %w", err)
	}
	entries, err := os.ReadDir(s.cfg.JournalDir)
	if err != nil {
		return fmt.Errorf("service: scanning journal dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".manifest.json") {
			names = append(names, e.Name())
		}
	}
	// Submission order: IDs are zero-padded (q0001…), so name order is
	// submission order, which keeps recovered ID assignment stable.
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(s.cfg.JournalDir, name)
		m, err := readManifest(path)
		if err != nil {
			id := strings.TrimSuffix(name, ".manifest.json")
			s.registerTerminal(&manifest{ID: id, Tenant: "?", Query: "?"}, StateFailed,
				fmt.Errorf("service: unreadable manifest: %w", err))
			continue
		}
		s.recoverOne(m)
	}
	return nil
}

// recoverOne rebuilds and restarts a single journaled query.
func (s *Service) recoverOne(m *manifest) {
	tenant := s.tenants.Ensure(m.Tenant, m.BudgetDollars)
	mux, ok := s.muxes[m.Backend]
	if !ok {
		s.registerTerminal(m, StateFailed,
			fmt.Errorf("service: backend %q is no longer configured", m.Backend))
		return
	}

	jpath := s.journalPath(m.ID)
	var j *wal.Journal
	var err error
	if _, statErr := os.Stat(jpath); errors.Is(statErr, fs.ErrNotExist) {
		// Crashed between manifest commit and journal creation: nothing
		// was posted or charged, so the query starts from scratch.
		j, err = wal.Create(jpath, wal.Meta{Query: m.Query, Backend: m.Backend, Fingerprint: m.Fingerprint})
	} else {
		j, err = wal.Open(jpath)
	}
	if err != nil {
		s.registerTerminal(m, StateFailed, fmt.Errorf("service: opening journal: %w", err))
		return
	}

	// The resume guard: manifest, journal meta, and a recomputation
	// from the manifest's stored options must all agree before any of
	// the journal's results are trusted for this query text.
	gate := &BudgetGate{Tenant: tenant, Label: m.ID, Inner: mux}
	eng := s.newEngine(gate, m.Options)
	fp := wal.Fingerprint(m.Query, eng.Options, m.Backend)
	jm := j.Meta()
	if fp != m.Fingerprint || jm.Fingerprint != m.Fingerprint || jm.Query != m.Query {
		_ = j.Close()
		s.registerTerminal(m, StateFailed, fmt.Errorf(
			"service: journal/manifest fingerprint mismatch for %s (manifest %016x, journal %016x, recomputed %016x): refusing to resume",
			m.ID, m.Fingerprint, jm.Fingerprint, fp))
		return
	}
	if sealed, reason := j.Sealed(); sealed && reason == sealCancelled {
		_ = j.Close()
		s.registerTerminal(m, StateCancelled, errors.New("service: cancelled before restart"))
		return
	}

	// Exactly-once accounting: the fresh boot's in-memory ledger learns
	// every charge the journal recorded; the resumed run pops these
	// (TakeCharge) instead of charging again.
	for _, c := range j.Charges() {
		tenant.Ledger.Add(m.ID, c.HITs, c.Assignments)
	}

	s.wireJournal(j, gate, eng)
	ctx, q := s.register(m.ID, tenant.ID, m.Backend, m.Query, eng, j)
	if q == nil {
		return // service shut down mid-recovery
	}
	s.armDeadline(ctx, q, eng.Options.DeadlineHours)
	go q.run(ctx)
}

// registerTerminal records a query that recovery refused to (or need
// not) restart, so its fate is visible in the API rather than
// silently dropped.
func (s *Service) registerTerminal(m *manifest, st State, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteID(m.ID)
	q := &Query{
		ID:       m.ID,
		TenantID: m.Tenant,
		Backend:  m.Backend,
		Src:      m.Query,
		svc:      s,
		state:    st,
		err:      err,
		wake:     make(chan struct{}),
	}
	q.cancelCause = func(error) {}
	s.queries[m.ID] = q
	s.order = append(s.order, m.ID)
}

// noteID advances the ID counter past a recovered ID so new
// submissions never collide with resumed queries. Callers hold s.mu.
func (s *Service) noteID(id string) {
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "q")); err == nil && n > s.nextID {
		s.nextID = n
	}
}

// register installs a runnable query record under s.mu and returns
// its run context; nil if the service is closed.
func (s *Service) register(id, tenantID, backend, src string, eng *core.Engine, j *wal.Journal) (context.Context, *Query) {
	ctx, cancel := context.WithCancelCause(context.Background())
	q := &Query{
		ID:          id,
		TenantID:    tenantID,
		Backend:     backend,
		Src:         src,
		svc:         s,
		engine:      eng,
		cancelCause: cancel,
		state:       StateQueued,
		wake:        make(chan struct{}),
		journal:     j,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		cancel(errShutdown)
		if j != nil {
			_ = j.Close()
		}
		return nil, nil
	}
	s.noteID(id)
	s.queries[id] = q
	s.order = append(s.order, id)
	s.wg.Add(1)
	return ctx, q
}

// armDeadline starts the per-query wall-clock watchdog: when the
// service clock has slept DeadlineHours, the query alone is failed
// with ErrDeadlineExceeded (its journal seals "interrupted", so it
// resumes — with a fresh deadline window — on the next boot).
func (s *Service) armDeadline(ctx context.Context, q *Query, hours float64) {
	if hours <= 0 {
		return
	}
	d := time.Duration(hours * float64(time.Hour))
	go func() {
		fired := make(chan struct{})
		go func() {
			s.clock.Sleep(d)
			close(fired)
		}()
		select {
		case <-fired:
			q.cancelCause(fmt.Errorf("%w after %.2fh", ErrDeadlineExceeded, d.Hours()))
		case <-ctx.Done():
		}
	}()
}

// sealJournal writes the query's terminal seal and releases the
// journal file: wal.SealReason's rule (complete, or "interrupted: …"
// and resumable after a failure, deadline, or shutdown), except that
// an explicit user cancel seals "cancelled", which Recover does not
// resume.
func (q *Query) sealJournal(cause error) {
	if q.journal == nil {
		return
	}
	reason := wal.SealReason(cause)
	if errors.Is(cause, errUserCancelled) {
		reason = sealCancelled
	}
	_ = q.journal.Seal(reason)
	_ = q.journal.Close()
}
