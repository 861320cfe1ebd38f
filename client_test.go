package qurk

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"qurk/internal/wal"
)

const clientTestQuery = `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`

// newTestClient wires a client over the celebrity dataset and a fresh
// simulated crowd, with any extra options appended.
func newTestClient(n int, seed int64, extra ...ClientOption) *Client {
	d := NewCelebrities(CelebrityConfig{N: n, Seed: seed})
	market := NewSimMarket(DefaultMarketConfig(seed), d.Oracle())
	opts := []ClientOption{WithOptions(Options{Assignments: 3, FilterBatch: 2})}
	opts = append(opts, extra...)
	c := NewClient(market, opts...)
	c.Engine().Catalog.Register(d.Celeb)
	c.Engine().Library.MustRegister(IsFemaleTask())
	return c
}

// TestClientRunStream checks that the streaming run delivers every
// result row through the sink before returning, and that the final
// relation matches what the sink saw.
func TestClientRunStream(t *testing.T) {
	c := newTestClient(16, 3)
	var streamed int
	out, stats, err := c.RunStream(context.Background(), clientTestQuery,
		func(tuples []Tuple, ready float64) error {
			streamed += len(tuples)
			if ready < 0 || ready > 1 {
				t.Errorf("ready fraction %f out of range", ready)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != out.Len() {
		t.Fatalf("sink saw %d rows, relation has %d", streamed, out.Len())
	}
	if out.Len() == 0 || stats.TotalHITs() == 0 {
		t.Fatalf("stream run produced %d rows / %d HITs", out.Len(), stats.TotalHITs())
	}
}

// TestClientBudget: a client budget is enforced mid-run — the query
// fails with ErrBudgetExceeded once posting would overdraft, and the
// ledger never exceeds the cap.
func TestClientBudget(t *testing.T) {
	c := newTestClient(20, 3, WithBudget(0.02))
	_, _, err := c.Run(context.Background(), clientTestQuery)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Run err = %v, want ErrBudgetExceeded", err)
	}
	if spent := c.SpentDollars(); spent > 0.02 {
		t.Fatalf("spent $%.3f over the $0.02 budget", spent)
	}

	// An unconstrained client runs the same query to completion.
	free := newTestClient(20, 3)
	if _, _, err := free.Run(context.Background(), clientTestQuery); err != nil {
		t.Fatal(err)
	}
}

// TestClientSharedAnswerStore: two independent clients sharing one
// answer store — the second client's identical query posts nothing.
func TestClientSharedAnswerStore(t *testing.T) {
	store, err := OpenAnswerStore("", AnswerStorePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	first := newTestClient(14, 5, WithAnswerStore(store))
	out1, stats1, err := first.Run(context.Background(), clientTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.TotalHITs() == 0 {
		t.Fatal("first client posted no HITs")
	}

	second := newTestClient(14, 5, WithAnswerStore(store))
	out2, stats2, err := second.Run(context.Background(), clientTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.TotalHITs() != 0 {
		t.Fatalf("second client posted %d HITs, want 0 (shared store)", stats2.TotalHITs())
	}
	if stats2.TotalReused() == 0 {
		t.Fatal("second client reused no stored answers")
	}
	if out1.Len() != out2.Len() {
		t.Fatalf("results diverge: %d rows vs %d", out1.Len(), out2.Len())
	}
}

// TestClientRerunReusesOnlyThroughAnswerStore: a Client keeps no
// answers of its own between runs. Without a store, running the same
// filter twice posts the same HITs twice; with an in-memory answer
// store, the second run posts none.
func TestClientRerunReusesOnlyThroughAnswerStore(t *testing.T) {
	run := func(c *Client) (hits, reused, rows int) {
		t.Helper()
		out, stats, err := c.Run(context.Background(), clientTestQuery)
		if err != nil {
			t.Fatal(err)
		}
		return stats.TotalHITs(), stats.TotalReused(), out.Len()
	}

	plain := newTestClient(20, 1)
	hits1, _, rows1 := run(plain)
	if hits1 == 0 {
		t.Fatal("first run posted no HITs")
	}
	hits2, reused2, rows2 := run(plain)
	if hits2 != hits1 || reused2 != 0 || rows2 != rows1 {
		t.Fatalf("second run without a store: %d HITs, %d reused, %d rows; want %d HITs, 0 reused, %d rows",
			hits2, reused2, rows2, hits1, rows1)
	}
	if got, want := plain.Ledger().TotalHITs(), 2*hits1; got != want {
		t.Fatalf("ledger holds %d HITs after two runs, want %d", got, want)
	}

	store, err := OpenAnswerStore("", AnswerStorePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cached := newTestClient(20, 1, WithAnswerStore(store))
	if hits, _, _ := run(cached); hits != hits1 {
		t.Fatalf("first run with a store posted %d HITs, want %d", hits, hits1)
	}
	hits2, reused2, rows2 = run(cached)
	if hits2 != 0 || reused2 == 0 || rows2 != rows1 {
		t.Fatalf("second run with a store: %d HITs, %d reused, %d rows; want 0 HITs, >0 reused, %d rows",
			hits2, reused2, rows2, rows1)
	}
}

// TestClientJournalFingerprintPinned pins the fingerprint a Client
// writes into a fresh journal's meta: the value below was computed by
// the earlier Client-only fingerprint code for the same query, default
// options, and simulated backend, so journals it wrote still resume.
func TestClientJournalFingerprintPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.qjl")
	c := newTestClient(8, 1, WithOptions(Options{}), WithJournal(path))
	if _, _, err := c.Run(context.Background(), clientTestQuery); err != nil {
		t.Fatal(err)
	}
	j, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got, want := j.Meta().Fingerprint, uint64(0x12766f81b5be950b); got != want {
		t.Fatalf("journal fingerprint = %#x, want %#x", got, want)
	}
	if got, want := j.Meta().Backend, "*crowd.SimMarket"; got != want {
		t.Fatalf("journal backend = %q, want %q", got, want)
	}
}
