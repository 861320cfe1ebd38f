package service

import (
	"runtime"
	"testing"
)

// TestSnapshotCostFlatInLedgerHistory pins that a query's status read
// costs the same whatever the tenant has spent before: Snapshot reads
// the query's own dollars without copying the tenant ledger, so
// neither allocations nor allocated bytes grow between 10 and 10,000
// earlier ledger entries.
func TestSnapshotCostFlatInLedgerHistory(t *testing.T) {
	svc, _ := newTestService(t, 6, nil)
	q, err := svc.Submit(SubmitRequest{Tenant: "alice", Query: isFemaleQuery})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, q); st != StateDone {
		t.Fatalf("query state = %s (%s)", st, q.Snapshot().Error)
	}
	ledger := svc.tenants.Get("alice").Ledger
	want := q.Snapshot().Dollars
	if want <= 0 {
		t.Fatalf("query reports $%v, want > 0", want)
	}

	measure := func(entries int) (allocs, bytes float64) {
		for n := len(ledger.Entries()); n < entries; n++ {
			ledger.Add("q-earlier", 1, 3)
		}
		if got := q.Snapshot().Dollars; got != want {
			t.Fatalf("with %d ledger entries the query reports $%v, want $%v", entries, got, want)
		}
		allocs = testing.AllocsPerRun(100, func() { q.Snapshot() })
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			q.Snapshot()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	allocs10, bytes10 := measure(10)
	allocs10k, bytes10k := measure(10_000)
	if allocs10k > allocs10 {
		t.Errorf("Snapshot allocations grew with ledger history: %v at 10 entries, %v at 10,000", allocs10, allocs10k)
	}
	// A copied ledger is 10,000 entries of 32 bytes each; allow a
	// little slack for allocations by the service's idle goroutines.
	if bytes10k > bytes10+256 {
		t.Errorf("Snapshot bytes grew with ledger history: %.0f B at 10 entries, %.0f B at 10,000", bytes10, bytes10k)
	}
}
