package mturk

// Transient-fault injection: the fake endpoint can answer with HTTP
// 500 ServiceFaults and ThrottlingExceptions, which exercises api.go's
// bounded retry (with jitter and the longer throttle cool-off) end to
// end over signed HTTP — faults below the attempt budget are invisible
// to the query, faults beyond it surface as RequestError.

import (
	"errors"
	"testing"
	"time"

	"qurk/internal/core"
)

// runRows drains a query to a row-string fingerprint.
func runRows(t *testing.T, e *core.Engine) (string, int) {
	t.Helper()
	out, stats, err := runQuery(e, mturkQuery)
	if err != nil {
		t.Fatal(err)
	}
	rows := ""
	for i := 0; i < out.Len(); i++ {
		rows += out.Row(i).MustGet("name").String() + "\n"
	}
	return rows, stats.TotalHITs()
}

// TestFaultsBelowRetryBudgetAreInvisible: 500s on the first CreateHIT
// calls are retried away — same rows, same HIT count as a clean run,
// and the extra requests show up in the endpoint's log.
func TestFaultsBelowRetryBudgetAreInvisible(t *testing.T) {
	clean, f0 := mturkEngine(t, FakeConfig{YesPct: 100}, core.Options{})
	wantRows, wantHITs := runRows(t, clean)
	cleanCreates := f0.RequestCount(opCreateHIT)

	faulty, f := mturkEngine(t, FakeConfig{
		YesPct:    100,
		FailFirst: map[string]int{opCreateHIT: 2},
	}, core.Options{})
	rows, hits := runRows(t, faulty)
	if rows != wantRows || hits != wantHITs {
		t.Errorf("faulted run diverged: rows %q vs %q, hits %d vs %d", rows, wantRows, hits, wantHITs)
	}
	if got := f.RequestCount(opCreateHIT); got != cleanCreates+2 {
		t.Errorf("CreateHIT called %d times, want %d (clean %d + 2 retried faults)",
			got, cleanCreates+2, cleanCreates)
	}
}

// TestFaultsBeyondRetryBudgetSurface: three consecutive 500s exhaust
// the three-attempt budget and the query fails with the RequestError.
func TestFaultsBeyondRetryBudgetSurface(t *testing.T) {
	e, _ := mturkEngine(t, FakeConfig{
		YesPct:    100,
		FailFirst: map[string]int{opCreateHIT: 3},
	}, core.Options{})
	_, _, err := runQuery(e, mturkQuery)
	var re *RequestError
	if !errors.As(err, &re) {
		t.Fatalf("want RequestError past the retry budget, got %v", err)
	}
	if re.Status != 500 || re.Code != "ServiceFault" {
		t.Errorf("surfaced error = %d %s, want 500 ServiceFault", re.Status, re.Code)
	}
}

// TestThrottlingIsRetriedEndToEnd: periodic ThrottlingExceptions are
// absorbed by the retry loop's longer cool-off; the query's outcome is
// identical to a clean run.
func TestThrottlingIsRetriedEndToEnd(t *testing.T) {
	clean, _ := mturkEngine(t, FakeConfig{YesPct: 100}, core.Options{})
	wantRows, wantHITs := runRows(t, clean)

	throttled, f := mturkEngine(t, FakeConfig{
		YesPct:         100,
		ThrottleEveryN: 7,
	}, core.Options{})
	rows, hits := runRows(t, throttled)
	if rows != wantRows || hits != wantHITs {
		t.Errorf("throttled run diverged: rows %q vs %q, hits %d vs %d", rows, wantRows, hits, wantHITs)
	}
	if f.RequestCount(opCreateHIT) < 4 {
		t.Error("throttled run posted fewer HITs than the query needs")
	}
}

// TestBackoffJitterBounds: the retry sleep is drawn from [base/2, base)
// and the throttle cool-off is 4× the server-fault base.
func TestBackoffJitterBounds(t *testing.T) {
	c, err := New(Config{Endpoint: "http://invalid.example", AccessKey: "K", SecretKey: "S"})
	if err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 3; try++ {
		base := time.Duration(try+1) * 500 * time.Millisecond
		for i := 0; i < 200; i++ {
			d := c.backoff(try, false)
			if d < base/2 || d >= base {
				t.Fatalf("backoff(%d, fault) = %v, want [%v, %v)", try, d, base/2, base)
			}
		}
		cool := time.Duration(try+1) * 2 * time.Second
		for i := 0; i < 200; i++ {
			d := c.backoff(try, true)
			if d < cool/2 || d >= cool {
				t.Fatalf("backoff(%d, throttled) = %v, want [%v, %v)", try, d, cool/2, cool)
			}
		}
	}
}
