package mturk

// The acceptance bar for the live backend: the streaming executor runs
// whole queries through the MTurk client against the in-process fake —
// CreateHIT / poll / approve over signed HTTP, no network — and the
// executor's chunk-size invariance holds even when assignments expire
// and are re-posted with lineage-derived HIT IDs.

import (
	"context"
	"strings"
	"testing"
	"time"

	"qurk/internal/core"
	"qurk/internal/dataset"
	"qurk/internal/exec"
	"qurk/internal/plan"
	"qurk/internal/relation"
)

// runQuery parses, plans, and executes one query string.
func runQuery(e *core.Engine, src string) (*relation.Relation, *exec.Stats, error) {
	node, err := plan.BuildQuery(src, e.Library)
	if err != nil {
		return nil, nil, err
	}
	return exec.RunPlanStreamContext(context.Background(), e, node, nil)
}

// mturkEngine builds an engine whose marketplace is the live client
// pointed at a fresh fake server.
func mturkEngine(t *testing.T, fcfg FakeConfig, opts core.Options) (*core.Engine, *FakeServer) {
	t.Helper()
	clock := NewFakeClock(t0)
	fcfg.Clock = clock
	fcfg.SubmitDelay = 2 * time.Second
	f := NewFakeServer(fcfg)
	t.Cleanup(f.Close)
	c, err := New(Config{
		Endpoint:           f.URL(),
		AccessKey:          "FAKEKEY",
		SecretKey:          "FAKESECRET",
		Clock:              clock,
		PollInterval:       time.Second,
		AssignmentDuration: 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(c, opts)
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 20, Seed: 3})
	e.Catalog.Register(d.Celeb)
	e.Library.MustRegister(dataset.IsFemaleTask())
	return e, f
}

const mturkQuery = `SELECT c.name FROM celeb c WHERE isFemale(c.img)`

// TestQueryOverMTurkBackend: a declarative query runs end to end over
// the REST backend; the fake's answer policy decides the rows, every
// submission is approved, and the ledger sees the posted HITs.
func TestQueryOverMTurkBackend(t *testing.T) {
	e, f := mturkEngine(t, FakeConfig{YesPct: 100}, core.Options{})
	out, stats, err := runQuery(e, mturkQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 20 {
		t.Errorf("YesPct=100 must pass all 20 rows, got %d", out.Len())
	}
	if stats.TotalHITs() != 4 {
		t.Errorf("20 tuples at batch 5 = 4 HITs, got %d", stats.TotalHITs())
	}
	if got := f.RequestCount(opCreateHIT); got != 4 {
		t.Errorf("CreateHIT called %d times, want 4", got)
	}
	if f.ApprovedCount() != 4*5 {
		t.Errorf("approved %d assignments, want 20", f.ApprovedCount())
	}
	if stats.PipelineMakespanHours <= 0 {
		t.Error("pipeline makespan not tracked over the live backend")
	}
}

// TestMTurkChunkInvarianceUnderExpiry is the acceptance criterion:
// with assignments expiring and re-posted, result rows and HIT counts
// are bit-identical across StreamChunkHITs/lookahead settings, because
// HIT identity (the UniqueRequestToken lineage) never depends on
// chunking and the fake derives all worker behavior from it.
func TestMTurkChunkInvarianceUnderExpiry(t *testing.T) {
	run := func(chunk, lookahead int) (string, int, int) {
		e, f := mturkEngine(t, FakeConfig{AbandonPct: 40},
			core.Options{StreamChunkHITs: chunk, StreamLookahead: lookahead})
		out, stats, err := runQuery(e, mturkQuery)
		if err != nil {
			t.Fatal(err)
		}
		var rows strings.Builder
		for i := 0; i < out.Len(); i++ {
			rows.WriteString(out.Row(i).MustGet("name").String())
			rows.WriteByte('\n')
		}
		// Every re-post is a fresh CreateHIT with a lineage token.
		retried := 0
		for _, tok := range f.CreatedHITs() {
			if strings.Contains(tok, "/x") {
				retried++
			}
		}
		return rows.String(), stats.TotalHITs(), retried
	}
	baseRows, baseHITs, baseRetried := run(8, 2)
	if baseRetried == 0 {
		t.Fatal("AbandonPct = 40 triggered no expiry re-posts; test exercises nothing")
	}
	if baseRows == "" {
		t.Fatal("query returned nothing under expiry")
	}
	for _, cfg := range [][2]int{{1, 2}, {3, 1}, {16, 4}} {
		rows, hits, retried := run(cfg[0], cfg[1])
		if rows != baseRows {
			t.Errorf("chunk=%d lookahead=%d: rows differ from chunk=8 baseline", cfg[0], cfg[1])
		}
		if hits != baseHITs || retried != baseRetried {
			t.Errorf("chunk=%d lookahead=%d: hits/retried %d/%d vs baseline %d/%d",
				cfg[0], cfg[1], hits, retried, baseHITs, baseRetried)
		}
	}
}

// TestMTurkExpirySurfacesInStats: expired assignments reach
// ExecStats.TotalExpired through the live backend exactly as through
// the simulator.
func TestMTurkExpirySurfacesInStats(t *testing.T) {
	e, _ := mturkEngine(t, FakeConfig{AbandonPct: 40}, core.Options{})
	_, stats, err := runQuery(e, mturkQuery)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalExpired() == 0 {
		t.Error("expired assignments did not surface in Stats")
	}
}
