package qurk

// WAL overhead benchmark: the same filter query run plain vs durable.
// The journal fsyncs every record, so the interesting metric is the
// durability tax per posted HIT, reported as overhead_pct against the
// plain run.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkWALOverhead measures a durable run (intent + result record
// per HIT group, fsync on each commit) against the same query without
// a journal.
func BenchmarkWALOverhead(b *testing.B) {
	d := NewCelebrities(CelebrityConfig{N: 60, Seed: 7})
	build := func(journal string) *Client {
		return journaledClient(NewSimMarket(DefaultMarketConfig(7), d.Oracle()), journal, Options{}, []*Relation{d.Celeb}, IsFemaleTask())
	}
	const query = `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`
	dir := b.TempDir()

	var plainNs, durableNs int64
	ctx := context.Background()
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := build("").Run(ctx, query); err != nil {
				b.Fatal(err)
			}
		}
		plainNs = b.Elapsed().Nanoseconds() / int64(b.N)
	})
	b.Run("durable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			path := filepath.Join(dir, fmt.Sprintf("b%d-%d.qjl", b.N, i))
			if _, _, err := build(path).Run(ctx, query); err != nil {
				b.Fatal(err)
			}
		}
		durableNs = b.Elapsed().Nanoseconds() / int64(b.N)
		if plainNs > 0 {
			b.ReportMetric(100*float64(durableNs-plainNs)/float64(plainNs), "overhead_pct")
		}
	})
}
