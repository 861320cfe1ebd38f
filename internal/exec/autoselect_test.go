package exec

import (
	"strings"
	"testing"

	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/join"
)

// TestAutoSelectFeaturesDropsHair runs the celebrity join declaratively
// with all three POSSIBLY features and §3.2 auto-selection on: the
// engine should discard hair (ambiguous, error-prone) on its own and
// record the verdict in the stats.
func TestAutoSelectFeaturesDropsHair(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 24, Seed: 31})
	m := crowd.NewSimMarket(crowd.DefaultConfig(31), d.Oracle())
	e := core.NewEngine(m, core.Options{
		JoinAlgorithm:      join.Naive,
		JoinBatch:          5,
		ExtractCombined:    true,
		AutoSelectFeatures: true,
		FeatureSelection:   join.SelectionConfig{SampleFrac: 0.2, Seed: 31},
	})
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(dataset.SamePersonTask())
	e.Library.MustRegister(dataset.GenderTask())
	e.Library.MustRegister(dataset.HairColorTask())
	e.Library.MustRegister(dataset.SkinColorTask())

	out, stats, err := runQuery(e, `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)
AND POSSIBLY hairColor(c.img) = hairColor(p.img)
AND POSSIBLY skinColor(c.img) = skinColor(p.img)`)
	if err != nil {
		t.Fatal(err)
	}
	// Result quality holds.
	if out.Len() < 20 || out.Len() > 28 {
		t.Errorf("join result = %d rows, want ≈24", out.Len())
	}
	// Hair must have been discarded, and the decision surfaced.
	hairDropped := false
	sampleJoin := false
	for _, op := range stats.Operators {
		if strings.Contains(op.Label, `feature "hair" discarded`) {
			hairDropped = true
		}
		if strings.Contains(op.Label, "feature-selection sample join") {
			sampleJoin = true
			if op.HITs == 0 {
				t.Error("sample join posted no HITs")
			}
		}
	}
	if !sampleJoin {
		t.Error("no feature-selection sample join recorded")
	}
	if !hairDropped {
		var labels []string
		for _, op := range stats.Operators {
			labels = append(labels, op.Label)
		}
		t.Errorf("hair not discarded; operators: %v", labels)
	}
}

// TestAutoSelectOffKeepsAllFeatures verifies the default path still
// applies every written POSSIBLY clause.
func TestAutoSelectOffKeepsAllFeatures(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 12, Seed: 37})
	m := crowd.NewSimMarket(crowd.DefaultConfig(37), d.Oracle())
	e := core.NewEngine(m, core.Options{JoinAlgorithm: join.Naive, JoinBatch: 5})
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(dataset.SamePersonTask())
	e.Library.MustRegister(dataset.GenderTask())
	e.Library.MustRegister(dataset.HairColorTask())

	_, stats, err := runQuery(e, `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)
AND POSSIBLY hairColor(c.img) = hairColor(p.img)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range stats.Operators {
		if strings.Contains(op.Label, "discarded") || strings.Contains(op.Label, "sample join") {
			t.Errorf("auto-selection ran while disabled: %s", op.Label)
		}
	}
}
