package qurk

import (
	"context"
	"strings"
	"testing"
)

// runQuery runs src on a pre-built engine through a Client.
func runQuery(e *Engine, src string) (*Relation, *ExecStats, error) {
	return (&Client{eng: e}).Run(context.Background(), src)
}

// TestFacadeEndToEnd exercises the public API exactly as the package
// doc's quick start does.
func TestFacadeEndToEnd(t *testing.T) {
	d := NewCelebrities(CelebrityConfig{N: 20, Seed: 1})
	market := NewSimMarket(DefaultMarketConfig(1), d.Oracle())
	client := NewClient(market)
	client.Engine().Catalog.Register(d.Celeb)
	client.Engine().Library.MustRegister(IsFemaleTask())

	out, stats, err := client.Run(context.Background(), `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 || out.Len() == 20 {
		t.Errorf("filter should split the table, got %d rows", out.Len())
	}
	if stats.TotalHITs() == 0 {
		t.Error("no HITs posted")
	}
	if DollarCost(stats.TotalHITs(), 5) <= 0 {
		t.Error("cost should be positive")
	}
}

func TestFacadeExplain(t *testing.T) {
	d := NewCelebrities(CelebrityConfig{N: 5, Seed: 2})
	eng := NewEngine(NewSimMarket(DefaultMarketConfig(2), d.Oracle()), Options{})
	eng.Catalog.Register(d.Celeb)
	eng.Catalog.Register(d.Photos)
	eng.Library.MustRegister(SamePersonTask())
	eng.Library.MustRegister(GenderTask())
	plan, err := Explain(eng, `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CrowdJoin", "gender", "Scan"} {
		if !strings.Contains(plan, want) {
			t.Errorf("explain missing %q:\n%s", want, plan)
		}
	}
	if _, err := Explain(eng, "not a query"); err == nil {
		t.Error("explain should surface parse errors")
	}
}

func TestFacadeDirectOperators(t *testing.T) {
	sq := NewSquares(10)
	market := NewSimMarket(DefaultMarketConfig(3), sq.Oracle())
	cr, err := Compare(sq.Rel, SquareSorterTask(), CompareOptions{GroupSize: 5, Assignments: 5}, market)
	if err != nil {
		t.Fatal(err)
	}
	tau, err := TauBetweenOrders(cr.Order, sq.TrueOrder())
	if err != nil {
		t.Fatal(err)
	}
	if tau < 0.95 {
		t.Errorf("compare tau = %.3f", tau)
	}
	rr, err := Rate(sq.Rel, SquareSorterTask(), RateOptions{}, market)
	if err != nil {
		t.Fatal(err)
	}
	if rr.HITCount >= cr.HITCount {
		t.Error("rate should be cheaper than compare")
	}
}

func TestFacadeTaskDSL(t *testing.T) {
	script, err := ParseScript(`
TASK isFemale(field) TYPE Filter:
	Prompt: "<img src='%s'> Is the person a woman?", tuple[field]
	YesText: "Yes"
	NoText: "No"
	Combiner: MajorityVote

SELECT c.name FROM celeb AS c WHERE isFemale(c.img);
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Tasks) != 1 || len(script.Queries) != 1 {
		t.Fatalf("script shape: %d tasks, %d queries", len(script.Tasks), len(script.Queries))
	}
	d := NewCelebrities(CelebrityConfig{N: 10, Seed: 4})
	eng := NewEngine(NewSimMarket(DefaultMarketConfig(4), d.Oracle()), Options{})
	eng.Catalog.Register(d.Celeb)
	if err := eng.Library.LoadScript(script); err != nil {
		t.Fatal(err)
	}
	out, _, err := runQuery(eng, script.Queries[0].String())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("DSL-defined filter returned nothing")
	}
}
