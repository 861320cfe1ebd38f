// Command endtoend runs the paper's §5 query — join movie stills with
// actor headshots, keep one-person scenes, and order each actor's scenes
// by how flattering they are — twice: once with deliberately naive
// interface choices, and once letting the cost-based optimizer pick the
// physical plan (the paper's 14.5× HIT reduction came from exactly
// these choices: POSSIBLY pre-filter, smart batching, rating sort).
package main

import (
	"context"
	"fmt"
	"log"

	"qurk"
)

const queryText = `
SELECT name, scenes.img
FROM actors JOIN scenes
ON inScene(actors.img, scenes.img)
AND POSSIBLY numInScene(scenes.img) = 1
ORDER BY name, quality(scenes.img)`

func main() {
	movie := qurk.NewMovie(qurk.MovieConfig{Scenes: 211, Actors: 5, Seed: 5})

	fmt.Println("Query:")
	fmt.Println(queryText)
	fmt.Println()

	// Unoptimized baseline: simple join (1 pair/HIT), comparison sort,
	// and no POSSIBLY pre-filter (strip it from the query). This is the
	// one case where picking interfaces by hand still makes sense — to
	// show what the optimizer saves.
	naiveQuery := `
SELECT name, scenes.img
FROM actors JOIN scenes
ON inScene(actors.img, scenes.img)
ORDER BY name, quality(scenes.img)`
	naiveHITs := runNaive(movie, naiveQuery)

	// Optimizer-first flow: build a client with DEFAULT options, let
	// Client.Optimize choose join/sort interfaces and batch shapes from
	// catalog cardinalities, and execute the annotated plan.
	optHITs := runOptimized(movie)

	fmt.Printf("HIT reduction: %d -> %d (%.1fx; paper reports 14.5x)\n",
		naiveHITs, optHITs, float64(naiveHITs)/float64(optHITs))
}

// newClient wires the movie dataset over a fresh simulated crowd.
func newClient(movie *qurk.Movie, opts qurk.Options) *qurk.Client {
	market := qurk.NewSimMarket(qurk.DefaultMarketConfig(5), movie.Oracle())
	client := qurk.NewClient(market, qurk.WithOptions(opts))
	eng := client.Engine()
	eng.Catalog.Register(movie.Actors)
	eng.Catalog.Register(movie.Scenes)
	eng.Library.MustRegister(qurk.InSceneTask())
	eng.Library.MustRegister(qurk.NumInSceneTask())
	eng.Library.MustRegister(qurk.QualityTask())
	return client
}

func runNaive(movie *qurk.Movie, src string) int {
	client := newClient(movie, qurk.Options{
		JoinAlgorithm: qurk.SimpleJoin,
		SortMethod:    qurk.SortCompare,
	})
	fmt.Println("--- UNOPTIMIZED (hand-picked: Simple join, Compare sort, no filter)")
	out, stats, err := client.Run(context.Background(), src)
	if err != nil {
		log.Fatal(err)
	}
	report(movie, client, out, stats)
	return stats.TotalHITs()
}

func runOptimized(movie *qurk.Movie) int {
	client := newClient(movie, qurk.Options{})
	// Optimize renders the costed plan — interface per operator,
	// estimated HITs and dollars — and returns the annotated tree that
	// RunPlan executes as-is.
	cp, err := client.Optimize(queryText, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- OPTIMIZED (cost-based operator selection)")
	fmt.Println(cp.Render())
	out, stats, err := qurk.RunPlan(context.Background(), client.Engine(), cp.Root, nil)
	if err != nil {
		log.Fatal(err)
	}
	report(movie, client, out, stats)
	return stats.TotalHITs()
}

func report(movie *qurk.Movie, client *qurk.Client, out *qurk.Relation, stats *qurk.ExecStats) {
	// Score result rows against ground truth.
	correct := 0
	for i := 0; i < out.Len(); i++ {
		name := out.Row(i).MustGet("name").Text()
		img := out.Row(i).MustGet("img").Text()
		for a := 0; a < movie.Actors.Len(); a++ {
			if movie.Actors.Row(a).MustGet("name").Text() != name {
				continue
			}
			for s := 0; s < movie.Scenes.Len(); s++ {
				if movie.Scenes.Row(s).MustGet("img").Text() == img &&
					movie.InScene(movie.Actors.Row(a), movie.Scenes.Row(s)) {
					correct++
				}
			}
		}
	}
	fmt.Printf("result: %d rows (%d true inScene matches), %d HITs, cost $%.2f\n",
		out.Len(), correct, stats.TotalHITs(),
		qurk.DollarCost(stats.TotalHITs(), client.Engine().Options.Assignments))
	// The streaming executor overlaps crowd phases (filter HIT chunks
	// feed the join while later chunks are still out), so the pipelined
	// end-to-end makespan beats the serial no-overlap estimate.
	fmt.Printf("makespan: %.2fh pipelined vs %.2fh serial estimate\n\n",
		stats.PipelineMakespanHours, stats.SerialMakespanHours())
}
