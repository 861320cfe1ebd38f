// Command animalsort runs the paper's sort study (§4.2) on the animals
// dataset: Compare vs Rate vs Hybrid on queries of increasing ambiguity
// (adult size, dangerousness, "belongs on Saturn"), reporting τ, the
// modified κ agreement signal, and HIT costs.
package main

import (
	"fmt"
	"log"

	"qurk"
)

func main() {
	animals := qurk.NewAnimals()
	queries := []struct {
		label string
		task  *qurk.RankTask
	}{
		{"adult size (Q2)", qurk.AnimalSizeTask()},
		{"dangerousness (Q3)", qurk.DangerousTask()},
		{"belongs on Saturn (Q4)", qurk.SaturnTask()},
	}

	for qi, q := range queries {
		fmt.Printf("=== Sort %d animals by %s ===\n", animals.Rel.Len(), q.label)

		// Comparison-based sort: quadratic HITs, best accuracy.
		m1 := qurk.NewSimMarket(qurk.DefaultMarketConfig(int64(20+qi)), animals.Oracle())
		cmp, err := qurk.Compare(animals.Rel, q.task,
			qurk.CompareOptions{GroupSize: 5, Assignments: 5}, m1)
		if err != nil {
			log.Fatal(err)
		}
		kappa, err := cmp.ModifiedKappa()
		if err != nil {
			log.Fatal(err)
		}

		// Rating-based sort: linear HITs.
		m2 := qurk.NewSimMarket(qurk.DefaultMarketConfig(int64(30+qi)), animals.Oracle())
		rate, err := qurk.Rate(animals.Rel, q.task,
			qurk.RateOptions{BatchSize: 5, Assignments: 5, Seed: 1}, m2)
		if err != nil {
			log.Fatal(err)
		}
		tauRateVsCompare, err := qurk.TauBetweenOrders(cmp.Order, rate.Order)
		if err != nil {
			log.Fatal(err)
		}

		// Hybrid: rating seed plus 20 comparison windows.
		m3 := qurk.NewSimMarket(qurk.DefaultMarketConfig(int64(40+qi)), animals.Oracle())
		hy, err := qurk.Hybrid(animals.Rel, q.task, qurk.HybridOptions{
			Strategy: qurk.SlidingWindow, WindowSize: 5, Step: 6,
			Iterations: 20, Assignments: 5, Seed: 1,
			Rate: qurk.RateOptions{BatchSize: 5, Assignments: 5, Seed: 1},
		}, m3)
		if err != nil {
			log.Fatal(err)
		}
		tauHybridVsCompare, err := qurk.TauBetweenOrders(cmp.Order, hy.Order)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("  Compare: %3d HITs, agreement kappa %.2f, cycles %d\n",
			cmp.HITCount, kappa, cmp.CycleCount)
		fmt.Printf("  Rate:    %3d HITs, tau vs Compare %.2f\n", rate.HITCount, tauRateVsCompare)
		fmt.Printf("  Hybrid:  %3d HITs, tau vs Compare %.2f\n", hy.TotalHITs(), tauHybridVsCompare)
		if kappa < 0.2 {
			fmt.Println("  -> kappa is very low: this query may be too ambiguous to sort (paper Sec 4.2.3)")
		} else if tauRateVsCompare > 0.7 {
			fmt.Println("  -> Rate tracks Compare well: use the cheap linear interface")
		} else {
			fmt.Println("  -> Rate diverges from Compare: pay for comparisons or the hybrid")
		}

		fmt.Println("  Crowd order (least -> most):")
		fmt.Print("   ")
		for _, idx := range cmp.Order {
			fmt.Printf(" %s,", animals.Rel.Row(idx).MustGet("name").Text())
		}
		fmt.Println()
		fmt.Println()
	}

	// Bonus: MAX via the tournament interface (paper §2.3).
	m := qurk.NewSimMarket(qurk.DefaultMarketConfig(99), animals.Oracle())
	maxRes, err := qurk.Max(animals.Rel, qurk.AnimalSizeTask(),
		qurk.MaxOptions{BatchSize: 5, Assignments: 5}, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MAX(adult size) via %d tournament HITs: %s\n",
		maxRes.HITCount, animals.Rel.Row(maxRes.Index).MustGet("name").Text())
}
