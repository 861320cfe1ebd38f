package main

import (
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/relation"
)

// Result quality is scored against the datasets' ground truth, never
// against the crowd's answers: F1 for the rows of filters and joins,
// Kendall's τ for ORDER BY.

// f1 scores a returned set against the true set.
func f1(tp, returned, truth int) float64 {
	if returned == 0 && truth == 0 {
		return 1
	}
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(returned)
	r := float64(tp) / float64(truth)
	return 2 * p * r / (p + r)
}

// kendallTau is τ-a of the returned order against the true scores:
// +1 when the order ascends with the truth, -1 when it descends.
func kendallTau(scores []float64) float64 {
	n := len(scores)
	if n < 2 {
		return 1
	}
	var c, d int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case scores[i] < scores[j]:
				c++
			case scores[i] > scores[j]:
				d++
			}
		}
	}
	return float64(c-d) / float64(n*(n-1)/2)
}

func text(t relation.Tuple, col string) string {
	v, ok := t.Get(col)
	if !ok {
		return ""
	}
	return v.String()
}

// byColumn indexes a relation's rows by one column's rendered value.
func byColumn(r *relation.Relation, col string) map[string]relation.Tuple {
	m := make(map[string]relation.Tuple, r.Len())
	for i := 0; i < r.Len(); i++ {
		m[text(r.Row(i), col)] = r.Row(i)
	}
	return m
}

// celebJoinQuality is F1 of the returned (name, id) pairs against the
// pairs that show the same woman.
func celebJoinQuality(d *dataset.Celebrities) func([]relation.Tuple) float64 {
	oracle := d.Oracle()
	celebs, photos := byColumn(d.Celeb, "name"), byColumn(d.Photos, "id")
	female := func(t relation.Tuple) bool {
		yes, _ := oracle.FilterTruth("isFemale", t)
		return yes
	}
	truth := 0
	for _, c := range celebs {
		for _, p := range photos {
			if d.IsMatch(c, p) && female(c) {
				truth++
			}
		}
	}
	return func(rows []relation.Tuple) float64 {
		tp := 0
		for _, r := range rows {
			c, okC := celebs[text(r, "name")]
			p, okP := photos[text(r, "id")]
			if okC && okP && d.IsMatch(c, p) && female(c) {
				tp++
			}
		}
		return f1(tp, len(rows), truth)
	}
}

// sortQuality is τ of the returned order against the oracle's latent
// scores for the sort task.
func sortQuality(oracle crowd.Oracle, task, col string, table *relation.Relation) func([]relation.Tuple) float64 {
	items := byColumn(table, col)
	return func(rows []relation.Tuple) float64 {
		scores := make([]float64, 0, len(rows))
		for _, r := range rows {
			if t, ok := items[text(r, col)]; ok {
				s, _ := oracle.Score(task, t)
				scores = append(scores, s)
			}
		}
		return kendallTau(scores)
	}
}

// movieQuality averages F1 of the returned (actor, scene) pairs against
// the true inScene pairs with τ of each actor's scenes against their
// latent quality, averaged over actors with two or more true scenes
// returned.
func movieQuality(m *dataset.Movie) func([]relation.Tuple) float64 {
	actors, scenes := byColumn(m.Actors, "name"), byColumn(m.Scenes, "img")
	truth := 0
	for _, a := range actors {
		for _, s := range scenes {
			if m.InScene(a, s) {
				truth++
			}
		}
	}
	return func(rows []relation.Tuple) float64 {
		tp := 0
		perActor := map[string][]float64{}
		var order []string
		for _, r := range rows {
			name := text(r, "name")
			a, okA := actors[name]
			s, okS := scenes[text(r, "img")]
			if !okA || !okS || !m.InScene(a, s) {
				continue
			}
			tp++
			if _, seen := perActor[name]; !seen {
				order = append(order, name)
			}
			perActor[name] = append(perActor[name], m.QualityScore(s))
		}
		tau, n := 0.0, 0
		for _, name := range order {
			if len(perActor[name]) >= 2 {
				tau += kendallTau(perActor[name])
				n++
			}
		}
		if n == 0 {
			tau, n = 1, 1
		}
		return (f1(tp, len(rows), truth) + tau/float64(n)) / 2
	}
}
