// Cross-query answer-store glue. When the engine carries an answer
// store (core.Engine.Answers — typically internal/answerstore shared by
// every query in a qurkd process), each crowd operator consults it as a
// question is minted: a servable entry resolves the question from
// stored votes and the question is never posted, which is the
// service-layer dedup that makes repeated questions across queries and
// tenants free. Freshly collected questions feed the store after their
// votes fold.
//
// Determinism: each operator gates lookups behind a per-run asked-set
// keyed by question content, so a question's store-hit behavior depends
// only on the store state when its content is FIRST minted — never on
// which chunk happened to be collected in between. For a fixed store
// state a run is bit-identical at any batch/chunk size; concurrent
// queries mutating a shared store are inherently racy across queries,
// and the service treats that as acceptable: whichever query posts
// first pays, the other reuses.
//
// Durable runs journal every store hit as a replayed result
// (ckptAnswerReplay) so a resume verifies the same questions were
// served from the store; resuming against a store whose relevant
// entries changed fails loudly instead of silently mixing vote sets.
package exec

import (
	"qurk/internal/hit"
)

// ckptAnswerReplay journals one answer-store hit in a durable run.
const ckptAnswerReplay = "answer-replay"

// answersLookup consults the engine's shared answer store for a minted
// question. On a hit it bumps the run's reuse counter and, in durable
// runs, journals the replay; the caller resolves the question from the
// returned votes and must not post it.
func (x *executor) answersLookup(q *hit.Question, clock float64) ([]hit.CachedAnswer, bool, error) {
	if x.eng.Answers == nil {
		return nil, false, nil
	}
	as, ok := x.eng.Answers.Lookup(q)
	if !ok {
		return nil, false, nil
	}
	x.stats.addReused(1)
	if err := x.checkpoint(ckptAnswerReplay, q.ID, q.CacheKey(), clock); err != nil {
		return nil, false, err
	}
	return as, true, nil
}

// answersStore feeds one freshly collected question's votes to the
// shared store. Empty vote sets (refused HITs) are dropped — a stored
// empty entry would resolve every later identical question to nothing
// without ever reaching the crowd.
func (x *executor) answersStore(q *hit.Question, as []hit.CachedAnswer) {
	if x.eng.Answers != nil && len(as) > 0 {
		x.eng.Answers.Store(q, as)
	}
}
