package core

import "slices"

// slotLLMs returns the writer's prototypes as LLM values indexed by slot id,
// nil for a tombstoned slot — the view of the training state the tests below
// the public API compare against. The caller holds m.mu or owns m.
func slotLLMs(m *Model) []*LLM {
	out := make([]*LLM, m.store.rows)
	for k := range out {
		if !m.store.isTombstone(k) {
			out[k] = m.store.at(k).llm()
		}
	}
	return out
}

// insertProto appends a prototype at q, with coefficient row coef =
// [y, b_X, b_Θ] and wins absorbed pairs, to a fixture under construction.
func insertProto(m *Model, q Query, coef []float64, wins int) {
	m.store.insert(slotState{row: append(slices.Clone(q.Center), q.Theta), coef: coef, wins: wins})
}
