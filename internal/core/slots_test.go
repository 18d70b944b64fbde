package core

import "slices"

// writerSlots returns a deep copy of the writer's state of every slot,
// indexed by slot id — the view of the training state the tests below the
// public API compare against. It takes the writer lock, so the caller must
// not hold it.
func writerSlots(m *Model) []slotState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]slotState, m.store.k)
	for k := range out {
		out[k] = m.store.at(k).clone()
	}
	return out
}

// proto returns the state's rows as the fusion reads them.
func (e slotState) proto() proto { return proto{e.row, e.coef} }

// center returns x_k, the input-space part of the prototype.
func (e slotState) center() []float64 { return e.row[:len(e.row)-1] }

// theta returns θ_k, the radius part of the prototype.
func (e slotState) theta() float64 { return e.row[len(e.row)-1] }

// insertProto appends a prototype at q, with coefficient row coef =
// [y, b_X, b_Θ] and wins absorbed pairs, to a fixture under construction.
func insertProto(m *Model, q Query, coef []float64, wins int) {
	m.store.insert(slotState{row: append(slices.Clone(q.Center), q.Theta), coef: coef, wins: wins})
}
