package core

import (
	"fmt"
	"math"

	"llmq/internal/wal"
)

// ReplayApplier feeds WAL records into a model through the live training
// path — TrainBatch for pairs, SetCapacity for capacity records — exactly
// the way crash recovery does, which is what makes the result bit-identical
// to the process that wrote the log. Recovery and replication followers
// share it: both are "re-run this totally ordered record stream" consumers.
// Pairs are buffered and flushed in bounded chunks so an arbitrarily long
// stream replays in constant memory; admin records flush the buffer first,
// preserving the log order. Not safe for concurrent use.
type ReplayApplier struct {
	m     *Model
	pairs []TrainingPair
}

// NewReplayApplier returns an applier targeting m.
func NewReplayApplier(m *Model) *ReplayApplier {
	return &ReplayApplier{m: m, pairs: make([]TrainingPair, 0, replayChunk)}
}

// Apply consumes one record. Pair records may be buffered until the next
// Flush; admin records take effect immediately (after flushing the pairs
// that precede them in the log). Every decode or validation failure is an
// error — a checksummed record that fails to apply means a writer bug, and
// must stop a replay rather than skew the model.
func (a *ReplayApplier) Apply(r wal.Record) error {
	switch r.Kind {
	case wal.KindCapacity:
		if err := a.Flush(); err != nil {
			return err
		}
		// A record that names no policy keeps the current one: logs written
		// before records carried the policy say "keep" that way.
		policy := a.m.Config().Eviction
		if r.Eviction != "" {
			var err error
			if policy, err = decodeEviction(r.Eviction, r.EvictionHalfLife); err != nil {
				return fmt.Errorf("core: replay: capacity record: %w", err)
			}
		}
		return a.m.SetCapacity(r.MaxPrototypes, policy, r.Merge)
	default: // KindPair, and the zero value of pre-kind constructors
		q, err := NewQuery(r.Center, r.Theta)
		if err != nil {
			return fmt.Errorf("core: replay: invalid query: %w", err)
		}
		if math.IsNaN(r.Answer) || math.IsInf(r.Answer, 0) {
			return fmt.Errorf("core: replay: non-finite answer %v", r.Answer)
		}
		a.pairs = append(a.pairs, TrainingPair{Query: q, Answer: r.Answer})
		if len(a.pairs) >= replayChunk {
			return a.Flush()
		}
		return nil
	}
}

// Flush applies the buffered pairs. Call it after the last record; Apply
// calls it internally on chunk boundaries and before admin records.
func (a *ReplayApplier) Flush() error {
	if len(a.pairs) == 0 {
		return nil
	}
	_, err := a.m.TrainBatch(a.pairs)
	a.pairs = a.pairs[:0]
	return err
}
