// Package shard partitions the query space across N independently trained
// models and routes queries and training pairs to the shards that own them,
// while answering exactly what one model holding every shard's prototypes
// would answer — bit for bit.
//
// # Deployment
//
// A sharded deployment is several processes: each shard is a plain
// `llmq serve` holding one model (its backend is a Local), and one
// `llmq serve -route` router fronts them through Remote backends. One
// process never holds more than one store.
//
// # Partitioning
//
// An index.Partition carves the input space into axis-aligned half-open
// boxes, one per shard, built from a sample of the workload (grid-snapped
// cuts for d ≤ 3, raw k-d median cuts above — the same spatial splits the
// read-epoch machinery uses). Every training pair belongs to exactly one
// shard: the one whose region contains the query centre. Prototypes never
// leave their shard's region, because every prototype movement — drift,
// spawn, merge-on-evict — is a convex combination of region points and the
// regions are convex.
//
// # Routing
//
// A query q = [x, θ] can only overlap prototypes of shards whose region box
// lies within θ + maxΘ_shard of x, where maxΘ_shard is the shard's radius
// bound (View.MaxTheta, carried on every scan response). Queries deep
// inside one region are answered point-to-point by that shard alone; only
// boundary-straddling queries scatter.
//
// # Bit-identity
//
// The reference a sharded deployment is held to is the union model: the
// core.Fuse of the shard models in ascending shard order. Each shard ships
// its raw fusion terms — unnormalized overlap degrees and per-prototype
// evaluations, in slot order (core.View.ScatterScan) — and the merger
// re-runs the single-model fusion loop over the shard-major concatenation:
// one running total, one normalization, one accumulation, in the exact
// order the union model's own sweep would have used. Same values, same
// operation order, same floats. When no prototype anywhere overlaps the
// query, the union model extrapolates from its globally closest prototype;
// the router finds it by scanning the remaining shards (their overlap sets
// are provably empty, so they answer with winner terms) and taking the
// first strict minimum in shard order — the same tie-break the union
// model's slot-order winner sweep applies.
//
// Remote shards preserve the contract because Go's encoding/json
// round-trips float64 values exactly (shortest-representation encoding),
// and non-finite values are rejected at training time.
package shard
