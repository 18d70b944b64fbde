package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"llmq/internal/core"
	"llmq/internal/dataset"
	"llmq/internal/exec"
	"llmq/internal/index"
	"llmq/internal/serve"
	"llmq/internal/shard"
)

// Sharded serving modes of `llmq serve`:
//
//	-shards N              run N model shards in this process: /train
//	                       partitions pairs across them (N writer locks
//	                       instead of one), queries scatter/gather the
//	                       union answer; with -data-dir each shard gets
//	                       its own WAL directory and shards.json pins the
//	                       partition across restarts
//	-route shard0=URL,...  front remote shard servers: scans scatter over
//	                       HTTP (spread across a shard's |-separated
//	                       follower replicas), training goes to each
//	                       shard's primary
//
// Every plain `llmq serve` instance already speaks the shard protocol, so
// any of them can stand behind a router.

// buildPartition derives the space partition from the relation itself: the
// input vectors are the best available sample of where queries will land.
// Cuts are balanced count quantiles, grid-snapped like the read-epoch grids
// to a cell of a 64th of the mean attribute span (NewPartition snaps only
// for d ≤ 3).
func buildPartition(rel *dataset.Relation, shards int) (*index.Partition, error) {
	return index.NewPartition(rel.Dim(), shards, rel.X, meanSpan(rel.Bounds)/64)
}

// shardLayout returns the partition of a sharded durable directory. An
// existing shards.json wins (and must agree with -shards, when given); a
// fresh directory builds the partition from the dataset and writes the
// manifest before any shard store exists, so a crash between shard
// creations recovers cleanly.
func (c *serveConfig) shardLayout(rel *dataset.Relation) (*index.Partition, error) {
	manifestPath := filepath.Join(c.dataDir, shard.ManifestName)
	if hasShardManifest(c.dataDir) {
		man, err := shard.ReadManifest(manifestPath)
		switch {
		case err != nil:
			return nil, err
		case man.Dim != rel.Dim():
			return nil, fmt.Errorf("sharded directory %s has dim %d, relation has %d", c.dataDir, man.Dim, rel.Dim())
		case c.shards != 0 && c.shards != man.Shards:
			return nil, fmt.Errorf("-shards %d conflicts with the %d shards recorded in %s (re-sharding a durable directory is an offline operation)",
				c.shards, man.Shards, manifestPath)
		}
		return man.Part, nil
	}
	part, err := buildPartition(rel, c.shards)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.dataDir, 0o755); err != nil {
		return nil, err
	}
	return part, shard.WriteManifest(manifestPath, shard.Manifest{Dim: rel.Dim(), Shards: c.shards, Part: part})
}

// parseRouteSpec parses `-route shard0=URL[|followerURL...],shard1=...`:
// one entry per shard, named by position, each a primary base URL plus
// optional |-separated follower URLs scans may be spread across.
func parseRouteSpec(spec string) ([][]string, error) {
	entries := strings.Split(spec, ",")
	urls := make([][]string, len(entries))
	for _, entry := range entries {
		name, rest, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return nil, fmt.Errorf("route entry %q is not shardN=URL", entry)
		}
		idStr, found := strings.CutPrefix(name, "shard")
		if !found {
			return nil, fmt.Errorf("route entry %q must be named shardN", entry)
		}
		id, err := strconv.Atoi(idStr)
		if err != nil || id < 0 || id >= len(urls) {
			return nil, fmt.Errorf("route entry %q names shard %q; have %d entries so ids run 0..%d",
				entry, idStr, len(urls), len(urls)-1)
		}
		if urls[id] != nil {
			return nil, fmt.Errorf("route names shard%d twice", id)
		}
		reps := strings.Split(rest, "|")
		for i, u := range reps {
			reps[i] = strings.TrimRight(strings.TrimSpace(u), "/")
			if reps[i] == "" {
				return nil, fmt.Errorf("route entry %q has an empty URL", entry)
			}
		}
		urls[id] = reps
	}
	return urls, nil
}

// openRouter wires router mode: remote shard backends over HTTP, routed by
// the manifest's partition when -partition is given, or by a partition
// rebuilt from the local relation (sound when this router is the shards'
// sole trainer — the prototypes were then placed by this very partitioning
// of /train traffic). EXACT statements answer from this process's relation
// copy; the relation itself is not sharded.
func (c *serveConfig) openRouter(ctx context.Context, e *exec.Executor, rel *dataset.Relation, opt serve.Option) (*serve.Server, string, error) {
	urls, err := parseRouteSpec(c.route)
	if err != nil {
		return nil, "", fmt.Errorf("-route: %w", err)
	}
	var part *index.Partition
	if c.partition != "" {
		man, err := shard.ReadManifest(c.partition)
		switch {
		case err != nil:
			return nil, "", err
		case man.Shards != len(urls):
			return nil, "", fmt.Errorf("-partition records %d shards, -route names %d", man.Shards, len(urls))
		case man.Dim != rel.Dim():
			return nil, "", fmt.Errorf("-partition has dim %d, relation has %d", man.Dim, rel.Dim())
		}
		part = man.Part
	} else if part, err = buildPartition(rel, len(urls)); err != nil {
		return nil, "", err
	}
	backends := make([]shard.Backend, len(urls))
	followers := 0
	for i, reps := range urls {
		r := shard.NewRemote(reps[0], reps[1:], http.DefaultClient)
		if err := primeRemote(ctx, r, rel.Dim()); err != nil {
			return nil, "", fmt.Errorf("shard %d: %w", i, err)
		}
		backends[i] = r
		followers += len(reps) - 1
	}
	s, err := newShardedServer(e, part, backends, opt)
	return s, fmt.Sprintf("routing %d remote shards (+%d followers)", len(urls), followers), err
}

// primeRemote fetches a remote shard's meta with a short retry loop, so a
// router and its shards can boot concurrently.
func primeRemote(ctx context.Context, r *shard.Remote, dim int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := r.Prime(ctx, dim)
		if err == nil {
			return nil
		}
		if errors.Is(err, core.ErrDimension) || time.Now().After(deadline) || ctx.Err() != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(500 * time.Millisecond):
		}
	}
}
