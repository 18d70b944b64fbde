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

// Sharding is a deployment of several processes: every plain `llmq serve`
// instance (one model, in memory or durable) speaks the shard protocol, and
//
//	-route shard0=URL,...  fronts such servers as one model: scans scatter
//	                       over HTTP (spread across a shard's |-separated
//	                       follower replicas), training goes to each
//	                       shard's primary
//
// A process holds one store. A -data-dir that holds shards.json — the
// layout the removed in-process -shards mode wrote — is refused at boot
// with the migration: each of its shard-N subdirectories is a complete
// durable directory, served by its own `llmq serve -data-dir DIR/shard-N`
// behind `llmq serve -route … -partition DIR/shards.json`.

// buildPartition derives the space partition from the relation itself: the
// input vectors are the best available sample of where queries will land.
// Cuts are balanced count quantiles, grid-snapped like the read-epoch grids
// to a cell of a 64th of the mean attribute span (NewPartition snaps only
// for d ≤ 3).
func buildPartition(rel *dataset.Relation, shards int) (*index.Partition, error) {
	return index.NewPartition(rel.Dim(), shards, rel.X, meanSpan(rel.Bounds)/64)
}

// refuseShardedDir refuses a durable directory laid out by the removed
// in-process -shards mode. Recovering it as one model would silently start
// an empty model in the top directory while the trained state sits in its
// shard-N subdirectories.
func refuseShardedDir(dataDir string) error {
	manifest := filepath.Join(dataDir, shard.ManifestName)
	if _, err := os.Stat(manifest); err != nil {
		return nil
	}
	return fmt.Errorf("%s holds %s, the layout of the removed in-process shards: "+
		"each shard-N subdirectory is a complete durable directory, so serve each one (`llmq serve -data-dir %s`, and so on) "+
		"and front them with `llmq serve -route shard0=URL0,shard1=URL1,... -partition %s`",
		dataDir, shard.ManifestName, filepath.Join(dataDir, "shard-0"), manifest)
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
	sh, err := shard.New(part, backends)
	if err != nil {
		return nil, "", err
	}
	s, err := serve.NewSharded(e, sh, opt)
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
