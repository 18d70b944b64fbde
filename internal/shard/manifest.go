package shard

import (
	"encoding/json"
	"fmt"
	"os"

	"llmq/internal/index"
)

// ManifestName is the file the removed in-process sharded mode kept its
// layout in, next to its shard-N subdirectories. `llmq serve` refuses a
// data directory that holds one.
const ManifestName = "shards.json"

// Manifest pins a sharded deployment's layout: the partition that decides
// which shard owns which region, and the shard count. A router given the
// file (`llmq serve -route … -partition shards.json`) routes by exactly
// this partition — the shards' prototypes were placed by it, so routing by
// any other partition would silently miss them.
type Manifest struct {
	Dim    int              `json:"dim"`
	Shards int              `json:"shards"`
	Part   *index.Partition `json:"partition"`
}

// ReadManifest loads and validates a manifest.
func ReadManifest(path string) (Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return Manifest{}, fmt.Errorf("shard: manifest %s: %w", path, err)
	}
	if m.Part == nil {
		return Manifest{}, fmt.Errorf("shard: manifest %s has no partition", path)
	}
	if m.Part.Leaves() != m.Shards || m.Part.Dim() != m.Dim {
		return Manifest{}, fmt.Errorf("shard: manifest %s is inconsistent (dim %d vs partition %d, shards %d vs leaves %d)",
			path, m.Dim, m.Part.Dim(), m.Shards, m.Part.Leaves())
	}
	return m, nil
}
