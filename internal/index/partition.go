package index

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
)

// Partition is a static decomposition of R^dim into a small number of
// axis-aligned half-open box regions ("leaves"), built once from a sample of
// points and then shared read-only. It is the sharding layer's space
// partitioner: every point belongs to exactly one leaf (Locate), and a ball
// query can be routed to exactly the leaves whose region it can reach
// (Touching). The decomposition is the same family of spatial splits the
// read epochs use — recursive k-d cuts, count-balanced on the sample, with
// the cut coordinates snapped to the grid-cell lattice in the narrow spaces
// (dim ≤ 3) the epoch grid serves — so shard boundaries line up with the
// index machinery's own geometry.
//
// Leaves are numbered 0..Leaves()-1 once, when the partition is built, and
// the numbering never changes: a sharded tier's layout is fixed at boot. A
// Partition is immutable. The zero value is not valid — build one with
// NewPartition or decode one from JSON.
type Partition struct {
	dim    int
	nodes  []partNode // nodes[0] is the root; internal nodes reference children by index
	leaves int
}

// partNode is one node of the cut tree. An internal node splits on
// axis/cut: points with x[axis] < cut descend left, the rest right. A leaf
// node has axis == -1 and carries its leaf id in left.
type partNode struct {
	axis        int // split axis, or -1 for a leaf
	cut         float64
	left, right int // child node indexes; for a leaf, left is the leaf id
}

// gridSnapMaxDim is the input dimensionality up to which NewPartition snaps
// its cuts to the cell lattice — the same width band the store's read epochs
// serve with the uniform grid (storeGridMaxWidth bounds the query-space
// width d+1 at 4, i.e. d ≤ 3).
const gridSnapMaxDim = 3

// NewPartition builds a partition of R^dim into n leaves from a sample of
// points (row-major, len(points) = count×dim): the space is cut recursively
// on the axis of maximum spread, at the sample quantile that balances the
// leaf counts, until exactly n leaves exist. Any n ≥ 1 is supported, not
// just powers of two — an uneven split targets ⌈n/2⌉ leaves on one side and
// the matching share of the sample with them. For dim ≤ 3 and cell > 0 each
// cut is snapped to the nearest multiple of cell (the grid lattice the read
// epoch uses, cell side 2ρ) unless snapping would push every sample point
// to one side. The sample needs at least n points so every leaf is born
// non-empty.
func NewPartition(dim, n int, points []float64, cell float64) (*Partition, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("index: partition dim must be positive, got %d", dim)
	}
	if n <= 0 {
		return nil, fmt.Errorf("index: partition needs at least one leaf, got %d", n)
	}
	if len(points)%dim != 0 {
		return nil, fmt.Errorf("index: %d point values do not tile dim %d", len(points), dim)
	}
	count := len(points) / dim
	if n > 1 && count < n {
		return nil, fmt.Errorf("index: %d sample points cannot seed %d leaves", count, n)
	}
	for _, v := range points {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("index: partition sample contains non-finite values")
		}
	}
	if dim > gridSnapMaxDim {
		cell = 0
	}
	p := &Partition{dim: dim}
	pts := append([]float64(nil), points...) // reordered in place by the build
	p.build(n, pts, cell)
	return p, nil
}

// build appends the subtree partitioning pts into n leaves and returns its
// root node index.
func (p *Partition) build(n int, pts []float64, cell float64) int {
	node := len(p.nodes)
	p.nodes = append(p.nodes, partNode{})
	if n == 1 {
		p.nodes[node] = partNode{axis: -1, left: p.leaves}
		p.leaves++
		return node
	}
	nl := (n + 1) / 2
	axis, cut, split := p.chooseCut(pts, nl, n, cell)
	// Reorder pts so rows [0, split) are the left side. chooseCut picked cut
	// and split consistently (split rows strictly below cut).
	p.partitionRows(pts, axis, cut)
	left := p.build(nl, pts[:split*p.dim], cell)
	right := p.build(n-nl, pts[split*p.dim:], cell)
	p.nodes[node] = partNode{axis: axis, cut: cut, left: left, right: right}
	return node
}

// chooseCut picks the split for a node that must divide pts between nl of n
// target leaves: the axis of maximum sample spread and the count-balancing
// quantile on it, snapped to the cell lattice when that keeps both sides
// non-empty. It returns the axis, the cut and the number of sample rows
// strictly below the cut. If every axis is degenerate (all points equal) the
// cut falls at the common coordinate, leaving one side empty — the region
// algebra stays correct, the empty leaf just starts with no sample mass.
func (p *Partition) chooseCut(pts []float64, nl, n int, cell float64) (axis int, cut float64, split int) {
	count := len(pts) / p.dim
	if count == 0 {
		// A fully degenerate ancestor (all-duplicate sample) starved this
		// side; cut anywhere — the leaves exist, they just start empty.
		return 0, 0, 0
	}
	axis = p.spreadAxis(pts)
	vals := make([]float64, count)
	for i := 0; i < count; i++ {
		vals[i] = pts[i*p.dim+axis]
	}
	slices.Sort(vals)
	target := count * nl / n
	if target < 1 {
		target = 1
	}
	if target > count-1 {
		target = count - 1
	}
	cut = vals[target]
	if cut == vals[0] {
		// The quantile landed on the minimum (heavy duplicates): move up to
		// the first strictly larger value so the left side is non-empty.
		for _, v := range vals {
			if v > cut {
				cut = v
				break
			}
		}
	}
	if cell > 0 {
		if snapped := math.Round(cut/cell) * cell; snapped > vals[0] && snapped <= vals[count-1] {
			cut = snapped
		}
	}
	split, _ = slices.BinarySearch(vals, cut)
	return axis, cut, split
}

// spreadAxis returns the axis with the widest sample value range.
func (p *Partition) spreadAxis(pts []float64) int {
	best, bestSpread := 0, -1.0
	for a := 0; a < p.dim; a++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := a; i < len(pts); i += p.dim {
			if pts[i] < lo {
				lo = pts[i]
			}
			if pts[i] > hi {
				hi = pts[i]
			}
		}
		if s := hi - lo; s > bestSpread {
			best, bestSpread = a, s
		}
	}
	return best
}

// partitionRows reorders pts in place so every row with row[axis] < cut
// precedes every row with row[axis] >= cut.
func (p *Partition) partitionRows(pts []float64, axis int, cut float64) {
	d := p.dim
	i, j := 0, len(pts)/d-1
	for i <= j {
		for i <= j && pts[i*d+axis] < cut {
			i++
		}
		for i <= j && pts[j*d+axis] >= cut {
			j--
		}
		if i < j {
			ri, rj := pts[i*d:(i+1)*d], pts[j*d:(j+1)*d]
			for k := 0; k < d; k++ {
				ri[k], rj[k] = rj[k], ri[k]
			}
			i++
			j--
		}
	}
}

// Dim returns the input dimensionality the partition covers.
func (p *Partition) Dim() int { return p.dim }

// Leaves returns the number of leaf regions.
func (p *Partition) Leaves() int { return p.leaves }

// Locate returns the leaf id whose region contains x. Regions are half-open
// (left side is x[axis] < cut), so every point maps to exactly one leaf.
func (p *Partition) Locate(x []float64) int {
	n := 0
	for p.nodes[n].axis >= 0 {
		nd := p.nodes[n]
		if x[nd.axis] < nd.cut {
			n = nd.left
		} else {
			n = nd.right
		}
	}
	return p.nodes[n].left
}

// Touching appends to out the ids of every leaf whose region lies within
// L2 distance theta + extra[leaf] of center, and returns the extended
// slice. extra, when non-nil, widens the reach per leaf (the sharding layer
// passes each shard's max prototype radius θ_k, making the test exactly the
// overlap routing bound ‖x − x_k‖ ≤ θ + θ_k: a prototype of leaf L can
// overlap the query only if the leaf's region — which contains the
// prototype's centre — is within θ + θ_max(L) of the query centre). A nil
// extra reaches theta everywhere. The traversal prunes with the exact
// squared box distance, so a query deep inside one region returns exactly
// that leaf.
func (p *Partition) Touching(center []float64, theta float64, extra []float64, out []int) []int {
	maxExtra := 0.0
	if extra != nil {
		for _, e := range extra {
			if e > maxExtra {
				maxExtra = e
			}
		}
	}
	var deltas [16]float64
	var dbuf []float64
	if p.dim <= len(deltas) {
		dbuf = deltas[:p.dim]
	} else {
		dbuf = make([]float64, p.dim)
	}
	prune := theta + maxExtra
	return p.touch(0, center, theta, extra, prune*prune, 0, dbuf, out)
}

// touch is Touching's recursion: sq is the exact squared L2 distance from
// center to the current subtree's box, maintained incrementally through the
// per-axis deficits in deltas (restored on unwind).
func (p *Partition) touch(node int, center []float64, theta float64, extra []float64, pruneSq, sq float64, deltas []float64, out []int) []int {
	nd := p.nodes[node]
	if nd.axis < 0 {
		leaf := nd.left
		r := theta
		if extra != nil {
			r += extra[leaf]
		}
		if sq <= r*r {
			out = append(out, leaf)
		}
		return out
	}
	c := center[nd.axis]
	old := deltas[nd.axis]
	// Left child: the box gains the bound x[axis] < cut. The deficit on this
	// axis grows only when the centre sits at or beyond the cut.
	if d := c - nd.cut; d > old {
		if nsq := sq - old*old + d*d; nsq <= pruneSq {
			deltas[nd.axis] = d
			out = p.touch(nd.left, center, theta, extra, pruneSq, nsq, deltas, out)
			deltas[nd.axis] = old
		}
	} else {
		out = p.touch(nd.left, center, theta, extra, pruneSq, sq, deltas, out)
	}
	// Right child: the box gains x[axis] >= cut.
	if d := nd.cut - c; d > old {
		if nsq := sq - old*old + d*d; nsq <= pruneSq {
			deltas[nd.axis] = d
			out = p.touch(nd.right, center, theta, extra, pruneSq, nsq, deltas, out)
			deltas[nd.axis] = old
		}
	} else {
		out = p.touch(nd.right, center, theta, extra, pruneSq, sq, deltas, out)
	}
	return out
}

// Region returns the leaf's axis-aligned box as lower and upper bounds
// (half-open: lo ≤ x < hi componentwise), with ±Inf on unbounded sides.
func (p *Partition) Region(leaf int) (lo, hi []float64, err error) {
	if leaf < 0 || leaf >= p.leaves {
		return nil, nil, fmt.Errorf("index: leaf %d out of range [0, %d)", leaf, p.leaves)
	}
	lo = make([]float64, p.dim)
	hi = make([]float64, p.dim)
	for a := 0; a < p.dim; a++ {
		lo[a], hi[a] = math.Inf(-1), math.Inf(1)
	}
	n := 0
	for p.nodes[n].axis >= 0 {
		nd := p.nodes[n]
		if p.leafUnder(nd.left, leaf) {
			if nd.cut < hi[nd.axis] {
				hi[nd.axis] = nd.cut
			}
			n = nd.left
		} else {
			if nd.cut > lo[nd.axis] {
				lo[nd.axis] = nd.cut
			}
			n = nd.right
		}
	}
	return lo, hi, nil
}

// leafUnder reports whether leaf id `leaf` lives in the subtree at node.
func (p *Partition) leafUnder(node, leaf int) bool {
	nd := p.nodes[node]
	if nd.axis < 0 {
		return nd.left == leaf
	}
	return p.leafUnder(nd.left, leaf) || p.leafUnder(nd.right, leaf)
}

// partitionJSON is the wire form of a Partition: the node array with
// explicit leaf ids, so a router and its shards can agree on one partition
// across processes.
type partitionJSON struct {
	Dim    int           `json:"dim"`
	Leaves int           `json:"leaves"`
	Nodes  []partNodeDoc `json:"nodes"`
}

type partNodeDoc struct {
	Axis  int     `json:"axis"`
	Cut   float64 `json:"cut,omitempty"`
	Left  int     `json:"left,omitempty"`
	Right int     `json:"right,omitempty"`
	Leaf  *int    `json:"leaf,omitempty"`
}

// MarshalJSON encodes the partition's cut tree.
func (p *Partition) MarshalJSON() ([]byte, error) {
	doc := partitionJSON{Dim: p.dim, Leaves: p.leaves, Nodes: make([]partNodeDoc, len(p.nodes))}
	for i, nd := range p.nodes {
		if nd.axis < 0 {
			leaf := nd.left
			doc.Nodes[i] = partNodeDoc{Axis: -1, Leaf: &leaf}
		} else {
			doc.Nodes[i] = partNodeDoc{Axis: nd.axis, Cut: nd.cut, Left: nd.left, Right: nd.right}
		}
	}
	return json.Marshal(doc)
}

// UnmarshalJSON decodes and validates a partition: the node array must form
// a single well-formed binary tree rooted at node 0 whose leaf ids are a
// permutation of 0..leaves-1.
func (p *Partition) UnmarshalJSON(data []byte) error {
	var doc partitionJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if doc.Dim <= 0 || doc.Leaves <= 0 || len(doc.Nodes) == 0 {
		return fmt.Errorf("index: invalid partition document (dim %d, %d leaves, %d nodes)", doc.Dim, doc.Leaves, len(doc.Nodes))
	}
	nodes := make([]partNode, len(doc.Nodes))
	for i, nd := range doc.Nodes {
		if nd.Axis < 0 {
			if nd.Leaf == nil {
				return fmt.Errorf("index: partition node %d is a leaf without a leaf id", i)
			}
			nodes[i] = partNode{axis: -1, left: *nd.Leaf}
			continue
		}
		if nd.Axis >= doc.Dim {
			return fmt.Errorf("index: partition node %d splits axis %d of dim %d", i, nd.Axis, doc.Dim)
		}
		if math.IsNaN(nd.Cut) || math.IsInf(nd.Cut, 0) {
			return fmt.Errorf("index: partition node %d has a non-finite cut", i)
		}
		if nd.Left <= 0 || nd.Left >= len(doc.Nodes) || nd.Right <= 0 || nd.Right >= len(doc.Nodes) {
			return fmt.Errorf("index: partition node %d has out-of-range children", i)
		}
		nodes[i] = partNode{axis: nd.Axis, cut: nd.Cut, left: nd.Left, right: nd.Right}
	}
	// Walk from the root: every node must be visited exactly once and the
	// leaf ids must cover 0..leaves-1 exactly.
	seen := make([]bool, len(nodes))
	leafSeen := make([]bool, doc.Leaves)
	var walk func(int) error
	walk = func(n int) error {
		if seen[n] {
			return fmt.Errorf("index: partition node %d is referenced twice", n)
		}
		seen[n] = true
		nd := nodes[n]
		if nd.axis < 0 {
			if nd.left < 0 || nd.left >= doc.Leaves || leafSeen[nd.left] {
				return fmt.Errorf("index: partition leaf id %d invalid or duplicated", nd.left)
			}
			leafSeen[nd.left] = true
			return nil
		}
		if err := walk(nd.left); err != nil {
			return err
		}
		return walk(nd.right)
	}
	if err := walk(0); err != nil {
		return err
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("index: partition node %d is unreachable", i)
		}
	}
	for id, ok := range leafSeen {
		if !ok {
			return fmt.Errorf("index: partition leaf id %d is missing", id)
		}
	}
	p.dim, p.leaves, p.nodes = doc.Dim, doc.Leaves, nodes
	return nil
}
