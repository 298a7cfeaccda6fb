package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/types"
	"repro/internal/workload"
)

// boundedMemory is columnar_scan's chunk-backed pass: the pipeline runs
// with a chunk-cache quota a fraction of the dataset size, and the
// cache's own accounting proves residency never exceeded it.
type boundedMemory struct {
	QuotaBytes        int64 `json:"quota_bytes"`
	SegmentChunkBytes int64 `json:"segment_chunk_bytes"`
	PeakResidentBytes int64 `json:"peak_resident_bytes"`
	Loads             int64 `json:"loads"`
	Evictions         int64 `json:"evictions"`
	QuotaWarnings     int64 `json:"quota_warnings"`
	OutputsIdentical  bool  `json:"outputs_identical"`
}

// columnarComputed installs the computed attributes the pipeline's
// predicates lean on. All three are kernel-compilable, so the columnar
// leg evaluates them per chunk while the row-major leg materializes them
// per row.
func columnarComputed(r *rel.Relation) error {
	if err := r.AddComputed("dist2", expr.MustParse(
		"(longitude + 92.0) * (longitude + 92.0) + (latitude - 31.0) * (latitude - 31.0)")); err != nil {
		return err
	}
	return r.AddComputed("score", expr.MustParse(
		"dist2 * 0.5 + altitude / 100.0"))
}

// columnarDim builds the small build-side relation for the hash join:
// one row per distinct state in the stations data, with a float weight.
// The join key must be a stored column (equiKey does not see computed
// attributes), so the dimension keys on state.
func columnarDim(st *rel.Relation) *rel.Relation {
	stateCol := st.Schema().Index("state")
	seen := make(map[string]bool)
	var states []string
	for i := 0; i < st.Len(); i++ {
		s := st.Tuple(i)[stateCol].Text()
		if !seen[s] {
			seen[s] = true
			states = append(states, s)
		}
	}
	sort.Strings(states)
	d := rel.New("States", rel.MustSchema(
		rel.Column{Name: "st", Kind: types.Text},
		rel.Column{Name: "weight", Kind: types.Float},
	))
	for i, s := range states {
		d.MustAppend([]types.Value{
			types.NewText(s),
			types.NewFloat(float64(i%13) * 0.75),
		})
	}
	return d
}

// setupColumnarScan times the columnar_scan pipeline: a restrict with an
// arithmetic-heavy predicate over computed attributes, feeding a hash
// join against a small dimension table. The baseline leg runs the
// interpreter (rel.PathInterp), the other the chunk kernel, so the
// difference is the kernel's over the oracle it is tested against. The
// check then reruns the kernel leg chunk-backed under a memory quota.
func setupColumnarScan(p params) (*ablation, error) {
	st := workload.Stations(p["rows"], 42)
	if err := columnarComputed(st); err != nil {
		return nil, err
	}
	dim := columnarDim(st)
	// Selective (roughly the Louisiana quarter of the data) and
	// arithmetic-heavy: the scan is the dominant cost, which is exactly
	// what the chunk kernels accelerate; the join runs over the small
	// survivor set in both legs.
	pred := expr.MustParse(
		"dist2 < 20.0 and score > 0.5 and score + dist2 * 0.25 < 9000.0 and " +
			"dist2 * 0.125 - score / 2.0 < 4500.0 and " +
			"(longitude + 92.0) * (latitude - 31.0) + altitude * 0.01 < 4000.0")
	joinPred := expr.MustParse("state = st and score + weight * 10.0 < 8000.0")

	run := func(base *rel.Relation, x rel.Exec) (*rel.Relation, error) {
		res, err := rel.Restrict(base, pred, x)
		if err != nil {
			return nil, err
		}
		return rel.Join(res, dim, joinPred, rel.JoinHash, x)
	}
	op := func(x rel.Exec) func() (any, error) {
		return func() (any, error) { return run(st, x) }
	}
	stamp := func(out any) (string, error) {
		var sb strings.Builder
		relFingerprint(&sb, out.(*rel.Relation))
		return sb.String(), nil
	}
	return &ablation{
		baseline:    leg{mode: "interpreted", op: op(rel.Exec{Path: rel.PathInterp})},
		fast:        leg{mode: "kernels", op: op(rel.Exec{})},
		fingerprint: stamp,
		check: func(r *result, baseFP string) error {
			bm, err := runBoundedMemoryPass(st, baseFP, func(cb *rel.Relation) (string, error) {
				j, err := run(cb, rel.Exec{})
				if err != nil {
					return "", err
				}
				return stamp(j)
			})
			if err != nil {
				return fmt.Errorf("bounded memory: %w", err)
			}
			r.BoundedMemory = bm
			if !bm.OutputsIdentical {
				return fmt.Errorf("bounded memory: chunk-backed output differs from the interpreted leg")
			}
			if bm.PeakResidentBytes > bm.QuotaBytes {
				return fmt.Errorf("bounded memory: resident peak %d exceeded quota %d", bm.PeakResidentBytes, bm.QuotaBytes)
			}
			return nil
		},
	}, nil
}

// runBoundedMemoryPass writes the stations to an append-only in-memory
// segment, reopens it chunk-backed, and runs the pipeline under a
// chunk-cache quota a quarter of the segment (floored so it still clears
// the largest single chunk — the cache must keep the chunk being read
// resident). The cache's own accounting is the evidence: peak resident
// bytes must stay within quota while the scan faults and evicts.
// pipeline runs the kernel leg over a relation and fingerprints it.
func runBoundedMemoryPass(st *rel.Relation, baseFP string,
	pipeline func(*rel.Relation) (string, error)) (*boundedMemory, error) {

	b := rel.NewMemBackend()
	if err := b.WriteSegment("stations", st); err != nil {
		return nil, err
	}
	cs, err := b.OpenSegment("stations", st.Schema())
	if err != nil {
		return nil, err
	}
	var total, maxChunk int64
	for ci := 0; ci < cs.NumChunks(); ci++ {
		c, err := cs.ReadChunk(ci)
		if err != nil {
			return nil, err
		}
		total += c.Bytes()
		if c.Bytes() > maxChunk {
			maxChunk = c.Bytes()
		}
	}
	cb, err := rel.FromChunkSource("Stations", st.Schema(), cs)
	if err != nil {
		return nil, err
	}
	if err := columnarComputed(cb); err != nil {
		return nil, err
	}

	quota := total / 4
	if floor := maxChunk * 3 / 2; quota < floor {
		quota = floor // quick mode: few chunks, but the bound must still clear one
	}
	prev := rel.MemoryQuota()
	rel.DropResidentChunks()
	rel.SetMemoryQuota(quota)
	rel.ResetChunkCacheStats()
	defer func() {
		rel.SetMemoryQuota(prev)
		rel.DropResidentChunks()
		rel.ResetChunkCacheStats()
	}()

	// Two passes so the second faults chunks the first's tail evicted —
	// steady-state churn, not a single cold sweep.
	var fp string
	for pass := 0; pass < 2; pass++ {
		if fp, err = pipeline(cb); err != nil {
			return nil, err
		}
	}
	stats := rel.ChunkCacheStats()
	return &boundedMemory{
		QuotaBytes:        quota,
		SegmentChunkBytes: total,
		PeakResidentBytes: stats.Peak,
		Loads:             stats.Loads,
		Evictions:         stats.Evictions,
		QuotaWarnings:     stats.QuotaWarnings,
		OutputsIdentical:  fp == baseFP,
	}, nil
}
