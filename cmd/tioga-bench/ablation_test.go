package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCommittedAblationBaseline keeps the committed baseline in step with
// the comparison table. The -compare gate matches entries by name, so a
// comparison missing from the baseline is never gated, an entry the
// table lacks gates nothing, and a duplicate name silently shadows
// another comparison's keys.
func TestCommittedAblationBaseline(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_ablation.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_ablation.json: %v", err)
	}

	registered := make(map[string]bool)
	for _, c := range comparisons {
		if registered[c.name] {
			t.Errorf("comparison name %q registered twice", c.name)
		}
		registered[c.name] = true
	}
	committed := make(map[string]result)
	for _, r := range rep.Comparisons {
		if !registered[r.Name] {
			t.Errorf("baseline entry %q has no registered comparison", r.Name)
		}
		if _, dup := committed[r.Name]; dup {
			t.Errorf("baseline entry %q appears twice", r.Name)
		}
		committed[r.Name] = r
	}
	for _, c := range comparisons {
		r, ok := committed[c.name]
		switch {
		case !ok:
			t.Errorf("comparison %q missing from the baseline", c.name)
		case !(r.Speedup > 0):
			t.Errorf("%s: speedup %v, want > 0", c.name, r.Speedup)
		case !r.OutputsIdentical:
			t.Errorf("%s: outputs_identical is false", c.name)
		case r.BoundedMemory != nil && !r.BoundedMemory.OutputsIdentical:
			t.Errorf("%s: bounded_memory.outputs_identical is false", c.name)
		}
	}
}

// The runner's identity pass is every comparison's differential oracle:
// legs that disagree on any lockstep op must fail the run before timing.
func TestRunComparisonFailsWhenOutputsDiffer(t *testing.T) {
	ops := 0
	c := comparison{name: "differ", setup: func(params) (*ablation, error) {
		return &ablation{
			baseline: leg{mode: "base", op: func() (any, error) { return "same", nil }},
			fast: leg{mode: "fast", op: func() (any, error) {
				ops++
				if ops == 3 {
					return "different", nil
				}
				return "same", nil
			}},
			fingerprint: func(out any) (string, error) { return out.(string), nil },
			checkOps:    4,
		}, nil
	}}
	if _, err := runComparison(c, true, false); err == nil {
		t.Fatal("legs that differ on the third check op passed the identity pass")
	}
	if ops != 3 {
		t.Fatalf("fast leg ran %d ops, want the identity pass to stop at the third", ops)
	}
}
