package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Regression gate: `tioga-bench -compare old.json new.json` flattens two
// bench reports and fails when new is meaningfully worse than old. Only
// portable quantities are gated — the speedup ratios and the
// outputs_identical flags — because absolute ns/op moves with the
// machine; same-machine absolute latency is _perfbench's paired runs.

// regression is one gated key that got worse.
type regression struct {
	Key string
	Old float64
	New float64
	Why string
}

func (r regression) String() string {
	if r.Why != "" {
		return fmt.Sprintf("%s: %s", r.Key, r.Why)
	}
	return fmt.Sprintf("%s: %.4g -> %.4g", r.Key, r.Old, r.New)
}

// flatten reduces a decoded JSON document to dotted-path -> leaf value.
// Array elements that are objects with a "name" field key on the name
// (so reordering workloads does not shuffle the comparison); other
// elements key on their index.
func flatten(prefix string, v any, out map[string]any) {
	switch t := v.(type) {
	case map[string]any:
		for k, child := range t {
			flatten(joinPath(prefix, k), child, out)
		}
	case []any:
		for i, child := range t {
			key := strconv.Itoa(i)
			if m, ok := child.(map[string]any); ok {
				if n, ok := m["name"].(string); ok && n != "" {
					key = n
				}
			}
			flatten(joinPath(prefix, key), child, out)
		}
	default:
		out[prefix] = v
	}
}

func joinPath(prefix, k string) string {
	if prefix == "" {
		return k
	}
	return prefix + "." + k
}

// higherBetter reports whether a key is a ratio where larger means
// faster (every comparison's speedup).
func higherBetter(key string) bool {
	return strings.Contains(lastSegment(key), "speedup")
}

func lastSegment(key string) string {
	if i := strings.LastIndex(key, "."); i >= 0 {
		return key[i+1:]
	}
	return key
}

// compareReports gates new against old with the given relative
// threshold, returning every regression found, sorted by key. Keys
// present in old but absent from new count as regressions for gated
// quantities (a silently dropped workload must not pass the gate).
func compareReports(old, new map[string]any, threshold float64) []regression {
	var regs []regression
	keys := make([]string, 0, len(old))
	for k := range old {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		identity := lastSegment(k) == "outputs_identical"
		if !higherBetter(k) && !identity {
			continue
		}
		nv, ok := new[k]
		if !ok {
			regs = append(regs, regression{Key: k, Why: "gated key missing from new report"})
			continue
		}
		if identity {
			ob, _ := old[k].(bool)
			nb, _ := nv.(bool)
			if ob && !nb {
				regs = append(regs, regression{Key: k, Why: "outputs_identical regressed true -> false"})
			}
			continue
		}
		of, ook := toFloat(old[k])
		nf, nok := toFloat(nv)
		if !ook || !nok {
			regs = append(regs, regression{Key: k, Why: fmt.Sprintf("not numeric in both reports (%v vs %v)", old[k], nv)})
			continue
		}
		if nf < of*(1-threshold) {
			regs = append(regs, regression{Key: k, Old: of, New: nf,
				Why: fmt.Sprintf("speedup fell %.1f%% (%.3g -> %.3g, tolerance %.0f%%)", 100*(1-nf/of), of, nf, 100*threshold)})
		}
	}
	return regs
}

func toFloat(v any) (float64, bool) {
	f, ok := v.(float64) // encoding/json decodes every JSON number to float64
	return f, ok
}

// loadFlat reads a bench report file into flattened form.
func loadFlat(path string) (map[string]any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]any)
	flatten("", doc, out)
	return out, nil
}

// runCompare implements the -compare mode: load both reports, gate, and
// report. Returns the regressions (empty means the gate passes).
func runCompare(oldPath, newPath string, threshold float64) ([]regression, error) {
	old, err := loadFlat(oldPath)
	if err != nil {
		return nil, err
	}
	new_, err := loadFlat(newPath)
	if err != nil {
		return nil, err
	}
	return compareReports(old, new_, threshold), nil
}
