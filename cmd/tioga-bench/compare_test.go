package main

import (
	"encoding/json"
	"testing"
)

func flat(t *testing.T, doc string) map[string]any {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(doc), &v); err != nil {
		t.Fatalf("bad test document: %v", err)
	}
	out := make(map[string]any)
	flatten("", v, out)
	return out
}

func TestFlattenKeysArraysByName(t *testing.T) {
	m := flat(t, `{"results": [{"name": "join_hash", "ns_per_op": 100}, {"name": "lazy", "ns_per_op": 7}], "plain": [1, 2]}`)
	if m["results.join_hash.ns_per_op"] != float64(100) {
		t.Fatalf("named array element not flattened by name: %v", m)
	}
	if m["plain.1"] != float64(2) {
		t.Fatalf("plain array element not flattened by index: %v", m)
	}
}

func TestCompareSpeedupRegression(t *testing.T) {
	old := flat(t, `{"speedup": 3.0, "outputs_identical": true}`)
	ok := flat(t, `{"speedup": 2.7, "outputs_identical": true}`)
	if regs := compareReports(old, ok, 0.15); len(regs) != 0 {
		t.Fatalf("10%% speedup drop within 15%% tolerance flagged: %v", regs)
	}
	bad := flat(t, `{"speedup": 2.0, "outputs_identical": true}`)
	regs := compareReports(old, bad, 0.15)
	if len(regs) != 1 || regs[0].Key != "speedup" {
		t.Fatalf("33%% speedup drop not flagged: %v", regs)
	}
}

func TestCompareOutputsIdenticalRegression(t *testing.T) {
	old := flat(t, `{"outputs_identical": true}`)
	bad := flat(t, `{"outputs_identical": false}`)
	if regs := compareReports(old, bad, 0.15); len(regs) != 1 {
		t.Fatalf("outputs_identical true->false not flagged: %v", regs)
	}
	// false -> false is not a regression (it was already broken).
	if regs := compareReports(bad, bad, 0.15); len(regs) != 0 {
		t.Fatalf("outputs_identical false->false flagged: %v", regs)
	}
}

func TestCompareMissingGatedKey(t *testing.T) {
	old := flat(t, `{"speedup": 3.0}`)
	empty := flat(t, `{}`)
	if regs := compareReports(old, empty, 0.15); len(regs) != 1 {
		t.Fatalf("dropped gated key not flagged: %v", regs)
	}
}

// Absolute ns/op moves with the machine, so like meta and counters it is
// never gated.
func TestCompareIgnoresMetaAndCounters(t *testing.T) {
	old := flat(t, `{"meta": {"go_version": "go1.22.0", "git_rev": "aaa"}, "comparisons": [{"name": "w", "fast": {"ns_per_op": 1000, "counters": {"eval.fires": 10}}}]}`)
	changed := flat(t, `{"meta": {"go_version": "go1.23.1", "git_rev": "bbb"}, "comparisons": [{"name": "w", "fast": {"ns_per_op": 2000, "counters": {"eval.fires": 99}}}]}`)
	if regs := compareReports(old, changed, 0.15); len(regs) != 0 {
		t.Fatalf("ungated keys flagged: %v", regs)
	}
}
