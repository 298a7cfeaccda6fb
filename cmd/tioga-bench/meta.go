package main

import (
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// runMeta stamps a bench report with the environment that produced it,
// so a regression comparison can tell a real slowdown from a machine or
// toolchain change. BENCH_ablation.json carries one.
type runMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Timestamp  string `json:"timestamp_utc"`
	GitRev     string `json:"git_rev,omitempty"`
}

// collectMeta gathers the run environment. The git revision is
// best-effort: absent when the binary runs outside a checkout or git is
// not installed.
func collectMeta() runMeta {
	m := runMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitRev = strings.TrimSpace(string(out))
	}
	return m
}
