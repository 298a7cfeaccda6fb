package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99, p95, p90 and p75 that leaves at
// least twenty samples beyond it (the median when none does). The
// traced run's per-layer tails, which are not gated, use it; the gated
// tails are fixed per workload (see fillOpMetrics).
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(n)*(1-q) >= 20 {
			return q
		}
	}
	return 0.5
}

// heapSampler polls the heap in use and keeps its peak in each
// one-second window. Reading runtime/metrics does not stop the world, so
// sampling every couple of milliseconds costs the measured program
// nothing it would notice. The reported figure is the median of the
// window peaks: a single run-wide maximum depends on where one GC cycle
// happened to fall, while each window spans several cycles and peaks
// near the collector's trigger point.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // MiB, one per window
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		window := time.Now()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			if time.Since(window) >= time.Second {
				h.peaks = append(h.peaks, float64(peak)/(1<<20))
				peak, window = 0, time.Now()
			}
			select {
			case <-h.stop:
				if peak > 0 {
					h.peaks = append(h.peaks, float64(peak)/(1<<20))
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the median window peak in MiB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks)
}

// span is one recorded interval. Spans of one op share Op; Parent is
// the index of the enclosing span, -1 for a root.
type span struct {
	Name   string
	Op     int
	Parent int
	Start  time.Time
	End    time.Time
}

// recorder keeps spans in memory for the whole traced run and writes
// them out once at the end, so tracing adds no I/O to the measured path.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its index for children.
func (r *recorder) add(name string, op, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	return len(r.spans) - 1
}

// finish sets the end of a span recorded before its end was known.
func (r *recorder) finish(i int, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = end
}

// durations returns the durations in ms of every span named name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, ms(s.End.Sub(s.Start)))
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, one track per op stream) to path.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == 0 {
		return nil
	}
	t0 := r.spans[0].Start
	for _, s := range r.spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]int{"span": i, "parent": s.Parent, "op": s.Op},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
