package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/types"
)

// The live writer is an open loop: write i is due at start + i*period
// whatever the system does, so a stall delays every later write and
// shows up in freshness, which is timed from the due time. Three writes
// in four update a displayed Stations.altitude; the fourth appends to
// Observations, which the canvas does not read.
const writePeriod = 20 * time.Millisecond // 50 writes/s

// write is one scheduled database write.
type write struct {
	update bool
	row    int
	alt    float64
	tuple  []types.Value
}

// writeStream generates the seeded writes.
func writeStream(seed int64, stations int) func() write {
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	return func() write {
		if rng.Intn(4) < 3 {
			return write{update: true, row: rng.Intn(stations), alt: float64(rng.Intn(50000)) / 100}
		}
		return write{tuple: []types.Value{
			types.NewInt(int64(rng.Intn(stations))),
			types.DateYMD(1996, 1+rng.Intn(12), 1+rng.Intn(28)),
			types.NewFloat(float64(rng.Intn(400)) / 10),
			types.NewFloat(float64(rng.Intn(100)) / 10),
		}}
	}
}

func (w write) apply(d *db.Database) error {
	if w.update {
		return d.UpdateTuple("Stations", w.row, "altitude", types.NewFloat(w.alt))
	}
	return d.AppendTuple("Observations", w.tuple)
}

// writeSchedule maps commit sequence numbers back to due times. The
// writer is the database's only writer while it runs, so write i
// commits as sequence base+i+1.
type writeSchedule struct {
	start time.Time
	base  uint64

	mu     sync.Mutex
	issued uint64 // writes committed so far
}

func (s *writeSchedule) due(seq uint64) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.base || seq > s.base+s.issued {
		return time.Time{}, false
	}
	return s.start.Add(time.Duration(seq-s.base-1) * writePeriod), true
}

// loggedWrite is one issued write and when it started, for the replay.
type loggedWrite struct {
	at time.Time
	w  write
}

// writerResult is what one writer pass measured.
type writerResult struct {
	lagMS  []float64 // how late each write started against its due time
	writes []loggedWrite
	err    error
}

// runWriter issues the writes due before until, recording each
// write's lateness. It returns when the last due write has committed.
func runWriter(d *db.Database, sched *writeSchedule, next func() write, until time.Time) writerResult {
	var res writerResult
	for i := 0; ; i++ {
		due := sched.start.Add(time.Duration(i) * writePeriod)
		if !due.Before(until) {
			return res
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		res.lagMS = append(res.lagMS, ms(now.Sub(due)))
		w := next()
		// Count the write before it commits: a client may see its frame
		// before apply returns.
		sched.mu.Lock()
		sched.issued++
		sched.mu.Unlock()
		if err := w.apply(d); err != nil {
			res.err = fmt.Errorf("write %d: %w", i, err)
			return res
		}
		res.writes = append(res.writes, loggedWrite{at: now, w: w})
	}
}
