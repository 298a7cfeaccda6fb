package rel

import (
	"runtime"
	"sync"

	"repro/internal/obs"
)

// This file holds the per-call execution setting of the scanning
// operators and the chunked parallel-scan machinery they share. The
// caller's Exec picks the evaluator for one call, so benchmarks and
// tests can measure and check the kernel against the interpreter.

// DefaultScanThreshold is the row count below which scans stay
// single-threaded: chunk bookkeeping and goroutine handoff cost more than
// they save on small relations.
const DefaultScanThreshold = 4096

// Path selects which evaluator the scanning operators run expressions
// on.
type Path uint8

const (
	// PathAuto, the zero value, runs the columnar chunk kernel
	// (kernel.go), which covers every checked expression and hands the
	// rows it cannot reproduce exactly to the interpreter.
	PathAuto Path = iota
	// PathInterp runs the tree-walking interpreter only: the oracle the
	// kernel is tested against.
	PathInterp
)

// Exec is the execution setting of one operator call. The zero value is
// the production setting: every fast path on, GOMAXPROCS scan workers.
type Exec struct {
	Path Path
	// Workers bounds a scan's parallel chunks. Zero or negative means
	// GOMAXPROCS; one scans serially.
	Workers int
}

// kernels reports whether x allows the columnar chunk kernels.
func (x Exec) kernels() bool { return x.Path == PathAuto }

// chunks decides how many contiguous chunks an n-row scan splits into:
// 1 (serial) below DefaultScanThreshold or with one worker, else up to
// the worker count.
func (x Exec) chunks(n int) int {
	w := x.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w <= 1 || n < DefaultScanThreshold {
		return 1
	}
	if w > n {
		w = n
	}
	return w
}

// runChunks runs fn over [0, n) split into the given number of contiguous
// chunks, concurrently when chunks > 1. Output determinism is the
// caller's job (chunks are contiguous and ordered, so concatenating
// per-chunk results in chunk order reproduces the serial order). Error
// determinism is guaranteed here: fn stops a chunk at its first failure
// and runChunks returns the error of the lowest-numbered failed chunk —
// every row before that failure, in this or any lower chunk, succeeded,
// so the reported error is the one a serial scan would have hit first.
func runChunks(n, chunks int, fn func(chunk, lo, hi int) error) error {
	if chunks <= 1 {
		return fn(0, 0, n)
	}
	obs.Add(obs.RelScanChunks, int64(chunks))
	size := (n + chunks - 1) / chunks
	errs := make([]error, chunks)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			errs[c] = fn(c, lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
