package report

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// runPool runs fn(0), ..., fn(n-1) on a bounded pool of workers and
// returns the index of the lowest failing task plus its error, or
// (n, nil) when every task succeeds. Indices are dispatched in
// ascending order; once a task fails, tasks with higher indices are
// skipped (lower ones still run, so the winning error is the one the
// sequential loop would have hit). workers <= 1 degenerates to the
// plain sequential loop, stopping at the first error. Otherwise the
// caller is one of the workers and workers-1 helpers are the rest.
func runPool(n, workers int, fn func(int) error) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return i, err
			}
		}
		return n, nil
	}

	var (
		mu      sync.Mutex
		failIdx = n
		failErr error
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			mu.Lock()
			skip := failErr != nil && i > failIdx
			mu.Unlock()
			if skip {
				continue
			}
			if err := fn(i); err != nil {
				mu.Lock()
				if failErr == nil || i < failIdx {
					failIdx, failErr = i, err
				}
				mu.Unlock()
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		startHelper(poolJob{work, &wg})
	}
	work()
	wg.Wait()
	return failIdx, failErr
}

// helper is a pool worker goroutine that outlives the runPool call it
// was started for: between jobs it parks on the idle list, and the next
// call anywhere in the process takes it from there. A goroutine spawned
// and dropped per call would leave its descriptor on the free list of
// whichever P it happened to exit on, where the next spawn from another
// P does not find it: a process that loads and analyzes in a loop then
// collects up to a hundred descriptors at a pace the scheduler sets, a
// fifth of the batch job's resident heap and a different amount every
// run. Parked helpers make it a constant — as many as the most pool
// calls ever in flight at once needed.
type helper struct{ jobs chan poolJob }

// poolJob is one runPool call's share for a helper: run work, then
// report on wg.
type poolJob struct {
	work func()
	wg   *sync.WaitGroup
}

var idleHelpers struct {
	sync.Mutex
	list []*helper
}

// startHelper hands job to an idle helper, or to a new one when none is
// idle.
func startHelper(job poolJob) {
	idleHelpers.Lock()
	var h *helper
	if n := len(idleHelpers.list); n > 0 {
		h, idleHelpers.list = idleHelpers.list[n-1], idleHelpers.list[:n-1]
	}
	idleHelpers.Unlock()
	if h == nil {
		h = &helper{jobs: make(chan poolJob)}
		go h.loop()
	}
	h.jobs <- job
}

func (h *helper) loop() {
	for job := range h.jobs {
		job.work()
		// Idle before done: the caller's next runPool then finds this
		// helper rather than starting another.
		idleHelpers.Lock()
		idleHelpers.list = append(idleHelpers.list, h)
		idleHelpers.Unlock()
		job.wg.Done()
	}
}

// RunMany executes the named experiments across the lab's worker pool
// and returns one output buffer per experiment, in input order — the
// concatenation is byte-identical to running them sequentially.
// Each experiment writes into its own ordered buffer, so `-exp all`
// parallelism never interleaves output. On failure the slice holds
// the complete outputs of the experiments preceding the lowest
// failing one (a failing experiment's partial output is dropped),
// alongside that experiment's error.
func (l *Lab) RunMany(names []string) ([][]byte, error) {
	bufs := make([]bytes.Buffer, len(names))
	stop, err := runPool(len(names), l.workers(), func(i int) error {
		return l.Run(&bufs[i], names[i])
	})
	outs := make([][]byte, 0, stop)
	for i := 0; i < stop && i < len(names); i++ {
		outs = append(outs, bufs[i].Bytes())
	}
	return outs, err
}
