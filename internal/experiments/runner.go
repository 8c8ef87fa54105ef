package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/flow"
)

// Runner executes a sweep of benchmark × group jobs across a pool of
// workers. Every job — one multi-mode group evaluated under MDR and both
// DCS objectives — is independent of every other, so the sweep is
// embarrassingly parallel; the Runner fans jobs over Workers goroutines
// while keeping the result slice in the deterministic enumeration order
// (suites in the given order, each suite's groups in order). Because each
// job is itself a pure function of its inputs, the results are identical
// at any worker count, byte for byte once rendered.
//
// All jobs share one flow.Cache: the immutable routing-resource graphs and
// the per-benchmark placements are computed once and reused across
// workers instead of being rebuilt per job.
type Runner struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called as each job starts. Calls are
	// serialised, but under multiple workers their order follows the
	// scheduler, not the job enumeration.
	Progress func(msg string)
}

// sweepJob is one group evaluation with its slot in the result order.
type sweepJob struct {
	suite *Suite
	group []int
	index int
}

func (j sweepJob) describe() string { return GroupLabel(j.suite, j.group) }

// GroupLabel names group of suite s in progress lines, e.g.
// "RegExp group (0,1)".
func GroupLabel(s *Suite, group []int) string {
	idx := make([]string, len(group))
	for i, m := range group {
		idx[i] = fmt.Sprint(m)
	}
	return fmt.Sprintf("%s group (%s)", s.Name, strings.Join(idx, ","))
}

// Run evaluates every selected group of every suite and returns the
// results in enumeration order. On failure it returns the error of the
// lowest-indexed failing job (jobs already running when a failure is
// observed still finish; jobs not yet started are skipped).
func (r *Runner) Run(suites []*Suite, sc Scale) ([]*GroupResult, error) {
	if sc.Cache == nil {
		sc.Cache = flow.NewCache()
	}
	var jobs []sweepJob
	for _, s := range suites {
		for _, grp := range s.Groups {
			jobs = append(jobs, sweepJob{suite: s, group: grp, index: len(jobs)})
		}
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if len(jobs) == 0 {
		return nil, nil
	}

	results := make([]*GroupResult, len(jobs))
	errs := make([]error, len(jobs))
	var failed atomic.Bool
	var progressMu sync.Mutex
	ch := make(chan sweepJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				if failed.Load() {
					continue
				}
				if r.Progress != nil {
					progressMu.Lock()
					r.Progress(j.describe())
					progressMu.Unlock()
				}
				res, err := RunGroup(j.suite, j.group, sc)
				if err != nil {
					errs[j.index] = err
					failed.Store(true)
					continue
				}
				results[j.index] = res
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", jobs[i].describe(), err)
		}
	}
	return results, nil
}

// RunAll is the convenience form of Runner.Run: it sweeps all suites with
// the given worker count.
func RunAll(suites []*Suite, sc Scale, workers int, progress func(string)) ([]*GroupResult, error) {
	return (&Runner{Workers: workers, Progress: progress}).Run(suites, sc)
}
