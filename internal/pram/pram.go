package pram

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// Phase is one synchronized round of the algorithm.
type Phase struct {
	Name string
	// Tasks is N_i: the number of independently scheduled tasks.
	Tasks int
	// MaxTaskCost is t_i: the largest single-task cost (critical path of
	// the phase given unlimited processors).
	MaxTaskCost int64
	// TotalCost is W_i: the summed cost of all tasks.
	TotalCost int64
}

// Accounting accumulates the phases of one algorithm run. It is safe for
// concurrent use: phase recording takes a mutex (phases are coarse).
type Accounting struct {
	mu     sync.Mutex
	phases []Phase
}

// Reset empties the accounting, keeping its storage for the next run.
func (a *Accounting) Reset() {
	a.mu.Lock()
	a.phases = a.phases[:0]
	a.mu.Unlock()
}

// AddPhase records a completed phase.
func (a *Accounting) AddPhase(name string, tasks int, maxTaskCost, totalCost int64) {
	if tasks <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.phases = append(a.phases, Phase{Name: name, Tasks: tasks, MaxTaskCost: maxTaskCost, TotalCost: totalCost})
}

// Merge appends all phases of b (used when sub-computations keep their own
// accounting).
func (a *Accounting) Merge(b *Accounting) {
	if b == nil {
		return
	}
	b.mu.Lock()
	phases := append([]Phase(nil), b.phases...)
	b.mu.Unlock()
	a.mu.Lock()
	a.phases = append(a.phases, phases...)
	a.mu.Unlock()
}

// Phases returns a copy of the recorded phases.
func (a *Accounting) Phases() []Phase {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Phase(nil), a.phases...)
}

// NumPhases returns the number of recorded phases.
func (a *Accounting) NumPhases() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.phases)
}

// Work is the total operation count across phases (the paper's work bound
// target: O((n+k) polylog n)).
func (a *Accounting) Work() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var w int64
	for _, ph := range a.phases {
		w += ph.TotalCost
	}
	return w
}

// Depth is the unlimited-processor parallel time: the sum over phases of the
// critical path within the phase (the paper's O(log^4 n) target).
func (a *Accounting) Depth() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var d int64
	for _, ph := range a.phases {
		d += ph.MaxTaskCost
	}
	return d
}

// AllocCharge is t_{p,r}: the paper charges O(r log r / p) time to allocate
// p processors to r tasks.
func AllocCharge(r, p int) float64 {
	if r <= 1 || p <= 0 {
		return 0
	}
	return float64(r) * math.Log2(float64(r)) / float64(p)
}

// TimeOn evaluates the Brent slow-down bound for p processors:
// sum_i (W_i/p + t_i + t_{p,N_i}). This is Lemma 2.1 applied per phase.
func (a *Accounting) TimeOn(p int) float64 {
	if p < 1 {
		p = 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var t float64
	for _, ph := range a.phases {
		t += float64(ph.TotalCost)/float64(p) + float64(ph.MaxTaskCost) + AllocCharge(ph.Tasks, p)
	}
	return t
}

// Summary renders a human-readable per-phase table.
func (a *Accounting) Summary() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %12s %14s\n", "phase", "tasks", "max-task", "total")
	for _, ph := range a.phases {
		fmt.Fprintf(&b, "%-28s %10d %12d %14d\n", ph.Name, ph.Tasks, ph.MaxTaskCost, ph.TotalCost)
	}
	return b.String()
}

// PhaseRecorder collects per-task costs from concurrent workers and turns
// them into a Phase. Workers call Task with their measured cost; Close
// finalizes into the accounting. Costs are merged per worker to avoid
// contention.
type PhaseRecorder struct {
	name    string
	acct    *Accounting
	mu      sync.Mutex
	tasks   int
	maxCost int64
	total   int64
}

// NewPhase starts recording a phase.
func (a *Accounting) NewPhase(name string) *PhaseRecorder {
	return &PhaseRecorder{name: name, acct: a}
}

// Task records one task of the given cost.
func (r *PhaseRecorder) Task(cost int64) {
	r.mu.Lock()
	r.tasks++
	if cost > r.maxCost {
		r.maxCost = cost
	}
	r.total += cost
	r.mu.Unlock()
}

// TaskBatch records n tasks with the given maximum and total cost
// (one lock acquisition for a whole worker block).
func (r *PhaseRecorder) TaskBatch(n int, maxCost, total int64) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	r.tasks += n
	if maxCost > r.maxCost {
		r.maxCost = maxCost
	}
	r.total += total
	r.mu.Unlock()
}

// Close finalizes the phase into the accounting.
func (r *PhaseRecorder) Close() {
	if r.tasks > 0 {
		r.acct.AddPhase(r.name, r.tasks, r.maxCost, r.total)
	}
}
