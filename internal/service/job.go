package service

import (
	"context"
	"sync"
	"time"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job tracks one compile or sweep request through the worker pool.
// Every field behind mu is written by the owning worker and read by any
// number of pollers (GET /v1/jobs/{id}).
type Job struct {
	ID  string
	Key string // content-addressed cache key

	ctx    context.Context
	cancel context.CancelFunc

	// render produces the result body on a worker (see work.render); it
	// is dropped once it has run. cached lets the result reach the
	// caches.
	render func(ctx context.Context, s *Service) ([]byte, error)
	cached bool

	done chan struct{}

	mu       sync.Mutex
	state    State
	cacheHit bool
	result   []byte
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time

	// recovered marks a job replayed from the persistent journal after a
	// restart rather than submitted to this process. Its result, if any,
	// is re-attached lazily from the durable store via loadResult.
	recovered  bool
	loadResult func() ([]byte, bool)
}

// Status is the poller's view of a job (GET /v1/jobs/{id}).
type Status struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error,omitempty"`
	Created  string `json:"created"`
	Finished string `json:"finished,omitempty"`
	// Recovered marks a job whose state was replayed from the journal
	// after a daemon restart.
	Recovered bool `json:"recovered,omitempty"`
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel aborts the job's compile if it is still in flight. Recovered
// jobs are already terminal and have nothing to cancel.
func (j *Job) Cancel() {
	if j.cancel != nil {
		j.cancel()
	}
}

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the compiled report bytes (valid once StateDone) and
// whether they came from the cache. For a job recovered from the journal
// the bytes are fetched from the durable store on first use.
func (j *Job) Result() (body []byte, cacheHit bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil && j.loadResult != nil {
		if b, ok := j.loadResult(); ok {
			j.result = b
		}
		j.loadResult = nil
	}
	return j.result, j.cacheHit
}

// Err returns the failure or cancellation message, if any.
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// Status snapshots the job for the jobs endpoint.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.ID,
		State:     j.state,
		CacheHit:  j.cacheHit,
		Error:     j.errMsg,
		Created:   j.created.UTC().Format(time.RFC3339Nano),
		Recovered: j.recovered,
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return st
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

func (j *Job) finish(state State, result []byte, cacheHit bool, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.result = result
	j.cacheHit = cacheHit
	j.errMsg = errMsg
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}
