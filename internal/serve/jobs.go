package serve

import (
	"fmt"
	"sync"
	"time"

	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/obs"
)

// JobState is a job's lifecycle position.
type JobState string

const (
	// JobQueued: admitted, waiting for a runner slot.
	JobQueued JobState = "queued"
	// JobRunning: claimed by a runner, kernel executing.
	JobRunning JobState = "running"
	// JobDone: kernel finished successfully; Result is populated.
	JobDone JobState = "done"
	// JobFailed: kernel (or admission-to-run plumbing) errored.
	JobFailed JobState = "failed"
)

// job is one admitted reduction job. Identity fields are immutable after
// submit; the lifecycle fields are guarded by mu and the done channel closes
// exactly once, on the queued→finished transition.
type job struct {
	ID      string
	Tenant  string
	Kernel  string
	Dataset string
	Params  Params

	kernel    KernelFunc
	submitted time.Time
	done      chan struct{}

	mu        sync.Mutex
	state     JobState
	started   time.Time
	finished  time.Time
	engineJob obs.JobID
	strategy  string
	scheduler string
	result    any
	errMsg    string
}

// setExecution records the resolved engine configuration before the kernel
// starts.
func (j *job) setExecution(cfg freeride.Config) {
	j.mu.Lock()
	j.strategy = cfg.Strategy.String()
	j.scheduler = cfg.Scheduler.String()
	j.mu.Unlock()
}

// setRunning marks the queued→running transition.
func (j *job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish records the terminal state and result, closing done.
func (j *job) finish(result any, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state = JobFailed
		j.errMsg = err.Error()
	} else {
		j.state = JobDone
		j.result = result
	}
	j.mu.Unlock()
	close(j.done)
}

// Status is the externally visible view of a job, also its JSON wire shape.
type Status struct {
	ID      string   `json:"id"`
	Tenant  string   `json:"tenant"`
	Kernel  string   `json:"kernel"`
	Dataset string   `json:"dataset"`
	State   JobState `json:"state"`
	// QueueMillis is submit→start wall time (or submit→now while queued).
	QueueMillis float64 `json:"queue_ms"`
	// ServiceMillis is start→finish wall time (0 while queued).
	ServiceMillis float64 `json:"service_ms,omitempty"`
	// EngineJob is the obs.JobID of the last engine pass the kernel ran, the
	// key into /trace for this job's span timeline.
	EngineJob uint64 `json:"engine_job,omitempty"`
	// Strategy and Scheduler echo the execution configuration the job ran
	// with.
	Strategy  string `json:"strategy,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	Result    any    `json:"result,omitempty"`
	Error     string `json:"error,omitempty"`
}

// status snapshots the job's current view.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID:        j.ID,
		Tenant:    j.Tenant,
		Kernel:    j.Kernel,
		Dataset:   j.Dataset,
		State:     j.state,
		Strategy:  j.strategy,
		Scheduler: j.scheduler,
		Error:     j.errMsg,
		Result:    j.result,
	}
	s.EngineJob = uint64(j.engineJob)
	switch j.state {
	case JobQueued:
		s.QueueMillis = float64(time.Since(j.submitted)) / float64(time.Millisecond)
	default:
		s.QueueMillis = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
	}
	if j.state == JobDone || j.state == JobFailed {
		s.ServiceMillis = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	return s
}

// jobTable indexes jobs by id with bounded retention of finished jobs: the
// table remembers the last retain finished jobs for polling clients and
// forgets older ones, so a long-lived server's memory is bounded by the
// backlog plus the retention window, not its lifetime job count.
type jobTable struct {
	mu       sync.Mutex
	nextID   int64
	jobs     map[string]*job
	finished []string // finished ids, oldest first
	retain   int
}

func newJobTable(retain int) *jobTable {
	return &jobTable{jobs: map[string]*job{}, retain: retain}
}

// add mints an id and indexes a new queued job.
func (t *jobTable) add(tenant, kernelName, datasetName string, p Params, fn KernelFunc) *job {
	t.mu.Lock()
	t.nextID++
	j := &job{
		ID:        fmt.Sprintf("j-%d", t.nextID),
		Tenant:    tenant,
		Kernel:    kernelName,
		Dataset:   datasetName,
		Params:    p,
		kernel:    fn,
		submitted: time.Now(),
		done:      make(chan struct{}),
		state:     JobQueued,
	}
	t.jobs[j.ID] = j
	t.mu.Unlock()
	return j
}

// get returns the job by id, or nil.
func (t *jobTable) get(id string) *job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[id]
}

// markFinished enters the job into the retention window, evicting the oldest
// finished job beyond the bound.
func (t *jobTable) markFinished(j *job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished = append(t.finished, j.ID)
	for len(t.finished) > t.retain {
		delete(t.jobs, t.finished[0])
		t.finished[0] = ""
		t.finished = t.finished[1:]
	}
}
