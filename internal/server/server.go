// Package server is the solver-as-a-service layer: a crash-safe,
// drain-safe, multi-tenant job daemon around the space-time solver.
//
// Jobs arrive as strict JSON specs (JobSpec), pass admission control
// (bounded queue depth, per-tenant queued quotas and running caps),
// and execute on a fixed set of Workers goroutines, each of which pops
// its next job only once it is free — so a job leaves the queue only
// when it can start, and the queue bound holds exactly.
// Every lifecycle transition is write-ahead journaled to an
// append-only, per-record-checksummed NBLJ log, and every run
// checkpoints each committed PFASST block — so the daemon can be
// killed at any instant and a restart replays the journal, re-owes
// every job without a terminal record, and resumes each one from its
// block checkpoint bitwise-identically to an uninterrupted run
// (DESIGN.md §16).
//
// Failure policy: retryable failures (resilient-loop Agree aborts,
// injected worker crashes) retry with bounded geometric backoff up to
// the job's budget; deadline overruns, client cancels and corrupt
// checkpoints fail typed (ErrJobDeadline, ErrJobCanceled,
// ErrCheckpointCorrupt) — the daemon never silently restarts a job
// whose resume state failed its checksum. Under load the queue
// refuses to grow (ErrQueueFull / ErrQuota) or, when shedding is
// enabled, evicts the oldest queued job (ErrShed). A drain stops
// admission, interrupts queued and running jobs at their next block
// boundary, and exits with state on disk; fault.ServerPlan injects
// server-level chaos (slow clients, mid-job cancels, worker crashes,
// checkpoint bit-rot, kill-during-drain) deterministically from a
// seed.
package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// Config parameterizes a Daemon. The zero value of any field selects
// a sensible default (see New).
type Config struct {
	// Dir is the daemon's state root: the NBLJ journal plus one
	// directory per job (block checkpoints, result). Required.
	Dir string
	// Workers bounds concurrently running jobs (default 2). Each job
	// may itself spin up PT·PS rank goroutines.
	Workers int
	// QueueDepth bounds the admission queue (default 16): a full
	// queue rejects (429) rather than grows.
	QueueDepth int
	// TenantMaxQueued caps one tenant's queued jobs (default:
	// QueueDepth), TenantMaxRunning caps its running jobs (default:
	// Workers).
	TenantMaxQueued  int
	TenantMaxRunning int
	// ShedOldest switches full-queue behavior from reject-new to
	// evict-oldest (graceful degradation).
	ShedOldest bool
	// DefaultDeadline bounds jobs that do not set deadline_ms
	// (0 = unbounded).
	DefaultDeadline time.Duration
	// MaxRetries is the default retry budget for jobs that do not set
	// max_retries (default 2).
	MaxRetries int
	// RetryBackoff is the base of the geometric retry backoff
	// (default 25ms, capped at 1s).
	RetryBackoff time.Duration
	// Chaos, when non-nil, injects the server-level chaos plan.
	Chaos *fault.ServerPlan
}

// Daemon is the job server. Construct with New, submit with Submit
// (or the HTTP handler), stop with Drain.
type Daemon struct {
	cfg     Config
	tel     *telemetry.Registry
	journal *Journal
	q       *admitQueue
	workers sync.WaitGroup
	running atomic.Int64

	rootCtx    context.Context
	rootCancel context.CancelCauseFunc

	mu       sync.Mutex
	jobs     map[uint64]*job
	order    []uint64
	nextSeq  uint64
	draining bool
	drained  chan struct{}

	drainOnce sync.Once
	drainErr  error
}

// New opens (or creates) the state directory, replays the journal,
// re-enqueues every job without a terminal record, and starts the
// workers. A corrupt journal (or a journaled spec that no longer
// parses) returns a typed error and no daemon — never a silent fresh
// start.
func New(cfg Config) (*Daemon, error) {
	if cfg.Dir == "" {
		return nil, errors.New("server: Config.Dir required")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 16
	}
	if cfg.TenantMaxQueued < 1 {
		cfg.TenantMaxQueued = cfg.QueueDepth
	}
	if cfg.TenantMaxRunning < 1 {
		cfg.TenantMaxRunning = cfg.Workers
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("server: state dir: %w", err)
	}
	journal, recs, err := OpenJournal(filepath.Join(cfg.Dir, "journal.nblj"))
	if err != nil {
		return nil, err
	}
	rootCtx, rootCancel := context.WithCancelCause(context.Background())
	d := &Daemon{
		cfg:        cfg,
		tel:        telemetry.New(),
		journal:    journal,
		q:          newAdmitQueue(cfg.QueueDepth, cfg.TenantMaxQueued, cfg.TenantMaxRunning),
		rootCtx:    rootCtx,
		rootCancel: rootCancel,
		jobs:       make(map[uint64]*job),
		drained:    make(chan struct{}),
	}
	if err := d.replay(recs); err != nil {
		journal.Close()
		rootCancel(nil)
		return nil, err
	}
	d.workers.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go d.worker()
	}
	return d, nil
}

// replay rebuilds the job table from journal records and re-enqueues
// every job the journal still owes (submitted or started but with no
// terminal record), in submission order.
func (d *Daemon) replay(recs []Record) error {
	terminal := make(map[uint64]bool)
	for _, rec := range recs {
		switch rec.Kind {
		case RecSubmit:
			spec, err := ParseJobSpec(rec.Data)
			if err != nil {
				return fmt.Errorf("%w: job %d submit record: %w", ErrJournalCorrupt, rec.Job, err)
			}
			j := newJob(rec.Job, spec)
			d.jobs[rec.Job] = j
			d.order = append(d.order, rec.Job)
			if rec.Job >= d.nextSeq {
				d.nextSeq = rec.Job + 1
			}
		case RecStart:
			j := d.jobs[rec.Job]
			if j == nil || len(rec.Data) != 8 {
				return fmt.Errorf("%w: job %d start record without submit", ErrJournalCorrupt, rec.Job)
			}
			j.attempt = int(binary.LittleEndian.Uint64(rec.Data))
		case RecDone:
			j := d.jobs[rec.Job]
			if j == nil || len(rec.Data) != 8 {
				return fmt.Errorf("%w: job %d done record without submit", ErrJournalCorrupt, rec.Job)
			}
			j.finish(StateDone, nil, binary.LittleEndian.Uint64(rec.Data))
			terminal[rec.Job] = true
		case RecFail:
			j := d.jobs[rec.Job]
			if j == nil {
				return fmt.Errorf("%w: job %d fail record without submit", ErrJournalCorrupt, rec.Job)
			}
			j.finish(StateFailed, fmt.Errorf("server: journaled failure: %s", rec.Data), 0)
			terminal[rec.Job] = true
		case RecCancel:
			j := d.jobs[rec.Job]
			if j == nil {
				return fmt.Errorf("%w: job %d cancel record without submit", ErrJournalCorrupt, rec.Job)
			}
			j.finish(StateCanceled, fmt.Errorf("server: journaled cancel: %s", rec.Data), 0)
			terminal[rec.Job] = true
		case RecShed:
			j := d.jobs[rec.Job]
			if j == nil {
				return fmt.Errorf("%w: job %d shed record without submit", ErrJournalCorrupt, rec.Job)
			}
			j.finish(StateShed, fmt.Errorf("server: journaled shed: %s", rec.Data), 0)
			terminal[rec.Job] = true
		}
	}
	for _, seq := range d.order {
		if terminal[seq] {
			continue
		}
		j := d.jobs[seq]
		j.attempt = 0
		d.tel.Counter("server.jobs.resumed").Inc()
		d.q.requeue(j)
	}
	return nil
}

// worker runs queued jobs one at a time until the queue closes. It
// pops only when it is free, so a popped job starts at once: the
// queue never holds a job that is neither queued nor running, and
// QueueDepth bounds every job not yet running.
func (d *Daemon) worker() {
	defer d.workers.Done()
	for {
		j := d.q.pop()
		if j == nil {
			return
		}
		d.tel.Gauge("server.queue.depth").Set(float64(d.q.lenQueued()))
		d.tel.Gauge("server.jobs.running").Set(float64(d.running.Add(1)))
		d.runJob(j)
		d.q.release(j.spec.Tenant)
		d.tel.Gauge("server.jobs.running").Set(float64(d.running.Add(-1)))
	}
}

// admit assigns the next sequence number under the daemon lock,
// rejecting when the daemon is draining. The critical section sits
// behind defer so a panic anywhere inside it cannot leak the mutex
// (locksafe's admission-path rule).
func (d *Daemon) admit() (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return 0, ErrDraining
	}
	seq := d.nextSeq
	d.nextSeq++
	return seq, nil
}

// Submit admits a validated spec: journal first (write-ahead), then
// queue. Returns the assigned job ID. Rejections are typed —
// ErrDraining, ErrQuota, ErrQueueFull — and counted.
func (d *Daemon) Submit(spec *JobSpec) (uint64, error) {
	seq, err := d.admit()
	if err != nil {
		d.tel.Counter("server.rejected.draining").Inc()
		return 0, err
	}

	j := newJob(seq, spec)
	if err := d.journal.Append(Record{Kind: RecSubmit, Job: seq, Data: spec.Canonical()}); err != nil {
		return 0, err
	}
	shed, err := d.q.push(j, d.cfg.ShedOldest)
	if err != nil {
		// The submit record is already journaled; record the rejection
		// so a restart does not resurrect the job.
		reject := Record{Kind: RecCancel, Job: seq, Data: []byte(err.Error())}
		if jerr := d.journal.Append(reject); jerr != nil {
			return 0, jerr
		}
		switch {
		case errors.Is(err, ErrQuota):
			d.tel.Counter("server.rejected.quota").Inc()
		case errors.Is(err, ErrQueueFull):
			d.tel.Counter("server.rejected.queue_full").Inc()
		default:
			d.tel.Counter("server.rejected.draining").Inc()
		}
		return 0, err
	}
	d.mu.Lock()
	d.jobs[seq] = j
	d.order = append(d.order, seq)
	d.mu.Unlock()
	if shed != nil {
		d.finalize(shed, StateShed, fmt.Errorf("server: job %d: %w (evicted for job %d)", shed.seq, ErrShed, seq), 0)
	}
	d.tel.Counter("server.jobs.submitted").Inc()
	d.tel.Counter(fmt.Sprintf("server.tenant.%s.submitted", spec.Tenant)).Inc()
	d.tel.Gauge("server.queue.depth").Set(float64(d.q.lenQueued()))
	return seq, nil
}

// Cancel cancels a job: a queued job finalizes immediately, a running
// one stops at its next block boundary. Canceling a finished job is a
// no-op; an unknown ID returns ErrUnknownJob.
func (d *Daemon) Cancel(id uint64) error {
	d.mu.Lock()
	j := d.jobs[id]
	d.mu.Unlock()
	if j == nil {
		return ErrUnknownJob
	}
	if d.q.remove(j) {
		d.finalize(j, StateCanceled, fmt.Errorf("server: job %d: %w while queued", id, ErrJobCanceled), 0)
		d.tel.Gauge("server.queue.depth").Set(float64(d.q.lenQueued()))
		return nil
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel(fmt.Errorf("server: job %d: %w", id, ErrJobCanceled))
	}
	return nil
}

// Job returns a job's status snapshot.
func (d *Daemon) Job(id uint64) (JobStatus, error) {
	d.mu.Lock()
	j := d.jobs[id]
	d.mu.Unlock()
	if j == nil {
		return JobStatus{}, ErrUnknownJob
	}
	return j.status(), nil
}

// Jobs returns every known job's status, in submission order.
func (d *Daemon) Jobs() []JobStatus {
	d.mu.Lock()
	order := append([]uint64(nil), d.order...)
	jobs := make([]*job, 0, len(order))
	for _, seq := range order {
		jobs = append(jobs, d.jobs[seq])
	}
	d.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// ResultPath returns the path of a completed job's result checkpoint.
func (d *Daemon) ResultPath(id uint64) string {
	return filepath.Join(d.jobDir(id), "result.nbck")
}

// WaitJob blocks until the job reaches a final or interrupted state
// (or the timeout elapses) and returns its status.
func (d *Daemon) WaitJob(id uint64, timeout time.Duration) (JobStatus, error) {
	d.mu.Lock()
	j := d.jobs[id]
	d.mu.Unlock()
	if j == nil {
		return JobStatus{}, ErrUnknownJob
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-j.done:
		return j.status(), nil
	case <-t.C:
		return j.status(), fmt.Errorf("server: job %d: wait timed out after %s", id, timeout)
	}
}

// Metrics returns a snapshot of the daemon's telemetry.
func (d *Daemon) Metrics() telemetry.Snapshot { return d.tel.Snapshot() }

// Draining reports whether a drain has begun.
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Drain gracefully shuts the daemon down: stop admission, mark queued
// jobs interrupted, cancel running jobs (they stop at their next block
// boundary, checkpoint intact), wait for the workers, close the
// journal.
// Interrupted jobs keep no terminal record — a restart on the same
// state directory owes and resumes them. When the chaos plan calls
// for a kill-during-drain, running jobs are canceled with
// ErrKilledDuringDrain and Drain returns that error; on-disk state is
// exactly as crash-consistent as a real SIGKILL would leave it.
// Idempotent: later calls return the first outcome.
func (d *Daemon) Drain() error {
	d.drainOnce.Do(func() {
		d.mu.Lock()
		d.draining = true
		d.mu.Unlock()

		killed := d.cfg.Chaos.KillDuringDrain()
		cause := error(ErrDraining)
		if killed {
			cause = ErrKilledDuringDrain
		}

		// Closing the queue stops every worker's next pop; canceling
		// the root context reaches every attempt context (and retry
		// backoff sleep) at once, so running jobs stop at their next
		// block boundary and the wait below ends.
		d.q.close()
		d.rootCancel(cause)
		for _, j := range d.q.drainQueued() {
			j.finish(StateInterrupted, cause, 0)
		}
		d.workers.Wait()
		d.journal.Close()
		close(d.drained)
		if killed {
			d.drainErr = ErrKilledDuringDrain
		}
	})
	<-d.drained
	return d.drainErr
}

// Close is Drain for defer chains: it swallows the chaos plan's
// simulated kill (tests assert on Drain's return instead).
func (d *Daemon) Close() {
	if err := d.Drain(); err != nil && !errors.Is(err, ErrKilledDuringDrain) {
		// Drain only returns the typed kill sentinel today; anything
		// else would be a programming error worth surfacing loudly.
		panic(err)
	}
}
