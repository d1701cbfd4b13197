// The coordinator side of the fabric: the one file in this package that
// owns real time, processes and deadlines. It implements
// experiment.ShardExecutor over a pool of worker processes, so plugging
// it into a Runner routes SweepStream shards through workers while the
// merge (and therefore the bytes of every report) stays exactly the
// in-process engine's shard-order merge.
package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spdier/internal/experiment"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Workers is the worker-process pool size (<= 0 selects 1).
	Workers int
	// WorkerCmd re-execs the worker: argv[0] plus arguments that put the
	// binary into worker mode (e.g. the current binary with
	// -fabric-worker). Required.
	WorkerCmd []string
	// WorkerEnv appends extra variables to the inherited environment.
	WorkerEnv []string
	// CheckpointDir, when non-empty, journals completed shards for
	// -resume. Empty disables checkpointing.
	CheckpointDir string
	// Resume replays an existing journal instead of truncating it.
	Resume bool
	// ShardTimeout bounds how long a shard may go without a progress
	// frame before its worker is declared hung and respawned (<= 0
	// selects 2 minutes). It is a liveness deadline, not a duration
	// budget: any progress resets it.
	ShardTimeout time.Duration
	// MaxAttempts bounds dispatch attempts per shard before the shard
	// falls back in-process (<= 0 selects 3).
	MaxAttempts int
	// OnProgress, when non-nil, receives run-completion counts from
	// worker progress frames and journal replays.
	OnProgress func(runs int)
	// Stderr receives worker stderr and coordinator diagnostics (nil
	// selects os.Stderr).
	Stderr io.Writer
}

// Stats counts what the fabric did during a sweep.
type Stats struct {
	ShardsRemote   int // shards computed by worker processes
	ShardsReplayed int // shards replayed from the checkpoint journal
	Respawns       int // workers killed and replaced (hang or exit)
}

// worker is one live worker process plus its frame-reader goroutine.
type worker struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	frames chan frame
	// readErr is set (before frames closes) when the reader goroutine
	// stops on anything but a clean EOF.
	readErrMu sync.Mutex
	readErr   error
}

func (w *worker) readError() error {
	w.readErrMu.Lock()
	defer w.readErrMu.Unlock()
	return w.readErr
}

// Coordinator fans SweepStream shards out to worker processes. It is
// safe for concurrent ExecuteShard calls (SweepStream dispatches shards
// from its worker-pool goroutines).
type Coordinator struct {
	cfg Config

	// slots is the worker pool: capacity cfg.Workers, pre-filled with
	// nil tokens. A nil token is the right to spawn a worker; a non-nil
	// token is a live idle worker. Acquire by receive, release by send.
	slots chan *worker

	mu       sync.Mutex
	live     map[*worker]bool
	journals map[string]*Journal
	closed   bool

	shardsRemote   atomic.Int64
	shardsReplayed atomic.Int64
	respawns       atomic.Int64
}

// NewCoordinator validates cfg and builds the (lazily spawned) pool.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.WorkerCmd) == 0 {
		return nil, fmt.Errorf("fabric: Config.WorkerCmd is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 2 * time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	c := &Coordinator{
		cfg:      cfg,
		slots:    make(chan *worker, cfg.Workers),
		live:     map[*worker]bool{},
		journals: map[string]*Journal{},
	}
	for i := 0; i < cfg.Workers; i++ {
		c.slots <- nil
	}
	return c, nil
}

// Workers reports the configured pool size.
func (c *Coordinator) Workers() int { return c.cfg.Workers }

// Stats snapshots the fabric counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		ShardsRemote:   int(c.shardsRemote.Load()),
		ShardsReplayed: int(c.shardsReplayed.Load()),
		Respawns:       int(c.respawns.Load()),
	}
}

// WorkerPIDs snapshots the PIDs of live worker processes (tests use it
// to kill one mid-shard).
func (c *Coordinator) WorkerPIDs() []int {
	c.mu.Lock()
	var pids []int
	for w := range c.live {
		if w.cmd.Process != nil {
			pids = append(pids, w.cmd.Process.Pid)
		}
	}
	c.mu.Unlock()
	sort.Ints(pids)
	return pids
}

// sweepFingerprint keys the checkpoint journal: it covers everything
// that determines a sweep's bytes — the canonical condition encoding,
// the folder, and the seed space.
func sweepFingerprint(key, folder string, runs int, seed uint64) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("v1|%s|folder=%s|runs=%d|seed=%d", key, folder, runs, seed)))
	return hex.EncodeToString(sum[:])
}

// shardFingerprint keys one journal record.
func shardFingerprint(sweepFP string, shard int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|shard=%d", sweepFP, shard)))
	return hex.EncodeToString(sum[:])
}

// journalFor lazily opens (once) the journal for a sweep fingerprint.
// Returns nil when checkpointing is disabled or the journal cannot be
// opened (the sweep still runs, just without a checkpoint).
func (c *Coordinator) journalFor(sweepFP string) *Journal {
	if c.cfg.CheckpointDir == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if j, ok := c.journals[sweepFP]; ok {
		return j
	}
	j, err := OpenJournal(c.cfg.CheckpointDir, sweepFP, c.cfg.Resume)
	if err != nil {
		fmt.Fprintf(c.cfg.Stderr, "fabric: checkpoint disabled for sweep %.16s…: %v\n", sweepFP, err)
		j = nil
	}
	c.journals[sweepFP] = j
	return j
}

// ExecuteShard implements experiment.ShardExecutor: replay the shard
// from the journal if possible, otherwise dispatch it to a worker,
// journal the result, and decode it. Returns nil to decline — the sweep
// then folds that shard in-process, so fabric failures degrade to
// slower, never to wrong or missing results.
func (c *Coordinator) ExecuteShard(h experiment.Harness, base experiment.Options, shard int, newShard func() experiment.Folder) experiment.Folder {
	name, ok := experiment.FolderName(newShard())
	if !ok {
		return nil // unregistered accumulator; only in-process can fold it
	}
	key, ok := experiment.CacheKey(base)
	if !ok {
		return nil // non-canonical condition (explicit Pages); not shippable
	}
	sweepFP := sweepFingerprint(key, name, h.Runs, h.Seed)
	shardFP := shardFingerprint(sweepFP, shard)
	lo, hi := experiment.ShardRange(h.Runs, shard)

	journal := c.journalFor(sweepFP)
	if journal != nil {
		if agg, ok := journal.Lookup(shard, shardFP); ok {
			f, err := experiment.DecodeFolder(name, agg)
			if err != nil {
				fmt.Fprintf(c.cfg.Stderr, "fabric: journal replay of shard %d failed: %v\n", shard, err)
			} else {
				c.shardsReplayed.Add(1)
				if c.cfg.OnProgress != nil {
					c.cfg.OnProgress(hi - lo)
				}
				return f
			}
		}
	}

	payload, err := json.Marshal(jobSpec{
		Shard: shard, Runs: h.Runs, Seed: h.Seed,
		Folder: name, Fingerprint: shardFP, Opts: base,
	})
	if err != nil {
		return nil
	}

	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		w, err := c.acquire()
		if err != nil {
			fmt.Fprintf(c.cfg.Stderr, "fabric: cannot spawn worker: %v\n", err)
			return nil
		}
		if w == nil {
			return nil // coordinator closed
		}
		agg, err := c.runJob(w, payload)
		if err != nil {
			fmt.Fprintf(c.cfg.Stderr, "fabric: shard %d attempt %d/%d: %v\n", shard, attempt, c.cfg.MaxAttempts, err)
			c.discard(w)
			continue
		}
		c.release(w)
		f, err := experiment.DecodeFolder(name, agg)
		if err != nil {
			fmt.Fprintf(c.cfg.Stderr, "fabric: shard %d result undecodable: %v\n", shard, err)
			return nil
		}
		if journal != nil {
			if err := journal.Append(shard, shardFP, agg); err != nil {
				fmt.Fprintf(c.cfg.Stderr, "fabric: journaling shard %d failed: %v\n", shard, err)
			}
		}
		c.shardsRemote.Add(1)
		return f
	}
	fmt.Fprintf(c.cfg.Stderr, "fabric: shard %d exhausted %d attempts; folding in-process\n", shard, c.cfg.MaxAttempts)
	return nil
}

// runJob sends one job to a worker and waits for its result, treating
// progress frames as liveness: the deadline resets on every one, so a
// slow shard survives but a hung or dead worker is detected.
func (c *Coordinator) runJob(w *worker, payload []byte) ([]byte, error) {
	if err := writeFrame(w.stdin, msgJob, payload); err != nil {
		return nil, fmt.Errorf("sending job: %w", err)
	}
	timer := time.NewTimer(c.cfg.ShardTimeout)
	defer timer.Stop()
	for {
		select {
		case fr, ok := <-w.frames:
			if !ok {
				if err := w.readError(); err != nil {
					return nil, fmt.Errorf("worker exited: %w", err)
				}
				return nil, fmt.Errorf("worker exited")
			}
			switch fr.typ {
			case msgProgress:
				var p progressMsg
				if json.Unmarshal(fr.payload, &p) == nil && c.cfg.OnProgress != nil {
					c.cfg.OnProgress(p.Runs)
				}
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(c.cfg.ShardTimeout)
			case msgResult:
				var res shardResult
				if err := json.Unmarshal(fr.payload, &res); err != nil {
					return nil, fmt.Errorf("bad result payload: %w", err)
				}
				return res.Agg, nil
			case msgError:
				var em errorMsg
				_ = json.Unmarshal(fr.payload, &em)
				return nil, fmt.Errorf("worker reported: %s", em.Msg)
			}
		case <-timer.C:
			return nil, fmt.Errorf("no progress for %v (hung worker?)", c.cfg.ShardTimeout)
		}
	}
}

// acquire takes a pool token, spawning a worker if the token is nil.
// Returns (nil, nil) when the coordinator is closed.
func (c *Coordinator) acquire() (*worker, error) {
	w := <-c.slots
	if w != nil {
		return w, nil
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		c.slots <- nil
		return nil, nil
	}
	w, err := c.spawn()
	if err != nil {
		c.slots <- nil // return the spawn right; another attempt may succeed
		return nil, err
	}
	return w, nil
}

// release returns a healthy worker to the pool.
func (c *Coordinator) release(w *worker) {
	c.slots <- w
}

// discard kills a misbehaving worker and returns its slot as a spawn
// token, so the next acquire replaces it.
func (c *Coordinator) discard(w *worker) {
	c.kill(w)
	c.respawns.Add(1)
	c.slots <- nil
}

// spawn starts one worker process and its frame-reader goroutine.
func (c *Coordinator) spawn() (*worker, error) {
	cmd := exec.Command(c.cfg.WorkerCmd[0], c.cfg.WorkerCmd[1:]...)
	cmd.Env = append(os.Environ(), c.cfg.WorkerEnv...)
	cmd.Stderr = c.cfg.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, stdin: stdin, frames: make(chan frame, 64)}
	go func() {
		for {
			fr, err := readFrame(stdout)
			if err != nil {
				if err != io.EOF {
					w.readErrMu.Lock()
					w.readErr = err
					w.readErrMu.Unlock()
				}
				close(w.frames)
				return
			}
			w.frames <- fr
		}
	}()
	c.mu.Lock()
	c.live[w] = true
	c.mu.Unlock()
	return w, nil
}

// kill tears one worker down: close its stdin, kill the process, drain
// the frame channel (unblocking the reader goroutine), and reap it.
func (c *Coordinator) kill(w *worker) {
	c.mu.Lock()
	delete(c.live, w)
	c.mu.Unlock()
	w.stdin.Close()
	if w.cmd.Process != nil {
		_ = w.cmd.Process.Kill()
	}
	for range w.frames {
	}
	_ = w.cmd.Wait()
}

// Close shuts the pool down: live workers are killed (they hold no
// unjournaled state — results are journaled as they land) and journals
// are closed. Safe to call once per coordinator.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	workers := make([]*worker, 0, len(c.live))
	for w := range c.live {
		workers = append(workers, w)
	}
	journals := make([]*Journal, 0, len(c.journals))
	for _, j := range c.journals {
		if j != nil {
			journals = append(journals, j)
		}
	}
	c.mu.Unlock()
	for _, w := range workers {
		c.kill(w)
	}
	var firstErr error
	for _, j := range journals {
		if err := j.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
