package proc

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Options configures a Coordinator. The zero value of every field selects
// a sensible default; Workers defaults to 1.
type Options struct {
	// Workers is the number of worker processes (ranks).
	Workers int
	// Bin is the worker executable; empty re-execs the running binary
	// (which must call MaybeWorker early — parsim and the test binaries
	// do).
	Bin string
	// Args are extra arguments passed to the worker binary.
	Args []string
	// HeartbeatInterval is the workers' beat period.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the coordinator's patience: the deadline for a
	// merge response (and for a respawned worker's hello). A silent worker
	// past this deadline is declared dead, killed and respawned.
	HeartbeatTimeout time.Duration
	// RespawnMax is the per-rank respawn budget; exceeding it turns the
	// rank's failures permanent.
	RespawnMax int
	// RespawnBackoff is the initial real-time respawn delay, doubling per
	// consecutive respawn of the same rank and capped at respawnCap. (The
	// model-time recovery charge is the engine RetryPolicy's job; this
	// only paces process churn.)
	RespawnBackoff time.Duration
	// LogDir receives per-rank worker stderr logs (worker-<rank>.log,
	// appended across respawns); empty logs into the coordinator's temp
	// directory.
	LogDir string
}

const (
	defaultHeartbeatInterval = 25 * time.Millisecond
	defaultHeartbeatTimeout  = 2 * time.Second
	defaultRespawnMax        = 3
	defaultRespawnBackoff    = 10 * time.Millisecond
	respawnCap               = 500 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = defaultHeartbeatInterval
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = defaultHeartbeatTimeout
	}
	if o.RespawnMax <= 0 {
		o.RespawnMax = defaultRespawnMax
	}
	if o.RespawnBackoff <= 0 {
		o.RespawnBackoff = defaultRespawnBackoff
	}
	return o
}

// Stats counts the coordinator's physical events; read it after a run
// for diagnostics (it is not part of the deterministic model state).
type Stats struct {
	// Spawns counts worker process launches (initial spawns included).
	Spawns int
	// Respawns counts replacement launches after a worker death.
	Respawns int
	// Kills counts SIGKILLs delivered by Realize (crash verdicts).
	Kills int
	// Drops and Dups count request frames suppressed / duplicated by
	// Realize (message-channel verdicts).
	Drops, Dups int
}

// workerProc is one rank's live process: connection, response stream and
// liveness state. A dead workerProc is replaced wholesale by respawn.
type workerProc struct {
	rank int
	cmd  *exec.Cmd
	conn net.Conn
	// frames delivers merge responses (payload copies) from the reader
	// goroutine; beats are filtered into lastBeat instead.
	frames chan []byte
	// dead closes when the reader goroutine loses the connection.
	dead     chan struct{}
	deadOnce sync.Once
	// lastBeat is the UnixNano of the latest heartbeat.
	lastBeat atomic.Int64
}

func (w *workerProc) markDead() { w.deadOnce.Do(func() { close(w.dead) }) }

// Coordinator is the proc backend: engine.Backend plus
// engine.FaultRealizer. Merge calls arrive on the machine's coordinating
// goroutine; Close may race them from a watchdog and is safe to call
// concurrently and repeatedly.
type Coordinator struct {
	opt    Options
	dir    string
	socket string
	ln     net.Listener
	closed atomic.Bool

	// hello delivers handshaken connections per rank (buffer 1; stale
	// connections for a rank that is not being spawned are discarded).
	hello []chan net.Conn

	// The fields below are owned by the coordinating goroutine (merges,
	// Realize) except under Close, which takes mu to kill everything.
	mu      sync.Mutex
	workers []*workerProc

	// respawns/backoff track the per-rank respawn budget and current
	// real-time delay.
	respawns []int
	backoff  []time.Duration

	// dropNext/dupNext are armed by Realize: the next request frame to
	// that rank is suppressed (a real lost frame) or sent twice.
	dropNext, dupNext []bool

	// live holds the barrier's workers, rank-ordered, between shipping
	// the requests and collecting the responses.
	live  []*workerProc
	req   reqEnc
	stats Stats
}

// New starts a coordinator: it opens the socket, spawns opt.Workers
// worker processes and waits for their hellos. On any startup failure
// everything started so far is torn down.
func New(opt Options) (*Coordinator, error) {
	opt = opt.withDefaults()
	dir, err := os.MkdirTemp("", "parsim-proc-*")
	if err != nil {
		return nil, fmt.Errorf("proc: %w", err)
	}
	socket := filepath.Join(dir, "coord.sock")
	ln, err := net.Listen("unix", socket)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("proc: listen: %w", err)
	}
	if opt.LogDir == "" {
		opt.LogDir = dir
	}
	c := &Coordinator{
		opt:      opt,
		dir:      dir,
		socket:   socket,
		ln:       ln,
		hello:    make([]chan net.Conn, opt.Workers),
		workers:  make([]*workerProc, opt.Workers),
		respawns: make([]int, opt.Workers),
		backoff:  make([]time.Duration, opt.Workers),
		dropNext: make([]bool, opt.Workers),
		dupNext:  make([]bool, opt.Workers),
		live:     make([]*workerProc, opt.Workers),
	}
	for i := range c.hello {
		c.hello[i] = make(chan net.Conn, 1)
	}
	go c.acceptLoop()
	for rank := 0; rank < opt.Workers; rank++ {
		if err := c.spawn(rank); err != nil {
			c.Close()
			return nil, fmt.Errorf("proc: spawn worker %d: %w", rank, err)
		}
	}
	return c, nil
}

// Name implements engine.Backend.
func (c *Coordinator) Name() string { return "proc" }

// Stats returns the physical-event counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// acceptLoop routes incoming connections: each must open with a hello
// frame naming its rank, then is delivered to the rank's hello channel
// (spawn waits there). Connections that fail the handshake, name a bad
// rank, or arrive while nobody is waiting are dropped.
func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			conn.SetReadDeadline(time.Now().Add(c.opt.HeartbeatTimeout)) //lint:wallclock-ok real transport handshake deadline, not model time
			payload, _, err := readFrame(conn, nil)
			conn.SetReadDeadline(time.Time{})
			rank := -1
			if err == nil {
				rank, err = decodeRank(payload, fHello)
			}
			if err != nil || rank < 0 || rank >= len(c.hello) {
				conn.Close()
				return
			}
			select {
			case c.hello[rank] <- conn:
			default:
				conn.Close()
			}
		}(conn)
	}
}

// spawn launches rank's worker process and waits for its hello. The
// caller owns the rank's slot (coordinating goroutine or New).
func (c *Coordinator) spawn(rank int) error {
	if c.closed.Load() {
		return fmt.Errorf("coordinator closed")
	}
	// Drain a hello that arrived while nobody was waiting (the buffer
	// holds one): it belongs to an earlier, possibly dead process, and
	// adopting it here would hand the new slot a stale connection.
	select {
	case stale := <-c.hello[rank]:
		stale.Close()
	default:
	}
	bin := c.opt.Bin
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("resolve worker binary: %w", err)
		}
		bin = exe
	}
	logf, err := os.OpenFile(
		filepath.Join(c.opt.LogDir, fmt.Sprintf("worker-%d.log", rank)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("worker log: %w", err)
	}
	cmd := exec.Command(bin, c.opt.Args...)
	cmd.Env = append(os.Environ(),
		EnvSocket+"="+c.socket,
		EnvRank+"="+strconv.Itoa(rank),
		EnvBeat+"="+c.opt.HeartbeatInterval.String(),
	)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start: %w", err)
	}
	logf.Close()
	go cmd.Wait() // reap; exit state is not consulted

	select {
	case conn := <-c.hello[rank]:
		w := &workerProc{
			rank: rank, cmd: cmd, conn: conn,
			frames: make(chan []byte, 8),
			dead:   make(chan struct{}),
		}
		w.lastBeat.Store(time.Now().UnixNano()) //lint:wallclock-ok real transport liveness clock, not model time
		go c.readLoop(w)
		c.mu.Lock()
		c.workers[rank] = w
		c.stats.Spawns++
		closed := c.closed.Load()
		c.mu.Unlock()
		if closed {
			c.killWorker(w)
			return fmt.Errorf("coordinator closed")
		}
		return nil
	case <-time.After(c.opt.HeartbeatTimeout): //lint:wallclock-ok real transport handshake deadline, not model time
		cmd.Process.Kill()
		return fmt.Errorf("no hello within %v", c.opt.HeartbeatTimeout)
	}
}

// readLoop drains one worker connection: heartbeats update lastBeat,
// responses copy into the frames channel, connection loss marks the
// worker dead.
func (c *Coordinator) readLoop(w *workerProc) {
	var buf []byte
	for {
		payload, nbuf, err := readFrame(w.conn, buf)
		if err != nil {
			w.markDead()
			return
		}
		buf = nbuf
		if payload[0] == fBeat {
			w.lastBeat.Store(time.Now().UnixNano()) //lint:wallclock-ok real transport liveness clock, not model time
			continue
		}
		select {
		case w.frames <- append([]byte(nil), payload...):
		case <-w.dead:
			return
		}
	}
}

// killWorker force-kills a worker process and closes its connection.
func (c *Coordinator) killWorker(w *workerProc) {
	if w == nil {
		return
	}
	if w.cmd != nil && w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	if w.conn != nil {
		w.conn.Close()
	}
	w.markDead()
}

// transient and permanent wrap a rank failure as the engine's transport
// error classes.
func (c *Coordinator) transient(rank int, err error) error {
	return &engine.TransportError{Backend: "proc", Rank: rank, Err: err}
}

func (c *Coordinator) permanent(rank int, err error) error {
	return &engine.TransportError{Backend: "proc", Rank: rank, Permanent: true, Err: err}
}

// reviveRank replaces a dead rank's process under the respawn budget,
// pacing consecutive respawns with capped real-time exponential backoff.
// It returns the transport error the failed merge surfaces as: transient
// when a replacement is up (the engine retries the phase), permanent when
// the budget is exhausted or the coordinator is closed.
func (c *Coordinator) reviveRank(rank int, cause error) error {
	c.mu.Lock()
	w := c.workers[rank]
	c.workers[rank] = nil
	c.mu.Unlock()
	c.killWorker(w)
	if c.closed.Load() {
		return c.permanent(rank, fmt.Errorf("coordinator closed (last error: %w)", cause))
	}
	if c.respawns[rank] >= c.opt.RespawnMax {
		return c.permanent(rank, fmt.Errorf("respawn budget (%d) exhausted: %w",
			c.opt.RespawnMax, cause))
	}
	c.respawns[rank]++
	c.mu.Lock()
	c.stats.Respawns++
	c.mu.Unlock()
	delay := c.backoff[rank]
	if delay <= 0 {
		delay = c.opt.RespawnBackoff
	}
	time.Sleep(delay)
	if next := delay * 2; next <= respawnCap {
		c.backoff[rank] = next
	} else {
		c.backoff[rank] = respawnCap
	}
	if err := c.spawn(rank); err != nil {
		return c.reviveRank(rank, fmt.Errorf("respawn: %w", err))
	}
	return c.transient(rank, cause)
}

// liveWorker returns rank's worker, respawning it first if it died
// between barriers. A successful proactive revival is not an error — no
// merge failed, so the barrier proceeds on the replacement (the revival
// still consumed respawn budget); only an exhausted budget or a closed
// coordinator surfaces.
func (c *Coordinator) liveWorker(rank int) (*workerProc, error) {
	c.mu.Lock()
	w := c.workers[rank]
	c.mu.Unlock()
	if w != nil {
		select {
		case <-w.dead:
		default:
			return w, nil
		}
	}
	err := c.reviveRank(rank, fmt.Errorf("worker process died between barriers"))
	var te *engine.TransportError
	if errors.As(err, &te) && te.Permanent {
		return nil, err
	}
	c.mu.Lock()
	w = c.workers[rank]
	c.mu.Unlock()
	if w == nil {
		return nil, c.permanent(rank, fmt.Errorf("worker unavailable"))
	}
	return w, nil
}

// await reads the response with header want from a worker, discarding
// stale frames (another frame type, or duplicate echoes of earlier
// attempts), within the heartbeat deadline, and returns its body. It is
// the only path from a response frame to its body. On deadline or
// connection loss it kills and revives the rank and returns the
// resulting transport error.
func (c *Coordinator) await(w *workerProc, want header) (body dec, err error) {
	timer := time.NewTimer(c.opt.HeartbeatTimeout)
	defer timer.Stop()
	for {
		select {
		case p := <-w.frames:
			var h header
			if h, body = response(p); h == want && body.err == nil {
				return body, nil
			}
		case <-w.dead:
			return body, c.reviveRank(w.rank, fmt.Errorf("connection lost awaiting response"))
		case <-timer.C:
			stale := time.Since(time.Unix(0, w.lastBeat.Load())) //lint:wallclock-ok real transport liveness measurement, not model time
			return body, c.reviveRank(w.rank, fmt.Errorf(
				"response deadline %v exceeded (last heartbeat %v ago)",
				c.opt.HeartbeatTimeout, stale.Round(time.Millisecond)))
		}
	}
}

// sendTo ships one request frame to rank, honouring armed drop/dup
// faults: a dropped frame is simply never written (the worker stays
// healthy and the response deadline expires), a duplicated frame is
// written twice (the stale second response is discarded by await's
// phase/attempt filter).
func (c *Coordinator) sendTo(w *workerProc, frame []byte) error {
	rank := w.rank
	if c.dropNext[rank] {
		c.dropNext[rank] = false
		c.mu.Lock()
		c.stats.Drops++
		c.mu.Unlock()
		return nil
	}
	n := 1
	if c.dupNext[rank] {
		c.dupNext[rank] = false
		c.mu.Lock()
		c.stats.Dups++
		c.mu.Unlock()
		n = 2
	}
	for i := 0; i < n; i++ {
		if err := writeFrame(w.conn, frame); err != nil {
			return c.reviveRank(rank, fmt.Errorf("send: %w", err))
		}
	}
	return nil
}

// ship sends every rank its request frame, rank-ordered and pipelined
// ahead of any response, and records the ranks' workers in c.live for
// the collection that follows.
func (c *Coordinator) ship(frames [][]byte) error {
	if c.closed.Load() {
		return c.permanent(-1, fmt.Errorf("coordinator closed"))
	}
	for rank := range c.live {
		w, err := c.liveWorker(rank)
		if err != nil {
			return err
		}
		c.live[rank] = w
		if err := c.sendTo(w, frames[rank]); err != nil {
			return err
		}
	}
	return nil
}

// MergeMem implements engine.Backend: one walk over the request columns
// encodes every rank's frame, the frames ship rank-ordered, and the
// per-rank statistics merge in rank order — contention maxima by max, the
// violating cell by smallest address.
func (c *Coordinator) MergeMem(req engine.MemMergeReq) (engine.MergeStats, error) {
	st := engine.MergeStats{Viol: -1}
	if err := c.ship(c.req.memReq(req, c.req.split(req.Cells, c.opt.Workers))); err != nil {
		return st, err
	}
	for rank, w := range c.live {
		body, err := c.await(w, header{fMemRes, req.Phase, req.Attempt})
		if err != nil {
			return st, err
		}
		rs, err := body.memRes()
		if err != nil {
			return st, c.reviveRank(rank, err)
		}
		st.KRead = max(st.KRead, rs.KRead)
		st.KWrite = max(st.KWrite, rs.KWrite)
		if rs.Viol >= 0 && (st.Viol < 0 || rs.Viol < st.Viol) {
			st.Viol = rs.Viol
		}
	}
	return st, nil
}

// MergeRoute implements engine.Backend for the routing barrier.
func (c *Coordinator) MergeRoute(req engine.RouteMergeReq) (engine.RouteStats, error) {
	var st engine.RouteStats
	if err := c.ship(c.req.routeReq(req, c.req.split(req.P, c.opt.Workers))); err != nil {
		return st, err
	}
	for rank, w := range c.live {
		body, err := c.await(w, header{fRouteRes, req.Phase, req.Attempt})
		if err != nil {
			return st, err
		}
		rs, err := body.routeRes()
		if err != nil {
			return st, c.reviveRank(rank, err)
		}
		st.HRecv = max(st.HRecv, rs.HRecv)
	}
	return st, nil
}

// Realize implements engine.FaultRealizer: injected verdicts echo as
// physical faults. A crash verdict SIGKILLs the victim processor's rank;
// a message-channel verdict arms a one-shot frame drop or duplication
// against the victim component's rank. Shared-memory transient verdicts
// have no physical analogue (cell corruption is the model's own echo).
// The model-level verdict remains the deterministic source of truth —
// the physical echo only exercises the transport's recovery machinery.
func (c *Coordinator) Realize(ic engine.InjectCtx, v engine.Verdict) {
	switch v.Class {
	case engine.FaultCrash:
		rank := v.Proc % c.opt.Workers
		if rank < 0 {
			rank += c.opt.Workers
		}
		c.mu.Lock()
		w := c.workers[rank]
		c.stats.Kills++
		c.mu.Unlock()
		c.killWorker(w)
	case engine.FaultTransient:
		if ic.Cells != 0 {
			return // memory fault: no transport echo
		}
		rank := v.Addr % c.opt.Workers
		if rank < 0 {
			rank += c.opt.Workers
		}
		if v.Drop {
			c.dropNext[rank] = true
		} else {
			c.dupNext[rank] = true
		}
	}
}

// Close implements engine.Backend: it shuts down every worker (clean
// shutdown frame, then kill), closes the listener and removes the
// socket directory. Close is idempotent and safe to call concurrently
// with merges — a merge in flight fails permanently and the machine
// poisons diagnosably.
func (c *Coordinator) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.mu.Lock()
	workers := append([]*workerProc(nil), c.workers...)
	c.mu.Unlock()
	var e enc
	frame := e.shutdown()
	for _, w := range workers {
		if w == nil {
			continue
		}
		writeFrame(w.conn, frame)
		c.killWorker(w)
	}
	c.ln.Close()
	// The socket directory is ours; caller-directed LogDirs live
	// elsewhere and keep their worker logs.
	return os.RemoveAll(c.dir)
}
