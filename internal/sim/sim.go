// Package sim is a deterministic virtual-time discrete-event simulator for
// asynchronous message-passing protocols.
//
// It stands in for the paper's two physical testbeds:
//
//   - the geo-distributed AWS deployment (latency-dominated), modelled by a
//     WAN latency matrix over eight regions with jitter, and
//   - the Raspberry-Pi CPS testbed (bandwidth- and compute-dominated),
//     modelled by a LAN latency, a constrained per-node uplink, and a CPU
//     cost model with Raspberry-Pi-class constants.
//
// Protocols implement node.Process and are driven by the simulator without
// knowing they are being simulated. All randomness flows from a single seed,
// so every experiment is reproducible.
//
// The event loop is built for sweep throughput: the pending-delivery queue
// is a calendar queue (calendar.go) whose bucket width is the latency
// model's floor, so a bucket is appended to in O(1), sorted once when the
// loop reaches it and then drained in one linear pass, instead of every
// event walking a global heap that at n=1000 holds a million entries.
// Per-node bookkeeping lives in one contiguous nodeState slab (one cache
// line of state per node instead of three parallel slices), each node's
// Env is allocated once per run, and a delivery is dispatched by a direct
// Deliver call with no per-event closure. A session-scoped caller can
// reuse the queue and per-node bookkeeping across runs via Scratch. The
// queue pops in exactly the (time, sequence) total order of the original
// container/heap implementation, so none of this changes a single
// scheduled delivery: fixed-seed runs are byte-identical to it (pinned by
// bench.TestSimGoldenByteIdentity and, at n=400, bench.TestSimGoldenScale).
//
// An opt-in conservative-window parallel mode (WithParallelWindow) shards
// the nodes across a worker pool and executes each minimum-network-delay
// window of causally independent events concurrently; see parallel.go.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"delphi/internal/node"
	"delphi/internal/obs"
)

// event is a message delivery scheduled at a virtual time. Events are
// stored by value in the runner's queue; the node IDs are 32 bits wide so
// an event fills 40 bytes.
type event struct {
	at   time.Duration
	seq  uint64 // tie-breaker for determinism
	from int32
	to   int32
	msg  node.Message
}

// before reports whether e is scheduled strictly before o. seq is unique,
// so this is a total order and a queue's pop sequence is independent of
// its internal layout.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is an inlined 4-ary min-heap of events ordered by (at, seq).
// It holds the calendar's beyond-horizon overflow and the sequential
// queue's pushes into the bucket being drained — both small — and is the
// reference order the sequential queue is tested against. The value
// layout and the manual sift loops keep heap maintenance allocation-free.
type eventHeap []event

// push adds e to the heap.
func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // release the message reference
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	// Sift the former tail down from the root, always descending into the
	// smallest of up to four children.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return top
}

// nodeState is one node's hot bookkeeping, packed into a single slab entry
// so a delivery touches one cache line of per-node state instead of three
// parallel slices. sendSeq is used only by the parallel mode (per-sender
// sequence numbers keep event ordering independent of shard count).
type nodeState struct {
	busyUntil time.Duration
	// uplinkFree tracks when the node's uplink next idles (bandwidth
	// serialization).
	uplinkFree time.Duration
	sendSeq    uint64
	halted     bool
}

// LatencyModel samples one-way network latency between two nodes.
type LatencyModel interface {
	// Latency returns the propagation delay from one node to another.
	Latency(from, to node.ID, rng *rand.Rand) time.Duration
}

// MinLatencyModel is implemented by latency models that can declare a hard
// lower bound on every latency they will ever sample. The parallel runner
// derives its conservative-window lookahead from this floor: events less
// than one floor apart are causally independent across nodes. A model whose
// MinLatency overstates the true minimum makes the parallel runner fail
// loudly on the first violation rather than silently diverge.
type MinLatencyModel interface {
	MinLatency() time.Duration
}

// CostModel converts abstract compute costs into virtual CPU time.
type CostModel struct {
	// PerMessage is the fixed cost of receiving and dispatching a message.
	PerMessage time.Duration
	// PerByte is the per-byte serialization/MAC cost.
	PerByte time.Duration
	// Hash is the cost of one symmetric-crypto operation (SHA-256/HMAC).
	Hash time.Duration
	// SigVerify is the cost of one signature verification.
	SigVerify time.Duration
	// SigSign is the cost of one signing operation.
	SigSign time.Duration
	// Pairing is the cost of one pairing-equivalent operation.
	Pairing time.Duration
	// Contention multiplies all compute costs; used to model several
	// protocol processes sharing one device (the CPS testbed runs ~11
	// processes per 4-core Raspberry Pi at n=169).
	Contention float64
}

// Cost returns the virtual CPU time for c.
func (m CostModel) Cost(c node.ComputeCost) time.Duration {
	d := time.Duration(c.Hashes)*m.Hash +
		time.Duration(c.SigVerifies)*m.SigVerify +
		time.Duration(c.SigSigns)*m.SigSign +
		time.Duration(c.Pairings)*m.Pairing +
		time.Duration(c.Bytes)*m.PerByte
	if m.Contention > 0 {
		d = time.Duration(float64(d) * m.Contention)
	}
	return d
}

// messageCost returns the baseline cost of receiving one message of the
// given size: one MAC verification over its bytes plus dispatch overhead.
func (m CostModel) messageCost(size int) time.Duration {
	d := m.PerMessage + m.Hash + time.Duration(size)*m.PerByte
	if m.Contention > 0 {
		d = time.Duration(float64(d) * m.Contention)
	}
	return d
}

// Environment bundles the network and compute characteristics of a testbed.
type Environment struct {
	// Name labels the environment in reports ("aws", "cps").
	Name string
	// Latency is the propagation-delay model.
	Latency LatencyModel
	// UplinkBytesPerSec bounds each node's outgoing bandwidth. Zero means
	// unlimited.
	UplinkBytesPerSec float64
	// Cost is the CPU cost model.
	Cost CostModel
	// MACBytes is the per-message authentication overhead added to the
	// wire size (HMAC-SHA256 tag).
	MACBytes int
}

// NodeStats aggregates per-node accounting.
type NodeStats struct {
	// MsgsSent and BytesSent count outgoing traffic (MAC included).
	MsgsSent  int
	BytesSent int64
	// MsgsRecv counts processed deliveries.
	MsgsRecv int
	// Compute accumulates the node's explicitly charged crypto/compute
	// work (signature counts feed the oracle-protocol comparisons).
	Compute node.ComputeCost
	// Output holds everything the node reported via Env.Output.
	Output []any
	// OutputAt is the virtual time of the last Output call.
	OutputAt time.Duration
	// Halted reports whether the process called Halt.
	Halted bool
	// HaltedAt is the virtual time of the Halt call.
	HaltedAt time.Duration
}

// Result summarises one simulation run.
type Result struct {
	// Stats holds per-node accounting, indexed by node ID.
	Stats []NodeStats
	// Time is the virtual time when the run ended.
	Time time.Duration
	// Events is the number of deliveries processed.
	Events int
	// TotalBytes is the sum of bytes sent by all nodes.
	TotalBytes int64
	// TotalMsgs is the sum of messages sent by all nodes.
	TotalMsgs int
}

// LatestHonestOutput returns the largest OutputAt over the given honest
// nodes; it is the protocol's completion latency.
func (r *Result) LatestHonestOutput(honest []node.ID) time.Duration {
	var mx time.Duration
	for _, id := range honest {
		if s := r.Stats[id]; len(s.Output) > 0 && s.OutputAt > mx {
			mx = s.OutputAt
		}
	}
	return mx
}

// Outputs collects the last output value of each listed node, skipping
// nodes that produced none.
func (r *Result) Outputs(ids []node.ID) []any {
	out := make([]any, 0, len(ids))
	for _, id := range ids {
		if s := r.Stats[id]; len(s.Output) > 0 {
			out = append(out, s.Output[len(s.Output)-1])
		}
	}
	return out
}

// DelayRule lets an adversarial scheduler inject extra delay on selected
// links/messages. It is consulted for every message with the message's
// departure time (after the sender's compute and uplink serialization), so
// time-varying adversaries — transient partitions, delay bursts — can be
// expressed as pure functions. Return 0 for no extra delay. A rule must be
// deterministic in its arguments: the simulator's reproducibility guarantee
// extends to adversarial schedules only if the rule derives any randomness
// from its inputs (see internal/netadv for seed-deterministic presets).
type DelayRule func(at time.Duration, from, to node.ID, m node.Message) time.Duration

// Scratch is a Runner's reusable storage: the event queue's calendar ring
// and block pool (the freelist that replaces per-event allocation
// entirely), the per-node bookkeeping slab, and — for parallel runs — the
// per-shard calendars. A session-scoped caller hands the same Scratch to
// consecutive NewRunner calls so a thousand-trial sweep performs the
// growth allocations once instead of once per trial. A Scratch must not be
// shared by concurrently running Runners; reuse never changes results
// (every buffer is fully reset) — only allocation counts.
//
// Retained capacity is bounded, not monotone: after each run every backing
// array whose peak occupancy fit in an eighth of its capacity is halved
// (repeatedly, down to scratchShrinkMin), mirroring the runtime inbox-ring
// rule. A single n=1000+ trial in a mixed matrix therefore stops pinning
// its high-water storage once the sweep returns to paper-scale cells, while
// steady-state sweeps sit inside the 8x hysteresis band and never thrash.
type Scratch struct {
	queue   seqQueue
	nodes   []nodeState
	outMsgs []outMsg
	rng     *rand.Rand
	par     *parScratch
}

// scratchShrinkMin is the smallest backing array the post-run shrink pass
// will halve, mirroring the runtime inbox rule: shrink at ≤1/8 occupancy
// while growth doubles at full leaves a 4x hysteresis band.
const scratchShrinkMin = 128

// shrunkCap returns the capacity a retained backing array should keep given
// its peak occupancy this run.
func shrunkCap(c, peak int) int {
	for c >= scratchShrinkMin && peak <= c/8 {
		c /= 2
	}
	return c
}

// shrunk returns buf emptied, reallocated to a smaller backing array when
// this run's peak occupancy left it mostly idle.
func shrunk[T any](buf []T, peak int) []T {
	if c := shrunkCap(cap(buf), peak); c < cap(buf) {
		return make([]T, 0, c)
	}
	return buf[:0]
}

// retainedEvents reports the scratch's total retained event-slot capacity
// (sequential queue and parallel arenas); it is the shrink policy's
// observable for tests.
func (s *Scratch) retainedEvents() int {
	total := s.queue.retained()
	if s.par != nil {
		for _, sh := range s.par.shards {
			total += sh.cal.retained() + cap(sh.bucket) + cap(sh.sortBuf)
			for p := range sh.staged {
				for _, b := range sh.staged[p] {
					total += cap(b)
				}
			}
		}
	}
	return total
}

// Runner drives a set of processes to completion in virtual time.
type Runner struct {
	cfg   node.Config
	env   Environment
	rng   *rand.Rand
	procs []node.Process

	queue     seqQueue // pending deliveries, popped in (at, seq) order
	seq       uint64
	now       time.Duration
	nodes     []nodeState // per-node bookkeeping slab
	stats     []NodeStats
	live      int // processes neither nil nor halted; 0 ends the run
	envs      []simEnv
	delayRule DelayRule
	history   *History
	maxTime   time.Duration
	events    int
	scratch   *Scratch

	// Parallel-mode knobs (WithParallelWindow / WithLookahead) and the
	// materialised parallel runner; nil means the sequential loop.
	parWorkers int
	extraLook  time.Duration
	par        *parRunner

	// Hot-path constants hoisted out of the per-message dispatch: the
	// environment's MAC overhead and whether the uplink/delay-rule
	// branches are live at all.
	macBytes  int
	hasUplink bool

	// Observability (WithRecorder): one trace track per node on the
	// virtual clock. obsNow is the sequential loop's clock target; each
	// parallel shard keeps its own. tracks == nil means disabled.
	rec    *obs.Recorder
	tracks []*obs.Track
	obsNow int64

	// current delivery context
	curNode    node.ID
	curCharge  node.ComputeCost
	curOutMsgs []outMsg
	outPeak    int
	curOutput  bool
	curHalt    bool
	inStep     bool
}

type outMsg struct {
	to  node.ID
	msg node.Message
}

// Option configures a Runner.
type Option func(*Runner)

// WithDelayRule installs an adversarial scheduling rule.
func WithDelayRule(r DelayRule) Option {
	return func(rn *Runner) { rn.delayRule = r }
}

// WithHistory attaches a delivered-message history: the runner records
// every processed delivery into h and commits it on h's epoch grid, so a
// DelayRule holding the same *History (as a HistoryView) can adapt to
// observed traffic while remaining a pure function of the committed prefix.
// The history must be freshly created (NewHistory) per run and its node
// count must match the config. See history.go for the commit semantics.
func WithHistory(h *History) Option {
	return func(rn *Runner) { rn.history = h }
}

// WithMaxTime bounds the virtual runtime; the run stops once the clock
// passes the bound (protects tests against liveness bugs).
func WithMaxTime(d time.Duration) Option {
	return func(rn *Runner) { rn.maxTime = d }
}

// WithRecorder attaches an observability recorder: the runner creates one
// trace track per node driven by the virtual clock (timestamps are delivery
// times, so a fixed-seed run's trace is byte-identical across reruns — and,
// in parallel mode, across worker counts). A nil recorder leaves tracing
// disabled at zero cost. The recorder must not be shared by concurrently
// running Runners.
func WithRecorder(rec *obs.Recorder) Option {
	return func(rn *Runner) { rn.rec = rec }
}

// WithScratch reuses the storage in s across runs; see Scratch.
func WithScratch(s *Scratch) Option {
	return func(rn *Runner) { rn.scratch = s }
}

// WithParallelWindow enables conservative-window parallel execution on a
// pool of `workers` shard workers. The runner partitions the nodes into
// contiguous shards, derives a lookahead bound L from the environment's
// minimum link delay (plus any WithLookahead hint), and executes each
// [T, T+L) window of events concurrently — events inside one lookahead
// window are causally independent across nodes, the classic conservative
// PDES argument. See Runner.Run and README "Parallel simulation" for which
// guarantees survive: parallel runs are deterministic (byte-identical
// across reruns AND across worker counts), but follow a different
// tie-breaking schedule and RNG stream split than the sequential runner, so
// sequential-vs-parallel agreement is δ-window-statistical, not
// byte-identical. workers ≤ 0 keeps the sequential loop.
func WithParallelWindow(workers int) Option {
	return func(rn *Runner) { rn.parWorkers = workers }
}

// WithLookahead declares that the installed DelayRule adds at least `extra`
// delay to every message, widening the parallel mode's lookahead window to
// (minimum link delay + extra). The hint is a promise, not a measurement:
// if any message violates it, the parallel runner detects the causality
// violation (an event scheduled inside a committed window) and panics
// rather than silently diverging. Sequential runs ignore the hint.
func WithLookahead(extra time.Duration) Option {
	return func(rn *Runner) { rn.extraLook = extra }
}

// resetNodes returns buf zeroed and resized to n, reusing its backing
// array when large enough.
func resetNodes(buf []nodeState, n int) []nodeState {
	if cap(buf) < n {
		return make([]nodeState, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// NewRunner creates a runner for the given processes. procs[i] runs as node
// i; entries may be honest protocols or Byzantine behaviours, and nil
// entries model crashed (mute) nodes.
func NewRunner(cfg node.Config, env Environment, seed int64, procs []node.Process, opts ...Option) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(procs) != cfg.N {
		return nil, fmt.Errorf("sim: have %d processes for n=%d", len(procs), cfg.N)
	}
	r := &Runner{
		cfg:       cfg,
		env:       env,
		procs:     procs,
		stats:     make([]NodeStats, cfg.N),
		maxTime:   30 * time.Minute,
		macBytes:  env.MACBytes,
		hasUplink: env.UplinkBytesPerSec > 0,
	}
	for _, o := range opts {
		o(r)
	}
	if s := r.scratch; s != nil {
		// Adopt the scratch buffers; Run hands them back (grown) when the
		// run completes. Stats and envs are never pooled: Result escapes
		// with the stats, and processes may retain their Env beyond the run.
		r.queue = s.queue
		r.nodes = resetNodes(s.nodes, cfg.N)
		r.curOutMsgs = s.outMsgs[:0]
		if s.rng != nil {
			r.rng = s.rng
			r.rng.Seed(seed)
		}
	}
	if r.nodes == nil {
		r.nodes = make([]nodeState, cfg.N)
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(seed))
		if r.scratch != nil {
			r.scratch.rng = r.rng
		}
	}
	for _, p := range procs {
		if p != nil {
			r.live++
		}
	}
	if r.history != nil && r.history.n != cfg.N {
		return nil, fmt.Errorf("sim: history has n=%d, config has n=%d", r.history.n, cfg.N)
	}
	if r.parWorkers > 0 {
		if err := r.setupParallel(seed); err != nil {
			return nil, err
		}
		return r, nil
	}
	r.queue.reset(bucketWidth(env.Latency))
	r.envs = make([]simEnv, cfg.N)
	for i := range r.envs {
		r.envs[i] = simEnv{r: r, id: node.ID(i)}
	}
	if r.rec != nil {
		r.tracks = make([]*obs.Track, cfg.N)
		for i := range r.tracks {
			r.tracks[i] = r.rec.NewTrack(fmt.Sprintf("node-%d", i), &r.obsNow)
		}
	}
	return r, nil
}

// simEnv is the node.Env implementation handed to each process. One is
// allocated per node per run (never per event).
type simEnv struct {
	r  *Runner
	id node.ID
}

func (e *simEnv) Self() node.ID { return e.id }
func (e *simEnv) N() int        { return e.r.cfg.N }
func (e *simEnv) F() int        { return e.r.cfg.F }

// Track implements node.Tracing: the node's virtual-clock trace track, or
// nil when no recorder is attached.
func (e *simEnv) Track() *obs.Track {
	if e.r.tracks == nil {
		return nil
	}
	return e.r.tracks[e.id]
}

func (e *simEnv) Send(to node.ID, m node.Message) {
	e.r.stageSend(e.id, to, m)
}

func (e *simEnv) Broadcast(m node.Message) {
	for i := 0; i < e.r.cfg.N; i++ {
		e.r.stageSend(e.id, node.ID(i), m)
	}
}

func (e *simEnv) Output(v any) {
	s := &e.r.stats[e.id]
	s.Output = append(s.Output, v)
	if e.r.inStep && e.id == e.r.curNode {
		e.r.curOutput = true
	}
}

func (e *simEnv) Halt() {
	if !e.r.nodes[e.id].halted {
		e.r.nodes[e.id].halted = true
		e.r.stats[e.id].Halted = true
		e.r.live--
		if e.r.inStep && e.id == e.r.curNode {
			e.r.curHalt = true
		}
	}
}

func (e *simEnv) ChargeCompute(c node.ComputeCost) {
	if e.r.inStep && e.id == e.r.curNode {
		e.r.curCharge = e.r.curCharge.Add(c)
	}
}

// stageSend buffers an outgoing message; it is flushed (with bandwidth and
// latency applied) once the current processing step completes.
func (r *Runner) stageSend(from, to node.ID, m node.Message) {
	if r.inStep && from == r.curNode {
		r.curOutMsgs = append(r.curOutMsgs, outMsg{to: to, msg: m})
		return
	}
	// Sends outside a step (shouldn't happen for well-behaved processes)
	// are dispatched at the node's current busy time.
	r.dispatch(from, to, m, r.nodes[from].busyUntil)
}

// dispatch applies bandwidth serialization and latency and enqueues the
// delivery event.
func (r *Runner) dispatch(from, to node.ID, m node.Message, ready time.Duration) {
	size := m.WireSize() + r.macBytes
	ns := &r.nodes[from]
	start := ready
	if ns.uplinkFree > start {
		start = ns.uplinkFree
	}
	var tx time.Duration
	if r.hasUplink {
		tx = time.Duration(float64(size) / r.env.UplinkBytesPerSec * float64(time.Second))
	}
	ns.uplinkFree = start + tx
	lat := r.env.Latency.Latency(from, to, r.rng)
	at := start + tx + lat
	if r.delayRule != nil {
		at += r.delayRule(start+tx, from, to, m)
	}
	r.seq++
	r.queue.push(event{at: at, seq: r.seq, from: int32(from), to: int32(to), msg: m})
	st := &r.stats[from]
	st.MsgsSent++
	st.BytesSent += int64(size)
}

// beginStep opens node id's processing step. The caller invokes the
// process directly (Init or Deliver) and then closes the step with endStep;
// splitting the step this way keeps the hot loop free of per-event closures.
func (r *Runner) beginStep(id node.ID) {
	r.inStep = true
	r.curNode = id
	r.curCharge = node.ComputeCost{}
	r.curOutMsgs = r.curOutMsgs[:0]
	r.curOutput = false
	r.curHalt = false
}

// endStep charges the step's compute starting at virtual time t (plus the
// base delivery cost) and flushes staged sends.
func (r *Runner) endStep(id node.ID, t, base time.Duration) {
	ns := &r.nodes[id]
	start := t
	if ns.busyUntil > start {
		start = ns.busyUntil
	}
	dur := base + r.env.Cost.Cost(r.curCharge)
	r.stats[id].Compute = r.stats[id].Compute.Add(r.curCharge)
	ns.busyUntil = start + dur
	if r.curOutput {
		r.stats[id].OutputAt = ns.busyUntil
	}
	if r.curHalt {
		r.stats[id].HaltedAt = ns.busyUntil
	}
	// Flush sends: they leave the node once processing completes.
	if len(r.curOutMsgs) > r.outPeak {
		r.outPeak = len(r.curOutMsgs)
	}
	for _, om := range r.curOutMsgs {
		r.dispatch(id, om.to, om.msg, ns.busyUntil)
	}
	r.curOutMsgs = r.curOutMsgs[:0]
	r.inStep = false
}

// deliver processes one delivery event; it reports false when the run is
// over (time bound hit or every live process halted).
func (r *Runner) deliver(e *event) bool {
	r.now = e.at
	r.obsNow = int64(e.at)
	if r.now > r.maxTime {
		return false
	}
	from, to := node.ID(e.from), node.ID(e.to)
	if r.nodes[to].halted || r.procs[to] == nil {
		return true
	}
	if h := r.history; h != nil {
		h.observe(e.at)
		h.record(from, to)
	}
	r.events++
	r.stats[to].MsgsRecv++
	size := e.msg.WireSize() + r.macBytes
	r.beginStep(to)
	r.procs[to].Deliver(from, e.msg)
	r.endStep(to, e.at, r.env.Cost.messageCost(size))
	return r.live > 0
}

// Run executes the simulation until the event queue drains, all processes
// halt, or the virtual-time bound is hit.
func (r *Runner) Run() *Result {
	if r.par != nil {
		r.runParallel()
	} else {
		// Initialise all processes at t=0.
		for i, p := range r.procs {
			if p == nil {
				continue
			}
			r.beginStep(node.ID(i))
			p.Init(&r.envs[i])
			r.endStep(node.ID(i), 0, 0)
		}
		for {
			e, ok := r.queue.pop()
			if !ok || !r.deliver(&e) {
				break
			}
		}
	}
	if n := r.queue.cal.spills; r.par == nil && n > 0 {
		overflowSpills.Add(int64(n))
	}
	res := &Result{Stats: r.stats, Time: r.now, Events: r.events}
	for i := range r.stats {
		res.TotalBytes += r.stats[i].BytesSent
		res.TotalMsgs += r.stats[i].MsgsSent
	}
	if r.rec != nil {
		// Whole-run totals for the metrics registry: pure schedule facts, so
		// they are identical across reruns (and, in parallel mode, across
		// worker counts — unlike the per-shard sim.shard.* diagnostics).
		r.rec.Counter("sim.events").Add(int64(res.Events))
		r.rec.Counter("sim.messages").Add(int64(res.TotalMsgs))
		r.rec.Counter("sim.bytes").Add(res.TotalBytes)
		r.rec.Gauge("sim.virtual_ns").Max(int64(r.now))
	}
	if s := r.scratch; s != nil {
		// Hand the buffers back for the next run, shrunk where this run's
		// peak occupancy left them mostly idle. Remaining events and the
		// staged-send buffer's capacity region hold message references;
		// drop them so the scratch retains only bare storage.
		clear(r.curOutMsgs[:cap(r.curOutMsgs)])
		s.nodes = shrunk(r.nodes, r.cfg.N)
		s.outMsgs = shrunk(r.curOutMsgs, r.outPeak)
		if r.par != nil {
			r.par.handback(s)
		} else {
			r.queue.handback()
			s.queue = r.queue
		}
	}
	return res
}
