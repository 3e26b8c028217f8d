// Conservative-window parallel execution (WithParallelWindow).
//
// The classic conservative-PDES argument: if every message in the simulated
// network takes at least L (the lookahead — here the environment's minimum
// link delay plus any WithLookahead hint about the DelayRule), then all
// events in one virtual-time window [T, T+L) are causally independent
// across nodes — anything an event at time t generates lands at
// t + L ≥ T + L, beyond the window. The runner therefore partitions the
// nodes into contiguous shards, hands each shard to a worker, and executes
// one window per barrier: every worker merges the sends staged for it in
// the previous window, processes its slice of the current window, and
// stages its own sends for the next.
//
// Each shard keeps its pending events in its own calendar (calendar.go, the
// same structure the sequential queue uses) with one bucket per lookahead
// window: appends are O(1) into pooled blocks and a window's events are
// sorted and scanned in one linear pass. Events beyond the ring horizon
// (ringBuckets windows ahead — partition heals and Pareto jitter tails)
// wait in the calendar's overflow heap and drain back as the ring advances.
//
// Determinism: event order is the total order (to, at, seq) with per-sender
// sequence numbers, each node draws latency jitter from its own
// seed-derived RNG stream, and every worker observes the same global window
// sequence — so parallel runs are byte-identical across reruns AND across
// worker counts. They are NOT byte-identical to sequential runs, which
// share one RNG stream and one global sequence counter; sequential-vs-
// parallel agreement is the δ-window statistical kind (see
// bench.TestParallelWindowAgreement).
//
// Safety: a DelayRule that violates its WithLookahead promise would
// schedule an event inside a committed window. The stage path detects this
// (bucket index ≤ the window being processed) and the coordinator panics
// with the offending message's coordinates rather than silently diverging.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"delphi/internal/node"
	"delphi/internal/obs"
)

const (
	// ringBuckets is the calendar ring size in windows (power of two). At
	// the AWS floor (0.4 ms) the ring spans ~3.3 s of virtual time, beyond
	// the largest preset delay (jitter cap 3 s); farther events overflow.
	ringBuckets = 8192
	// seqShift packs per-sender sequence numbers as seq<<seqShift|sender,
	// bounding parallel runs to 2^seqShift nodes.
	seqShift   = 20
	maxParN    = 1 << seqShift
	maxWorkers = 64
)

// causalityViolation records an event scheduled inside a committed window —
// proof that the effective lookahead was narrower than declared.
type causalityViolation struct {
	at       time.Duration
	bucket   int64
	window   int64
	from, to node.ID
}

func (v *causalityViolation) String() string {
	return fmt.Sprintf("event %d->%d at %v (bucket %d) scheduled inside committed window %d; WithLookahead hint overstates the DelayRule's delay floor",
		v.from, v.to, v.at, v.bucket, v.window)
}

// sm64 is a splitmix64 rand.Source64; one per node gives each sender an
// independent, trivially reseedable jitter stream.
type sm64 struct{ s uint64 }

func (s *sm64) Uint64() uint64 {
	s.s += 0x9E3779B97F4A7C15
	z := s.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *sm64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *sm64) Seed(seed int64) { s.s = uint64(seed) }

// seedFor derives node i's RNG seed from the run seed.
func seedFor(seed int64, i int) uint64 {
	return uint64(seed) ^ (uint64(i)+1)*0xD1B54A32D192ED03
}

// winCmd instructs a worker to run one phase: k == 0 is process init,
// k ≥ 1 executes window k over calendar bucket `bucket`.
type winCmd struct {
	k      int64
	bucket int64
}

// parRunner owns the worker pool and per-run parallel state; it is rebuilt
// each run on top of the (possibly scratch-retained) shard arenas.
type parRunner struct {
	r       *Runner
	width   time.Duration // window width == lookahead
	workers int
	shards  []*shard
	shardOf []uint8 // node -> shard
	rands   []*rand.Rand
	srcs    []sm64
	work    []chan winCmd
	done    chan int
	closed  bool

	// Observability: the coordinator's "sim" track records one instant per
	// window (width and event count — both deterministic across worker
	// counts); the wall-clock barrier wait goes to the metrics registry
	// only, never the trace.
	simTrack *obs.Track
	obsNow   int64
	barrier  *obs.Histogram
}

// shard is one worker's slice of the simulation: a contiguous node range,
// its calendar queue, and double-buffered staging for cross-shard sends.
// All per-node state for nodes in [lo, hi) — the nodes slab, stats, RNG —
// is touched only by this shard's worker (sends from node i happen while
// shard(i) processes i), so workers share no mutable state outside the
// barrier-separated staging buffers.
type shard struct {
	pr     *parRunner
	id     int
	lo, hi int // node range [lo, hi)

	cal     calendar // pending events, one bucket per window
	bucket  []event  // the window's events as taken from cal
	sortBuf []event  // counting-sort scatter scratch (one bucket's worth)
	counts  []int32  // per-destination counts, len hi-lo

	// staged[k&1][dest] buffers sends made during window k; dest merges it
	// during window k+1 and the owner resets it during window k+2, so one
	// barrier per window suffices.
	staged      [2][][]event
	parity      int
	minStaged   int64 // min bucket staged this window (feeds next-window min)
	curBucket   int64 // bucket being processed; staging at ≤ this is a violation
	windowStart time.Duration

	// per-window report, read by the coordinator after the barrier
	nextB    int64
	halts    int
	viol     *causalityViolation
	panicVal any

	events int
	lastAt time.Duration

	// Per-shard pending history counts (WithHistory): folded into the
	// History by the coordinator at window barriers. Full length n — a
	// delivery's sender can live on any shard. nil when no history.
	histDelivered int64
	histSent      []int64
	histRecv      []int64

	// Observability: per-node tracks for this shard's node range, driven by
	// the shard's own virtual clock (single-writer: only this shard's worker
	// delivers to its nodes). nil when disabled.
	tracks []*obs.Track
	obsNow int64

	// retained-capacity peaks for the scratch shrink rule
	bucketPeak int
	stagedPeak int
	outPeak    int

	envs []parEnv

	// current delivery context (mirrors the sequential Runner's)
	curNode    node.ID
	curCharge  node.ComputeCost
	curOutMsgs []outMsg
	curOutput  bool
	curHalt    bool
	inStep     bool
}

// parScratch retains the parallel arenas across runs (inside Scratch).
// clean marks a completed handback; a run that panicked leaves it false so
// the next run rebuilds instead of adopting half-mutated arenas.
type parScratch struct {
	workers, n int
	clean      bool
	shards     []*shard
	shardOf    []uint8
	rands      []*rand.Rand
	srcs       []sm64
}

func newParScratch(workers, n int) *parScratch {
	ps := &parScratch{
		workers: workers,
		n:       n,
		shardOf: make([]uint8, n),
		srcs:    make([]sm64, n),
		rands:   make([]*rand.Rand, n),
	}
	for i := range ps.rands {
		ps.rands[i] = rand.New(&ps.srcs[i])
	}
	ps.shards = make([]*shard, workers)
	for s := 0; s < workers; s++ {
		lo, hi := s*n/workers, (s+1)*n/workers
		sh := &shard{
			id:     s,
			lo:     lo,
			hi:     hi,
			envs:   make([]parEnv, hi-lo),
			counts: make([]int32, hi-lo),
		}
		for p := range sh.staged {
			sh.staged[p] = make([][]event, workers)
		}
		for i := range sh.envs {
			sh.envs[i] = parEnv{sh: sh, id: node.ID(lo + i)}
		}
		ps.shards[s] = sh
		for i := lo; i < hi; i++ {
			ps.shardOf[i] = uint8(s)
		}
	}
	return ps
}

// setupParallel validates the parallel configuration and materialises the
// worker pool state; called from NewRunner when WithParallelWindow is set.
func (r *Runner) setupParallel(seed int64) error {
	n := r.cfg.N
	if n >= maxParN {
		return fmt.Errorf("sim: parallel mode supports at most %d nodes, got n=%d", maxParN-1, n)
	}
	ml, ok := r.env.Latency.(MinLatencyModel)
	if !ok {
		return fmt.Errorf("sim: parallel mode needs a latency model with a MinLatency floor; %T does not declare one", r.env.Latency)
	}
	if r.extraLook < 0 {
		return fmt.Errorf("sim: negative lookahead hint %v", r.extraLook)
	}
	if r.extraLook > 0 && r.delayRule == nil {
		return fmt.Errorf("sim: lookahead hint %v declared without a delay rule", r.extraLook)
	}
	width := ml.MinLatency() + r.extraLook
	if width <= 0 {
		return fmt.Errorf("sim: parallel mode needs a positive lookahead, got %v", width)
	}
	workers := r.parWorkers
	if workers > maxWorkers {
		workers = maxWorkers
	}
	if workers > n {
		workers = n
	}
	var ps *parScratch
	if r.scratch != nil {
		ps = r.scratch.par
	}
	if ps == nil || !ps.clean || ps.workers != workers || ps.n != n {
		ps = newParScratch(workers, n)
		if r.scratch != nil {
			r.scratch.par = ps
		}
	}
	ps.clean = false
	for i := range ps.srcs {
		ps.srcs[i].s = seedFor(seed, i)
	}
	pr := &parRunner{
		r:       r,
		width:   width,
		workers: workers,
		shards:  ps.shards,
		shardOf: ps.shardOf,
		rands:   ps.rands,
		srcs:    ps.srcs,
		work:    make([]chan winCmd, workers),
		done:    make(chan int, workers),
	}
	for s := range pr.work {
		pr.work[s] = make(chan winCmd, 1)
	}
	for _, sh := range ps.shards {
		sh.pr = pr
		sh.cal.reset(width, ringBuckets)
		sh.curBucket = -1
		sh.parity = 0
		sh.minStaged = math.MaxInt64
		sh.nextB = math.MaxInt64
		sh.windowStart = 0
		sh.halts = 0
		sh.viol = nil
		sh.panicVal = nil
		sh.events = 0
		sh.lastAt = 0
		sh.bucketPeak = 0
		sh.stagedPeak = 0
		sh.outPeak = 0
		sh.tracks = nil
		sh.obsNow = 0
		if r.history == nil {
			sh.histDelivered = 0
			sh.histSent = nil
			sh.histRecv = nil
		} else if len(sh.histSent) != n {
			sh.histDelivered = 0
			sh.histSent = make([]int64, n)
			sh.histRecv = make([]int64, n)
		} else {
			sh.histDelivered = 0
			clear(sh.histSent)
			clear(sh.histRecv)
		}
	}
	if r.rec != nil {
		// Track creation order is the determinism anchor: "sim" first, then
		// the nodes in global ID order (shards cover contiguous ranges), so
		// the exported track layout is independent of the worker count.
		pr.simTrack = r.rec.NewTrack("sim", &pr.obsNow)
		pr.barrier = r.rec.Histogram("sim.barrier_wait_ns")
		r.tracks = make([]*obs.Track, n)
		for _, sh := range ps.shards {
			sh.tracks = make([]*obs.Track, sh.hi-sh.lo)
			for i := sh.lo; i < sh.hi; i++ {
				t := r.rec.NewTrack(fmt.Sprintf("node-%d", i), &sh.obsNow)
				sh.tracks[i-sh.lo] = t
				r.tracks[i] = t
			}
		}
	}
	r.par = pr
	return nil
}

// runParallel is Run's parallel body.
func (r *Runner) runParallel() { r.par.runWindows() }

func (pr *parRunner) runWindows() {
	r := pr.r
	for s := range pr.shards {
		go pr.worker(s)
	}
	defer pr.stop()
	pr.issue(winCmd{k: 0})
	b := pr.collect()
	// A window's events start at b*width, so once b*width passes the time
	// bound every remaining event is beyond it.
	maxBucket := int64(r.maxTime / pr.width)
	prevEvents := 0
	for k := int64(1); b != math.MaxInt64 && b <= maxBucket && r.live > 0; k++ {
		bucket := b
		if r.history != nil {
			pr.commitHistory(b)
		}
		pr.issue(winCmd{k: k, bucket: b})
		var t0 time.Time
		if pr.simTrack != nil {
			t0 = time.Now()
		}
		b = pr.collect()
		if pr.simTrack != nil {
			// Wall-clock wait is non-deterministic: metrics registry only.
			pr.barrier.Observe(time.Since(t0).Nanoseconds())
			total := 0
			for _, sh := range pr.shards {
				total += sh.events
			}
			// Window start time and per-window event totals are pure
			// schedule facts — identical across reruns and worker counts —
			// so they may enter the trace.
			pr.obsNow = int64(time.Duration(bucket) * pr.width)
			pr.simTrack.Instant("sim.window", int64(pr.width), int64(total-prevEvents))
			prevEvents = total
		}
	}
	for _, sh := range pr.shards {
		r.events += sh.events
		if sh.lastAt > r.now {
			r.now = sh.lastAt
		}
		if pr.simTrack != nil {
			// Per-shard totals depend on the shard layout (worker count), so
			// they live in the metrics registry, not the trace.
			r.rec.Gauge(fmt.Sprintf("sim.shard.%d.events", sh.id)).Set(int64(sh.events))
		}
	}
}

// commitHistory is the parallel counterpart of History.observe: before
// issuing window b, fold every shard's pending delivery counts into the
// History and commit once the window's start time crosses the epoch
// boundary. It runs in the coordinator between collect() and issue(), so the
// channel barrier orders it after every worker's window-(b-1) writes and
// before any worker's window-b reads — no locks, no races. The bucket
// sequence b is independent of the worker count, so the commit schedule (and
// with it every adaptive decision) is too.
func (pr *parRunner) commitHistory(b int64) {
	h := pr.r.history
	ws := time.Duration(b) * pr.width
	if ws < h.nextCommit {
		return
	}
	for _, sh := range pr.shards {
		if sh.histDelivered == 0 {
			continue
		}
		h.pendDelivered += sh.histDelivered
		sh.histDelivered = 0
		for i := range sh.histSent {
			h.pendSent[i] += sh.histSent[i]
			h.pendRecv[i] += sh.histRecv[i]
			sh.histSent[i] = 0
			sh.histRecv[i] = 0
		}
	}
	h.commitUpTo(ws)
}

// stop closes the worker channels once; workers drain and exit.
func (pr *parRunner) stop() {
	if pr.closed {
		return
	}
	pr.closed = true
	for _, ch := range pr.work {
		close(ch)
	}
}

func (pr *parRunner) issue(cmd winCmd) {
	for _, ch := range pr.work {
		ch <- cmd
	}
}

// collect waits for the window barrier, folds the per-shard reports into
// the run state, and returns the next window's bucket (MaxInt64 = drained).
// A worker panic or detected causality violation is re-raised here, after a
// clean pool shutdown, so it surfaces to Run's caller.
func (pr *parRunner) collect() int64 {
	for range pr.shards {
		<-pr.done
	}
	b := int64(math.MaxInt64)
	var viol *causalityViolation
	var panicVal any
	for _, sh := range pr.shards {
		if sh.panicVal != nil && panicVal == nil {
			panicVal = sh.panicVal
		}
		if sh.viol != nil && viol == nil {
			viol = sh.viol
		}
		pr.r.live -= sh.halts
		sh.halts = 0
		if sh.nextB < b {
			b = sh.nextB
		}
		if sh.minStaged < b {
			b = sh.minStaged
		}
	}
	if panicVal != nil {
		pr.stop()
		panic(panicVal)
	}
	if viol != nil {
		pr.stop()
		panic(fmt.Sprintf("sim: causality violation: %v", viol))
	}
	return b
}

func (pr *parRunner) worker(s int) {
	sh := pr.shards[s]
	for cmd := range pr.work[s] {
		pr.runCmd(sh, cmd)
		pr.done <- s
	}
}

// runCmd executes one worker phase, converting a protocol panic into a
// report the coordinator re-raises after shutting the pool down.
func (pr *parRunner) runCmd(sh *shard, cmd winCmd) {
	defer func() {
		if p := recover(); p != nil {
			sh.panicVal = p
		}
	}()
	if cmd.k == 0 {
		sh.runInit()
	} else {
		sh.runWindow(cmd.k, cmd.bucket)
	}
}

// runInit runs Init for the shard's processes at t=0. All sends are staged
// (parity 0); curBucket == -1 admits any future bucket.
func (sh *shard) runInit() {
	r := sh.pr.r
	sh.obsNow = 0
	for i := sh.lo; i < sh.hi; i++ {
		if r.procs[i] == nil {
			continue
		}
		sh.beginStep(node.ID(i))
		r.procs[i].Init(&sh.envs[i-sh.lo])
		sh.endStep(node.ID(i), 0, 0)
	}
	// Same-shard init sends were enqueued directly; report them.
	sh.nextB = sh.cal.nextBucket(0)
}

// runWindow executes window k over calendar bucket b.
func (sh *shard) runWindow(k, b int64) {
	r := sh.pr.r
	p := int(k & 1)
	sh.parity = p
	sh.curBucket = b
	sh.windowStart = time.Duration(b) * sh.pr.width
	sh.minStaged = math.MaxInt64

	// Advance the ring horizon and pull newly admissible overflow back in.
	// b never undercuts an unprocessed event's bucket (the coordinator's
	// window minimum includes every shard's calendar and staging).
	sh.cal.advance(b)

	// Merge the sends every shard staged for us during window k-1 (parity
	// p^1; the barrier orders those writes before these reads).
	for _, t := range sh.pr.shards {
		buf := t.staged[p^1][sh.id]
		for i := range buf {
			sh.cal.push(buf[i], sh.cal.bucket(buf[i].at))
		}
	}

	// Reset our parity-p staging: written during window k-2, merged by its
	// destinations during k-1, dead since. Clearing releases message refs.
	for d := range sh.staged[p] {
		buf := sh.staged[p][d]
		if len(buf) > sh.stagedPeak {
			sh.stagedPeak = len(buf)
		}
		clear(buf)
		sh.staged[p][d] = buf[:0]
	}

	// Process our slice of the window: one contiguous bucket, ordered by
	// (to, at, seq) — a total order, so the result is independent of the
	// merge order above and of the worker count. The ordering is a counting
	// sort by destination node followed by per-destination (at, seq) sorts:
	// destinations are a small contiguous range and per-destination groups
	// are tiny, so this replaces a generic comparison sort's closure calls
	// over 40-byte elements with two linear passes.
	sh.bucket = sh.cal.take(b, sh.bucket[:0])
	evs := sh.sortBucket(sh.bucket)
	for i := range evs {
		e := &evs[i]
		if e.at > sh.lastAt {
			sh.lastAt = e.at
		}
		if e.at > r.maxTime {
			continue
		}
		sh.deliver(e)
	}
	if len(evs) > sh.bucketPeak {
		sh.bucketPeak = len(evs)
	}
	clear(sh.bucket)
	sh.bucket = sh.bucket[:0]
	if len(sh.sortBuf) > 0 {
		clear(sh.sortBuf)
		sh.sortBuf = sh.sortBuf[:0]
	}

	sh.nextB = sh.cal.nextBucket(b + 1)
}

// sortBucket returns the bucket's events in (to, at, seq) order. Buckets
// with a single destination order in place; otherwise events are
// counting-scattered by destination into sortBuf (counts spans the shard's
// node range) and each destination's group — typically a handful of events
// — is finished with a direct insertion sort, falling back to the generic
// sort only for pathologically hot destinations. The result is the unique
// (to, at, seq) order whatever the (worker-count-dependent) merge order
// was, so schedules stay byte-identical across worker counts.
func (sh *shard) sortBucket(evs []event) []event {
	if len(evs) < 2 {
		return evs
	}
	lo := int32(sh.lo)
	counts := sh.counts
	clear(counts)
	oneDest := true
	for i := range evs {
		counts[evs[i].to-lo]++
		if evs[i].to != evs[0].to {
			oneDest = false
		}
	}
	if oneDest {
		sortGroup(evs)
		return evs
	}
	// Prefix-sum the counts into scatter offsets, then place each event.
	total := int32(0)
	for d := range counts {
		c := counts[d]
		counts[d] = total
		total += c
	}
	if cap(sh.sortBuf) < len(evs) {
		sh.sortBuf = make([]event, len(evs))
	}
	buf := sh.sortBuf[:len(evs)]
	sh.sortBuf = buf
	for i := range evs {
		d := evs[i].to - lo
		buf[counts[d]] = evs[i]
		counts[d]++
	}
	// counts[d] is now each group's end offset; the previous group's end is
	// its start.
	start := int32(0)
	for d := range counts {
		end := counts[d]
		if end-start > 1 {
			sortGroup(buf[start:end])
		}
		start = end
	}
	return buf
}

// deliver processes one delivery on this shard (the parallel counterpart of
// Runner.deliver; run-termination is the coordinator's job).
func (sh *shard) deliver(e *event) {
	r := sh.pr.r
	sh.obsNow = int64(e.at)
	from, to := node.ID(e.from), node.ID(e.to)
	if r.nodes[to].halted || r.procs[to] == nil {
		return
	}
	if sh.histSent != nil {
		sh.histDelivered++
		sh.histSent[from]++
		sh.histRecv[to]++
	}
	sh.events++
	r.stats[to].MsgsRecv++
	size := e.msg.WireSize() + r.macBytes
	sh.beginStep(to)
	r.procs[to].Deliver(from, e.msg)
	sh.endStep(to, e.at, r.env.Cost.messageCost(size))
}

func (sh *shard) beginStep(id node.ID) {
	sh.inStep = true
	sh.curNode = id
	sh.curCharge = node.ComputeCost{}
	sh.curOutMsgs = sh.curOutMsgs[:0]
	sh.curOutput = false
	sh.curHalt = false
}

func (sh *shard) endStep(id node.ID, t, base time.Duration) {
	r := sh.pr.r
	ns := &r.nodes[id]
	start := t
	if ns.busyUntil > start {
		start = ns.busyUntil
	}
	dur := base + r.env.Cost.Cost(sh.curCharge)
	r.stats[id].Compute = r.stats[id].Compute.Add(sh.curCharge)
	ns.busyUntil = start + dur
	if sh.curOutput {
		r.stats[id].OutputAt = ns.busyUntil
	}
	if sh.curHalt {
		r.stats[id].HaltedAt = ns.busyUntil
	}
	if len(sh.curOutMsgs) > sh.outPeak {
		sh.outPeak = len(sh.curOutMsgs)
	}
	for _, om := range sh.curOutMsgs {
		sh.dispatch(id, om.to, om.msg, ns.busyUntil)
	}
	sh.curOutMsgs = sh.curOutMsgs[:0]
	sh.inStep = false
}

func (sh *shard) stageSend(from, to node.ID, m node.Message) {
	if sh.inStep && from == sh.curNode {
		sh.curOutMsgs = append(sh.curOutMsgs, outMsg{to: to, msg: m})
		return
	}
	// Out-of-step sends leave no earlier than the current window: clamping
	// keeps the departure inside the committed horizon (and is the point
	// in time the send physically happens).
	ready := sh.pr.r.nodes[from].busyUntil
	if sh.windowStart > ready {
		ready = sh.windowStart
	}
	sh.dispatch(from, to, m, ready)
}

// dispatch is the parallel counterpart of Runner.dispatch: same bandwidth,
// latency, and delay-rule arithmetic, but jitter comes from the sender's
// own RNG stream, the sequence number is per-sender (worker-count
// independent), and the event is staged for its destination shard instead
// of pushed on the one global queue.
func (sh *shard) dispatch(from, to node.ID, m node.Message, ready time.Duration) {
	r := sh.pr.r
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
	lat := r.env.Latency.Latency(from, to, sh.pr.rands[from])
	at := start + tx + lat
	if r.delayRule != nil {
		at += r.delayRule(start+tx, from, to, m)
	}
	ns.sendSeq++
	sh.stage(event{at: at, seq: ns.sendSeq<<seqShift | uint64(from), from: int32(from), to: int32(to), msg: m})
	st := &r.stats[from]
	st.MsgsSent++
	st.BytesSent += int64(size)
}

// stage buffers an event for its destination shard, detecting causality
// violations: an event landing in the bucket being processed (or earlier)
// would have to be inserted into a committed window.
func (sh *shard) stage(e event) {
	idx := int64(e.at / sh.pr.width)
	if idx <= sh.curBucket {
		if sh.viol == nil {
			sh.viol = &causalityViolation{at: e.at, bucket: idx, window: sh.curBucket, from: node.ID(e.from), to: node.ID(e.to)}
		}
		return
	}
	d := sh.pr.shardOf[e.to]
	if int(d) == sh.id {
		// Same-shard traffic skips the staging round-trip: straight into
		// our own calendar (sortBucket restores the total order, and the
		// end-of-phase nextBucket scan reports it to the coordinator).
		sh.cal.push(e, idx)
		return
	}
	if idx < sh.minStaged {
		sh.minStaged = idx
	}
	sh.staged[sh.parity][d] = append(sh.staged[sh.parity][d], e)
}

// handback clears every retained message reference and applies the shrink
// rule to the parallel arenas; called from Run when a Scratch is installed.
func (pr *parRunner) handback(s *Scratch) {
	ps := s.par
	if ps == nil {
		return
	}
	for _, sh := range pr.shards {
		sh.cal.handback()
		clear(sh.bucket)
		sh.bucket = shrunk(sh.bucket, sh.bucketPeak)
		for p := range sh.staged {
			for d := range sh.staged[p] {
				buf := sh.staged[p][d]
				clear(buf)
				sh.staged[p][d] = shrunk(buf, sh.stagedPeak)
			}
		}
		clear(sh.sortBuf[:cap(sh.sortBuf)])
		sh.sortBuf = shrunk(sh.sortBuf, sh.bucketPeak)
		clear(sh.curOutMsgs[:cap(sh.curOutMsgs)])
		sh.curOutMsgs = shrunk(sh.curOutMsgs, sh.outPeak)
	}
	ps.clean = true
}

// parEnv is the node.Env handed to processes under parallel execution.
type parEnv struct {
	sh *shard
	id node.ID
}

func (e *parEnv) Self() node.ID { return e.id }
func (e *parEnv) N() int        { return e.sh.pr.r.cfg.N }
func (e *parEnv) F() int        { return e.sh.pr.r.cfg.F }

// Track implements node.Tracing: the node's track on its shard's virtual
// clock, or nil when no recorder is attached.
func (e *parEnv) Track() *obs.Track {
	if e.sh.tracks == nil {
		return nil
	}
	return e.sh.tracks[int(e.id)-e.sh.lo]
}

func (e *parEnv) Send(to node.ID, m node.Message) {
	e.sh.stageSend(e.id, to, m)
}

func (e *parEnv) Broadcast(m node.Message) {
	for i := 0; i < e.sh.pr.r.cfg.N; i++ {
		e.sh.stageSend(e.id, node.ID(i), m)
	}
}

func (e *parEnv) Output(v any) {
	s := &e.sh.pr.r.stats[e.id]
	s.Output = append(s.Output, v)
	if e.sh.inStep && e.id == e.sh.curNode {
		e.sh.curOutput = true
	}
}

func (e *parEnv) Halt() {
	r := e.sh.pr.r
	if !r.nodes[e.id].halted {
		r.nodes[e.id].halted = true
		r.stats[e.id].Halted = true
		e.sh.halts++ // live accounting is folded in at the window barrier
		if e.sh.inStep && e.id == e.sh.curNode {
			e.sh.curHalt = true
		}
	}
}

func (e *parEnv) ChargeCompute(c node.ComputeCost) {
	if e.sh.inStep && e.id == e.sh.curNode {
		e.sh.curCharge = e.sh.curCharge.Add(c)
	}
}
