package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"delphi/internal/auth"
	"delphi/internal/bench"
	"delphi/internal/codec"
	"delphi/internal/node"
	"delphi/internal/obs"
	drt "delphi/internal/runtime"
	"delphi/internal/sim"
	"delphi/internal/wire"
)

// checkOutputs verifies one run's honest outputs: ε-agreement (spread below
// ε) and validity (every output inside the honest inputs' hull widened by
// max(ρ0, δ), δ being the honest range).
func checkOutputs(spec bench.RunSpec, st *bench.RunStats) error {
	honest := spec.HonestSlots()
	if len(st.Outputs) != len(honest) {
		return fmt.Errorf("%d outputs for %d honest nodes", len(st.Outputs), len(honest))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, i := range honest {
		lo = math.Min(lo, spec.Inputs[i])
		hi = math.Max(hi, spec.Inputs[i])
	}
	slack := math.Max(spec.Delphi.Rho0, hi-lo)
	olo, ohi := math.Inf(1), math.Inf(-1)
	for _, o := range st.Outputs {
		if !(o >= lo-slack && o <= hi+slack) {
			return fmt.Errorf("validity: output %g outside [%g, %g]", o, lo-slack, hi+slack)
		}
		olo = math.Min(olo, o)
		ohi = math.Max(ohi, o)
	}
	if !(ohi-olo < spec.Delphi.Eps) {
		return fmt.Errorf("agreement: spread %g not below eps %g", ohi-olo, spec.Delphi.Eps)
	}
	return nil
}

// layerCost accumulates the work inside process calls.
type layerCost struct {
	deliveries int
	sends      int
	callNS     int64 // inside Init and Deliver
	deliverNS  int64 // inside Deliver only
}

// delivery is one recorded inbound message, for replay.
type delivery struct {
	from node.ID
	m    node.Message
}

// sent is one recorded outbound message; step numbers the sender's process
// call that produced it.
type sent struct {
	from, to node.ID
	step     int
	m        node.Message
}

// probe wraps a node.Process: it times every call, counts sends, and
// optionally records deliveries and sends. It never changes what the
// process sees or does.
type probe struct {
	inner node.Process
	cost  *layerCost
	self  node.ID
	step  int
	// deliveries and sends, when non-nil, receive the recorded traffic.
	deliveries *[]delivery
	sends      *[]sent
}

// probeEnv forwards to the simulator's Env, counting and recording sends.
type probeEnv struct {
	node.Env
	p *probe
}

func (e *probeEnv) Send(to node.ID, m node.Message) {
	e.p.cost.sends++
	if e.p.sends != nil {
		*e.p.sends = append(*e.p.sends, sent{from: e.p.self, to: to, step: e.p.step, m: m})
	}
	e.Env.Send(to, m)
}

func (e *probeEnv) Broadcast(m node.Message) {
	n := e.Env.N()
	e.p.cost.sends += n
	if e.p.sends != nil {
		for to := 0; to < n; to++ {
			*e.p.sends = append(*e.p.sends, sent{from: e.p.self, to: node.ID(to), step: e.p.step, m: m})
		}
	}
	e.Env.Broadcast(m)
}

// Track keeps the simulator's trace track visible to the wrapped process.
func (e *probeEnv) Track() *obs.Track { return node.TrackOf(e.Env) }

func (p *probe) Init(env node.Env) {
	t0 := time.Now()
	p.inner.Init(&probeEnv{Env: env, p: p})
	p.cost.callNS += time.Since(t0).Nanoseconds()
	p.step++
}

func (p *probe) Deliver(from node.ID, m node.Message) {
	if p.deliveries != nil {
		*p.deliveries = append(*p.deliveries, delivery{from: from, m: m})
	}
	t0 := time.Now()
	p.inner.Deliver(from, m)
	d := time.Since(t0).Nanoseconds()
	p.cost.callNS += d
	p.cost.deliverNS += d
	p.cost.deliveries++
	p.step++
}

// probedRun is one probed simulator run and what it measured and recorded.
type probedRun struct {
	// spec is the spec as run, with the trial seed derived.
	spec  bench.RunSpec
	stats *bench.RunStats
	// total is the whole call; setup is sim.NewRunner; wall is Runner.Run.
	total, setup, wall time.Duration
	events             int64
	// proto holds the honest processes' costs, byz the Byzantine ones'.
	proto, byz layerCost
	// deliveries[i] is node i's inbound sequence; sends is every outbound
	// message. Both are nil unless recording was requested.
	deliveries [][]delivery
	sends      []sent
}

// runProbed executes spec on the simulator the way bench.Run does (the
// sequential executor, the same options and seed derivation as
// Engine.RunTrials' first trial), with every process wrapped in a probe.
// The event count is the run's Result.Events, the value a recorder's
// sim.events counter carries; no recorder is attached, so the protocols'
// phase spans do not inflate the probed time.
func runProbed(spec bench.RunSpec, record bool, scratch *sim.Scratch) (*probedRun, error) {
	start := time.Now()
	spec.Seed = bench.TrialSeed(spec.Seed, 0)
	procs, err := spec.Processes()
	if err != nil {
		return nil, err
	}
	out := &probedRun{spec: spec}
	if record {
		out.deliveries = make([][]delivery, spec.N)
	}
	honest := make([]bool, spec.N)
	for _, i := range spec.HonestSlots() {
		honest[i] = true
	}
	for i, p := range procs {
		if p == nil {
			continue
		}
		pr := &probe{inner: p, cost: &out.byz, self: node.ID(i)}
		if honest[i] {
			pr.cost = &out.proto
			if record {
				pr.deliveries = &out.deliveries[i]
				pr.sends = &out.sends
			}
		}
		procs[i] = pr
	}
	t0 := time.Now()
	runner, err := sim.NewRunner(node.Config{N: spec.N, F: spec.F}, spec.Env, spec.Seed, procs,
		sim.WithMaxTime(4*time.Hour), sim.WithScratch(scratch))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	res := runner.Run()
	out.setup, out.wall = t1.Sub(t0), time.Since(t1)
	finals := make([]any, spec.N)
	at := make([]time.Duration, spec.N)
	for _, i := range spec.HonestSlots() {
		st := res.Stats[i]
		if len(st.Output) == 0 {
			return nil, fmt.Errorf("%s node %d produced no output", spec.Protocol, i)
		}
		finals[i] = st.Output[len(st.Output)-1]
		at[i] = st.OutputAt
	}
	out.stats, err = spec.StatsFromOutputs(finals, at)
	if err != nil {
		return nil, err
	}
	out.stats.TotalBytes = res.TotalBytes
	out.stats.TotalMsgs = res.TotalMsgs
	out.events = int64(res.Events)
	out.total = time.Since(start)
	return out, nil
}

// family names the protocol family of a cell in the ledger, after the
// repository module whose work dominates its deliveries: BinAA for Delphi,
// ACS (RBC, ABA and the coin) for FIN, and the AAA rounds of Abraham and
// Dolev.
func family(p bench.Protocol) string {
	switch p {
	case bench.ProtoDelphi:
		return "binaa"
	case bench.ProtoFIN:
		return "acs"
	default:
		return "aaa"
	}
}

// families are the protocol families in ledger order; replayed are those
// whose allocations per delivery the ledger carries.
var (
	families = []string{"binaa", "acs", "aaa"}
	replayed = []string{"binaa", "acs"}
)

// probedTotals sums probed runs into the protocol, simulator and backend
// figures of the ledger.
type probedTotals struct {
	runs int
	// fams holds the honest processes' costs per family.
	fams              map[string]*layerCost
	inCalls, wall     time.Duration
	events            int64
	setups, overheads []float64 // ms per run
}

func newProbedTotals() *probedTotals {
	return &probedTotals{fams: map[string]*layerCost{}}
}

func (t *probedTotals) add(run *probedRun) {
	t.runs++
	f := family(run.spec.Protocol)
	c := t.fams[f]
	if c == nil {
		c = &layerCost{}
		t.fams[f] = c
	}
	c.deliveries += run.proto.deliveries
	c.sends += run.proto.sends
	c.callNS += run.proto.callNS
	c.deliverNS += run.proto.deliverNS
	t.inCalls += time.Duration(run.proto.callNS + run.byz.callNS)
	t.wall += run.wall
	t.events += run.events
	t.setups = append(t.setups, ms(run.setup))
	t.overheads = append(t.overheads, ms(run.total-run.wall))
}

// report adds the protocol and simulator figures; ops is the number of
// operations the runs make up. A family the runs did not include reads 0,
// and so do the allocation figures until a replay fills them in.
func (t *probedTotals) report(r *report, ops int, source string) {
	per := float64(max(ops, 1))
	for _, f := range families {
		c := t.fams[f]
		if c == nil {
			r.add(f+".deliveries", "count/op", 0, 0, "not run in this workload")
			r.add(f+".deliver_ns", "ns", 0, 0, "not run in this workload")
			r.add(f+".sends_per_delivery", "count", 0, 0, "not run in this workload")
			continue
		}
		n := max(c.deliveries, 1)
		r.add(f+".deliveries", "count/op", float64(c.deliveries)/per, c.deliveries, source)
		r.add(f+".deliver_ns", "ns", float64(c.deliverNS)/float64(n), c.deliveries, "time inside Deliver")
		r.add(f+".sends_per_delivery", "count", float64(c.sends)/float64(n), c.deliveries, "")
	}
	for _, f := range replayed {
		r.add(f+".allocs_per_delivery", "count", 0, 0, "not replayed in this workload")
		r.add(f+".bytes_per_delivery", "B", 0, 0, "not replayed in this workload")
	}
	self := float64(t.wall - t.inCalls)
	r.add("sim.events", "count/op", float64(t.events)/per, t.runs, "deliveries, as the sim.events counter counts them")
	r.add("sim.event_ns", "ns", self/float64(max(t.events, 1)), t.runs, "Runner.Run wall minus time inside process calls, per event")
	r.add("sim.self_share", "ratio", self/float64(t.wall), t.runs, "")
}

// replayEnv is the Env of a replayed process: sends go nowhere.
type replayEnv struct {
	self node.ID
	n, f int
}

func (e *replayEnv) Self() node.ID                  { return e.self }
func (e *replayEnv) N() int                         { return e.n }
func (e *replayEnv) F() int                         { return e.f }
func (e *replayEnv) Send(node.ID, node.Message)     {}
func (e *replayEnv) Broadcast(node.Message)         {}
func (e *replayEnv) Output(any)                     {}
func (e *replayEnv) Halt()                          {}
func (e *replayEnv) ChargeCompute(node.ComputeCost) {}

// replayAllocs feeds every honest node's recorded inbound sequence to a
// fresh process built from the same spec and counts the heap allocations
// and bytes of the Deliver calls. A process is a deterministic state
// machine of its Init and its deliveries, so the replay repeats the run's
// protocol work exactly, without the simulator's allocations in between.
func replayAllocs(spec bench.RunSpec, deliveries [][]delivery) (allocs, bytes uint64, n int, err error) {
	procs, err := spec.Processes()
	if err != nil {
		return 0, 0, 0, err
	}
	honest := spec.HonestSlots()
	for _, i := range honest {
		procs[i].Init(&replayEnv{self: node.ID(i), n: spec.N, f: spec.F})
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, i := range honest {
		p := procs[i]
		for _, d := range deliveries[i] {
			p.Deliver(d.from, d.m)
		}
		n += len(deliveries[i])
	}
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, n, nil
}

// wireCosts is the codec, auth and envelope cost of one recorded run,
// replayed through the same calls the live driver and transports make.
type wireCosts struct {
	msgs, frames, envelopes         int
	wireBytes                       int // sealed transport frame bytes
	bytesPerMsg                     float64
	encodeNS, decodeNS, decodeAlloc float64 // per message
	packNS, unpackNS                float64 // per envelope
	sealNS, openNS                  float64 // per transport frame
}

// timeReps runs fn until at least minDur has passed (and at least three
// times) and returns the mean duration of one call.
func timeReps(minDur time.Duration, fn func()) time.Duration {
	fn() // warm
	start := time.Now()
	reps := 0
	for reps < 3 || time.Since(start) < minDur {
		fn()
		reps++
	}
	return time.Since(start) / time.Duration(reps)
}

// replayWire groups the recorded sends the way the driver does — per
// sender process call, per destination in id order, one frame alone or two
// or more in a batch envelope — then times wire.Encode and DecodeFramed per
// message, AppendBatch and UnpackBatch per envelope, and auth AppendSeal and
// Open per transport frame. The live driver also coalesces across
// consecutive calls while its inbox stays busy, so these frame counts are
// an upper bound, and messages per envelope a lower bound, of the live
// figures.
func replayWire(n int, sends []sent) (*wireCosts, error) {
	if len(sends) == 0 {
		return nil, fmt.Errorf("no recorded messages")
	}
	reg := codec.MustRegistry()
	encoded := make([][]byte, len(sends))
	wc := &wireCosts{msgs: len(sends)}
	var total int
	for i, s := range sends {
		b, err := wire.Encode(s.m)
		if err != nil {
			return nil, err
		}
		encoded[i] = b
		total += len(b)
	}
	wc.bytesPerMsg = float64(total) / float64(len(sends))
	const minDur = 50 * time.Millisecond
	per := func(d time.Duration, k int) float64 { return float64(d.Nanoseconds()) / float64(k) }
	wc.encodeNS = per(timeReps(minDur, func() {
		for _, s := range sends {
			wire.Encode(s.m) // succeeded for every message above
		}
	}), len(sends))
	var decodeErr error
	decode := func() {
		for _, b := range encoded {
			if _, err := reg.DecodeFramed(b); err != nil && decodeErr == nil {
				decodeErr = err
			}
		}
	}
	wc.decodeNS = per(timeReps(minDur, decode), len(sends))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	decode()
	runtime.ReadMemStats(&b)
	if decodeErr != nil {
		return nil, fmt.Errorf("decode: %w", decodeErr)
	}
	wc.decodeAlloc = float64(b.Mallocs-a.Mallocs) / float64(len(sends))

	// Transport frames, in the driver's flush order.
	type frame struct {
		from, to node.ID
		members  [][]byte
	}
	var frames []frame
	for lo := 0; lo < len(sends); {
		hi := lo
		for hi < len(sends) && sends[hi].from == sends[lo].from && sends[hi].step == sends[lo].step {
			hi++
		}
		byDest := make([][][]byte, n)
		for i := lo; i < hi; i++ {
			byDest[sends[i].to] = append(byDest[sends[i].to], encoded[i])
		}
		for to, members := range byDest {
			if len(members) > 0 {
				frames = append(frames, frame{from: sends[lo].from, to: node.ID(to), members: members})
			}
		}
		lo = hi
	}
	wc.frames = len(frames)
	onWire := make([][]byte, len(frames))
	var envs [][]byte
	for i, f := range frames {
		if len(f.members) == 1 {
			onWire[i] = f.members[0]
			continue
		}
		onWire[i] = drt.AppendBatch(nil, f.members)
		envs = append(envs, onWire[i])
	}
	wc.envelopes = len(envs)
	if len(envs) > 0 {
		var scratch []byte
		wc.packNS = per(timeReps(minDur, func() {
			for _, f := range frames {
				if len(f.members) > 1 {
					scratch = drt.AppendBatch(scratch[:0], f.members)
				}
			}
		}), len(envs))
		var unpackErr error
		wc.unpackNS = per(timeReps(minDur, func() {
			for _, e := range envs {
				if err := drt.UnpackBatch(e, func([]byte) bool { return true }); err != nil && unpackErr == nil {
					unpackErr = err
				}
			}
		}), len(envs))
		if unpackErr != nil {
			return nil, fmt.Errorf("unpack: %w", unpackErr)
		}
	}

	auths := make([]*auth.Auth, n)
	for i := range auths {
		a, err := auth.New(node.ID(i), n, []byte("perfbench-replay"))
		if err != nil {
			return nil, err
		}
		auths[i] = a
	}
	sealed := make([][]byte, len(frames))
	for i, f := range frames {
		sealed[i] = auths[f.from].AppendSeal(f.to, nil, onWire[i])
		wc.wireBytes += len(sealed[i])
	}
	var buf []byte
	wc.sealNS = per(timeReps(minDur, func() {
		for i, f := range frames {
			buf = auths[f.from].AppendSeal(f.to, buf[:0], onWire[i])
		}
	}), len(frames))
	rejects := 0
	wc.openNS = per(timeReps(minDur, func() {
		for i, f := range frames {
			if _, err := auths[f.to].Open(f.from, sealed[i]); err != nil {
				rejects++
			}
		}
	}), len(frames))
	if rejects > 0 {
		return nil, fmt.Errorf("auth: %d replayed frames failed to open", rejects)
	}
	return wc, nil
}

// addRecorded reports the figures of one recorded run: its family's
// allocations per delivery from replaying its deliveries and, if wire is
// set, the codec, envelope and auth costs from replaying its messages.
func addRecorded(r *report, run *probedRun, name string, wire bool) error {
	allocs, bytes, n, err := replayAllocs(run.spec, run.deliveries)
	if err != nil {
		return err
	}
	note := "replay of " + name
	f := family(run.spec.Protocol)
	r.add(f+".allocs_per_delivery", "count", float64(allocs)/float64(n), n, note)
	r.add(f+".bytes_per_delivery", "B", float64(bytes)/float64(n), n, note)
	if !wire {
		return nil
	}
	wc, err := replayWire(run.spec.N, run.sends)
	if err != nil {
		return fmt.Errorf("replay of %s: %w", name, err)
	}
	r.add("codec.encode_ns", "ns", wc.encodeNS, wc.msgs, "wire.Encode per message, "+note)
	r.add("codec.decode_ns", "ns", wc.decodeNS, wc.msgs, "Registry.DecodeFramed per message")
	r.add("codec.decode_allocs", "count", wc.decodeAlloc, wc.msgs, "")
	r.add("wire.bytes_per_msg", "B", wc.bytesPerMsg, wc.msgs, "")
	r.add("auth.seal_ns", "ns", wc.sealNS, wc.frames, "AppendSeal per transport frame")
	r.add("auth.open_ns", "ns", wc.openNS, wc.frames, "Open per transport frame")
	// A protocol that never sends two messages to one peer in one step has
	// no envelopes; their cost is then not a figure of this workload.
	if wc.envelopes > 0 {
		r.info("runtime.pack_ns %.4g (AppendBatch), runtime.unpack_ns %.4g (UnpackBatch) per envelope, %d envelopes of %s",
			wc.packNS, wc.unpackNS, wc.envelopes, name)
	}
	r.add("runtime.msgs_per_envelope", "ratio", float64(wc.msgs)/float64(wc.frames), wc.frames, "messages per transport frame, per-step grouping (a lower bound)")
	r.add("runtime.frames_per_round", "count", float64(wc.frames), wc.frames, "transport frames of the run, per-step grouping (an upper bound)")
	r.add("runtime.bytes_per_round", "B", float64(wc.wireBytes), wc.frames, "sealed frame bytes of the run")
	return nil
}
