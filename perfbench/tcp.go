package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"delphi/internal/backend"
	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/dist"
	"delphi/internal/feeds"
	"delphi/internal/obs"
	"delphi/internal/sim"
)

// The tcp-round workload: closed loop, one Delphi round at a time (n=16,
// oracle parameters) on one persistent loopback-tcp session, the next round
// starting only after the previous one decides. It is the live path of a
// paper cell: BinAA, codec, HMAC, the batch envelope, the inbox and socket
// syscalls, with no mux and no queueing.
//
// Engine.RunTrials closes its sessions when the batch returns, so a closed
// loop of a wall-clock length over one session calls the session
// RunTrials would open, backend.TCP.OpenSession, directly.

func roundScenario() bench.Scenario {
	return bench.Scenario{
		Name: "tcp-round", Protocol: bench.ProtoDelphi, N: 16, Env: sim.AWS(),
		Params: bench.OracleDefaultParams(), Center: 41000, Delta: 20,
		Backend: bench.BackendTCP,
	}
}

// roundRun is the shared state of one tcp-round invocation.
type roundRun struct {
	cfg   config
	sc    bench.Scenario
	rep   *report
	sess  backend.Session
	opens []float64 // session open times, ms
}

// setUp opens a session and serves one untimed warm-up round on it; the
// session of the last set-up stays open for the timed rounds.
func (t *roundRun) setUp(k int) (time.Duration, error) {
	spec := t.sc.Spec(t.cfg.seed, warmRound+k)
	t0 := time.Now()
	sess, err := backend.TCP{}.OpenSession(spec)
	if err != nil {
		return 0, fmt.Errorf("open session: %w", err)
	}
	t.opens = append(t.opens, ms(time.Since(t0)))
	t.sess = sess
	r, err := sess.Run(spec)
	if err == nil {
		err = checkOutputs(spec, r.Stats)
	}
	t.rep.op(err)
	return time.Since(t0), nil
}

// roundStats are the measurements of a run of rounds.
type roundStats struct {
	spans    []interval
	wall     []float64 // per round as the caller sees it, ms
	decision []float64 // RunStats.Wall, ms
	overhead []float64 // wall minus RunStats.Wall, ms
	kb       []float64 // wire kB per node
}

// loop runs rounds from index *i until end, and at least min rounds. A
// non-nil rec is attached to every round and track gets a span per round,
// argument a = the round index.
func (t *roundRun) loop(i *int, end time.Time, min int, rec *obs.Recorder, track *obs.Track) roundStats {
	var rs roundStats
	for first := *i; *i-first < min || time.Now().Before(end); *i++ {
		spec := t.sc.Spec(t.cfg.seed, *i)
		spec.Obs = rec
		start := time.Now()
		r, err := t.sess.Run(spec)
		stop := time.Now()
		track.SpanAt("tcp.round", rec.WallNS(start), rec.WallNS(stop), int64(*i), 0)
		if err == nil {
			err = checkOutputs(spec, r.Stats)
		}
		t.rep.op(err)
		rs.spans = append(rs.spans, interval{start, stop})
		rs.wall = append(rs.wall, ms(stop.Sub(start)))
		if err == nil {
			rs.decision = append(rs.decision, ms(r.Wall))
			rs.overhead = append(rs.overhead, ms(stop.Sub(start)-r.Wall))
			rs.kb = append(rs.kb, float64(r.Stats.TotalBytes)/1e3/float64(spec.N))
		}
	}
	return rs
}

func runTCPRound(cfg config, rep *report) error {
	t := &roundRun{cfg: cfg, sc: roundScenario(), rep: rep}
	if err := t.sc.Validate(); err != nil {
		return err
	}
	var setups []float64
	for k := 0; k < setUps; k++ {
		if t.sess != nil {
			t.sess.Close()
		}
		d, err := t.setUp(k)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer t.sess.Close()
	i := 0
	if !cfg.trace {
		rep.add("setup_s", "s", median(setups), len(setups), "median of the set-ups: open a session, serve one warm-up round")
		heap := startHeap()
		begin := time.Now()
		rs := t.loop(&i, deadline(cfg, 1), 10, nil, nil)
		elapsed := time.Since(begin)
		rep.addHeap(heap, rs.spans)
		n := len(rs.wall)
		rep.add("op_ms.p50", "ms", median(rs.wall), n, "round wall time as the caller sees it")
		v, p := tail(rs.wall)
		rep.add("op_ms.tail", "ms", v, n, tailNote(p, n))
		rep.add("throughput_per_s", "1/s", float64(n)/elapsed.Seconds(), n, "rounds per second, closed loop")
		rep.add("decision_ms", "ms", median(rs.decision), len(rs.decision), "RunStats.Wall: cluster start to the last honest decision")
		rep.info("%.3f wire kB per node per round (live accounting, median)", median(rs.kb))
		return nil
	}

	plain := t.loop(&i, deadline(cfg, 0.5), 10, nil, nil)
	rec := obs.New()
	track := rec.NewTrack("perfbench tcp-round", nil)
	rejects := logCounter.count()
	before := readGoStats()
	traced := t.loop(&i, deadline(cfg, 0.5), 10, rec, track)
	after := readGoStats()
	n := len(traced.wall)
	rep.addGoLayer(before, after, n)
	rep.add("trace.overhead_ratio", "ratio", median(traced.wall)/median(plain.wall), n, fmt.Sprintf("traced ÷ plain round p50, %d and %d rounds", n, len(plain.wall)))
	rep.add("backend.session_open_ms", "ms", median(t.opens), len(t.opens), "backend.TCP.OpenSession")
	rep.add("backend.round_overhead_ms", "ms", median(plain.overhead), len(plain.overhead), "untraced round time seen by the caller minus RunStats.Wall")
	addLive(rep, rec.Snapshot(), n, logCounter.count()-rejects)
	noService(rep)
	noGroups(rep)
	if err := addCaptured(rep, t.sc, cfg.seed); err != nil {
		return err
	}
	path, err := writeTrace(cfg, rec.WriteTrace)
	if err != nil {
		return err
	}
	rep.info("trace: %s", path)
	return nil
}

// addLive reports the live drivers' and transports' counters over a
// number of rounds, and the frames they dropped as unauthentic.
func addLive(rep *report, snap obs.Metrics, rounds, rejects int) {
	per := float64(max(rounds, 1))
	flushes := float64(snap.Value("driver.flushes"))
	rep.add("runtime.flushes_per_round", "count", flushes/per, rounds, "driver.flushes counter")
	rep.add("runtime.msgs_per_flush", "ratio", float64(snap.Value("driver.flush_frames"))/math.Max(flushes, 1), rounds, "driver.flush_frames ÷ driver.flushes; a flush sends one frame per destination")
	rep.add("runtime.transport_drops", "count", float64(snap.Value("transport.drops")), rounds, "transport.drops counter over the traced rounds")
	rep.add("auth.open_rejects", "count/op", float64(rejects)/per, rounds, "frames the drivers dropped as unauthentic, per round")
}

// addCaptured runs round 0 of the scenario on the simulator with probed
// processes and reports the protocol layer, the simulator's cost of the
// round, and the replayed codec, envelope and auth costs: the per-layer
// costs at the workload's own message mix. The live backend builds its
// processes internally, so they cannot be probed in the tcp run itself.
func addCaptured(rep *report, sc bench.Scenario, seed int64) error {
	spec := sc.Spec(seed, 0)
	spec.Backend = bench.BackendSim
	run, err := runProbed(spec, true, nil)
	if err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	if err := checkOutputs(run.spec, run.stats); err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	tot := newProbedTotals()
	tot.add(run)
	tot.report(rep, 1, "simulator capture of round 0")
	return addRecorded(rep, run, "the captured round", true)
}

// The tcp-service workload: Engine.RunService on tcp, each round the
// tcp-round scenario (Delphi n=16, oracle parameters), window 4, a queue
// that holds every arrival, and four representative subscribers of a
// 10⁶-client population. Concurrent rounds share one fabric, multiplexed by
// tag, behind a queue and a fan-out stage.
//
// The timed run offers bursts of svcBurst rounds that all arrive at once,
// one burst after another, so the service decides them with its window
// full: a closed loop of batches. An open loop at a fixed rate below
// capacity measured too unsteady for a regression bound on a two-core host:
// a round is ~140 ms of CPU work alone and up to three times that when
// another overlaps it, and which rounds overlap follows the seed's arrival
// times, so the median of the ~30 latencies a run has room for ranged over
// 168-226 ms in ten seeds at 2/s. The traced run offers that fixed rate,
// where the queue, mux and fan-out figures of the ledger are meaningful.
//
// RunService stamps an arrival when its pacer wakes, not when the arrival
// was due, so its latency counts from the stamp and a late pacer hides its
// own stall. The traced run measures that lateness (svc.gen_late_ms.p50)
// against the due times of the service's own arrival schedule.

const (
	svcRate  = 2.0 // rounds/s at the traced run's fixed rate
	svcBurst = 16  // rounds per burst
	// svcLimitMS is the latency limit of the traced run's on-time share.
	svcLimitMS = 500.0
)

// serviceConfig offers rounds arrivals at rate; arrivals stop at cut, if
// not zero, so a stalled service cannot hold the run past its time.
func serviceConfig(rate float64, rounds int, cut time.Duration) bench.ServiceConfig {
	sc := roundScenario()
	sc.Name = "tcp-service"
	return bench.ServiceConfig{
		Scenario: sc,
		Rounds:   rounds,
		Rate:     rate,
		Window:   4,
		Queue:    rounds,
		Duration: cut,
		Subscribers: feeds.Population{
			Size: 1_000_000, Seed: 7, Base: 5 * time.Millisecond,
			Jitter: dist.Lognormal{Mu: 2, Sigma: 0.5},
		},
		Representatives: 4,
	}
}

// fixedConfig offers the fixed rate for about d.
func fixedConfig(d time.Duration) bench.ServiceConfig {
	return serviceConfig(svcRate, max(int(svcRate*d.Seconds()), 1), 2*d)
}

// burstConfig offers k rounds at once.
func burstConfig(k int) bench.ServiceConfig { return serviceConfig(1e4, k, 0) }

// serve runs one service and accounts its arrivals; the queue holds every
// arrival, so a shed arrival is a failure as much as a failed round.
func serve(rep *report, cfg bench.ServiceConfig, seed int64) (*bench.ServiceReport, error) {
	r, err := bench.NewEngine(1).RunService(cfg, seed)
	if err != nil {
		return nil, err
	}
	if r.Arrived != r.Decided+r.Shed+r.Failed {
		return nil, fmt.Errorf("service accounting: arrived %d != decided %d + shed %d + failed %d", r.Arrived, r.Decided, r.Shed, r.Failed)
	}
	for i := 0; i < cfg.Rounds; i++ {
		var e error
		if i >= r.Decided {
			e = fmt.Errorf("service at %g/s: %d decided, %d failed, %d shed of %d rounds", cfg.Rate, r.Decided, r.Failed, r.Shed, cfg.Rounds)
		}
		rep.op(e)
	}
	if r.TransportDrops != 0 {
		rep.op(fmt.Errorf("service at %g/s: %d transport drops", cfg.Rate, r.TransportDrops))
	}
	return r, nil
}

func runTCPService(cfg config, rep *report) error {
	var setups []float64
	for k := 0; k < setUps; k++ {
		t0 := time.Now()
		if _, err := serve(rep, burstConfig(2), bench.TrialSeed(cfg.seed, warmRound+k)); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if cfg.trace {
		return tracedService(cfg, rep)
	}
	rep.add("setup_s", "s", median(setups), len(setups), "median of the set-ups: open a service session, serve 2 warm-up rounds")

	heap := startHeap()
	end := deadline(cfg, 1)
	var spans []interval
	var lat, svc, rates, bursts []float64
	for k := 0; k < minPasses || another(end, bursts); k++ {
		start := time.Now()
		b, err := serve(rep, burstConfig(svcBurst), bench.TrialSeed(cfg.seed, k))
		if err != nil {
			return err
		}
		stop := time.Now()
		spans = append(spans, interval{start, stop})
		bursts = append(bursts, ms(stop.Sub(start)))
		lat = append(lat, b.LatencyMS.Samples...)
		svc = append(svc, b.ServiceMS.Samples...)
		rates = append(rates, b.RoundsPerSec)
	}
	rep.addHeap(heap, spans)
	rep.add("op_ms.p50", "ms", median(lat), len(lat), fmt.Sprintf("arrival to decision, bursts of %d at window 4", svcBurst))
	v, p := tail(lat)
	rep.add("op_ms.tail", "ms", v, len(lat), tailNote(p, len(lat)))
	rep.add("decision_ms", "ms", median(svc), len(svc), "round start to decision, with the window full")
	rep.add("throughput_per_s", "1/s", median(rates), len(rates), "rounds decided per second of a burst, median over bursts")
	rep.info("rounds/s per burst: %.2f", rates)
	return nil
}

// traceEvent is one event of the Chrome trace format obs.WriteTrace emits.
type traceEvent struct {
	Name string  `json:"name"`
	Ts   float64 `json:"ts"`  // µs
	Dur  float64 `json:"dur"` // µs
	Args struct {
		A int64 `json:"a"`
		B int64 `json:"b"`
	} `json:"args"`
}

func parseTrace(rec *obs.Recorder) ([]byte, []traceEvent, error) {
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		return nil, nil, err
	}
	var t struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &t); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), t.TraceEvents, nil
}

// schedule returns each arrival's due offset from the pacer's start, in
// µs, as the service's own simulator model places them: a run of the same
// arrival process with a trivial scenario, a window no arrival waits for,
// and a recorder whose svc.queue spans start at the arrivals.
func schedule(cfg bench.ServiceConfig, seed int64) (map[int64]float64, error) {
	c := cfg
	c.Scenario = bench.Scenario{
		Name: "schedule", Protocol: bench.ProtoDolev, N: 6, F: 1, Env: sim.AWS(),
		Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 4, Eps: 2}, Center: 41000, Delta: 2,
	}
	c.Window = cfg.Rounds
	c.Subscribers = feeds.Population{}
	c.Obs = obs.New()
	if _, err := bench.NewEngine(1).RunService(c, seed); err != nil {
		return nil, err
	}
	_, events, err := parseTrace(c.Obs)
	if err != nil {
		return nil, err
	}
	due := map[int64]float64{}
	for _, e := range events {
		if e.Name == "svc.queue" {
			due[e.Args.A] = e.Ts
		}
	}
	if len(due) != cfg.Rounds {
		return nil, fmt.Errorf("schedule: %d of %d arrivals placed", len(due), cfg.Rounds)
	}
	return due, nil
}

// serviceLayers are the per-layer metrics only the service has.
var serviceLayers = []struct{ name, unit string }{
	{"bench.queue_ms.p50", "ms"}, {"bench.service_ms.p50", "ms"}, {"bench.service_ms.tail", "ms"},
	{"bench.max_in_flight", "count"}, {"bench.shed", "count"},
	{"feeds.fanout_ms.p50", "ms"}, {"feeds.shed", "count"},
	{"runtime.mux.stale_per_round", "count"}, {"runtime.mux.useful_share", "ratio"},
	{"svc.gen_late_ms.p50", "ms"},
}

// noService reports the service layers as absent from a workload.
func noService(rep *report) {
	for _, m := range serviceLayers {
		rep.add(m.name, m.unit, 0, 0, "tcp-service only")
	}
}

// tracedService runs the fixed rate untraced for 40% of the time and
// traced for another 40%; the rest is left for set-up, the arrivals'
// jitter, the capture and the schedule. The per-layer ledger comes from
// the traced half and a simulator capture of its round 0.
func tracedService(cfg config, rep *report) error {
	half := time.Duration(cfg.seconds * 0.4 * float64(time.Second))
	plain, err := serve(rep, fixedConfig(half), cfg.seed)
	if err != nil {
		return err
	}
	rec := obs.New()
	track := rec.NewTrack("perfbench tcp-service", nil)
	sc := fixedConfig(half)
	sc.Obs = rec
	seed := cfg.seed // the same arrival times as the untraced half
	rejects := logCounter.count()
	before := readGoStats()
	start := time.Now()
	r, err := serve(rep, sc, seed)
	if err != nil {
		return err
	}
	track.SpanAt("RunService", rec.WallNS(start), rec.WallNS(time.Now()), int64(r.Arrived), 0)
	after := readGoStats()
	raw, events, err := parseTrace(rec)
	if err != nil {
		return err
	}
	rep.addGoLayer(before, after, r.Arrived)
	rep.add("trace.overhead_ratio", "ratio", median(r.LatencyMS.Samples)/median(plain.LatencyMS.Samples), r.Decided, "traced ÷ plain latency p50")
	rep.add("backend.session_open_ms", "ms", 0, 0, "inside RunService; not separable")
	rep.add("backend.round_overhead_ms", "ms", 0, 0, "RunService keeps no per-round wall")
	addLive(rep, r.Metrics, r.Decided, logCounter.count()-rejects)
	noGroups(rep)
	if err := addCaptured(rep, sc.Scenario, seed); err != nil {
		return err
	}

	due, err := schedule(sc, seed)
	if err != nil {
		return err
	}
	var fanout, late []float64
	begin := math.Inf(1)
	for _, e := range events {
		switch e.Name {
		case "svc.fanout":
			d := sc.Subscribers.Delay(e.Args.A, int(e.Args.B))
			fanout = append(fanout, e.Dur/1e3-ms(d))
		case "svc.queue":
			begin = math.Min(begin, e.Ts-due[e.Args.A])
		}
	}
	for _, e := range events {
		if e.Name == "svc.queue" {
			late = append(late, (e.Ts-due[e.Args.A]-begin)/1e3)
		}
	}
	n := r.Decided
	// RunService measures queue and service times itself, recorder or
	// not, so both halves' rounds count: the traced half alone has too
	// few for a tail.
	queue := append(append([]float64(nil), plain.QueueMS.Samples...), r.QueueMS.Samples...)
	svc := append(append([]float64(nil), plain.ServiceMS.Samples...), r.ServiceMS.Samples...)
	sv, sp := tail(svc)
	stale := float64(r.Metrics.Value("mux.stale_frames"))
	// Frames the mux routed to a live round are estimated from the
	// captured round's transport frames; the mux counts only stale ones.
	routed := rep.metrics["runtime.frames_per_round"].Value * float64(n)
	rep.add("bench.queue_ms.p50", "ms", median(queue), len(queue), "svc.queue: arrival stamp to round start, both halves")
	rep.add("bench.service_ms.p50", "ms", median(svc), len(svc), "svc.round: round start to decision, both halves")
	rep.add("bench.service_ms.tail", "ms", sv, len(svc), tailNote(sp, len(svc)))
	rep.add("bench.max_in_flight", "count", float64(r.MaxInFlight), n, "window 4")
	rep.add("bench.shed", "count", float64(r.Shed), r.Arrived, "")
	rep.add("feeds.fanout_ms.p50", "ms", median(fanout), len(fanout), "svc.fanout span minus the population's modelled delay")
	rep.add("feeds.shed", "count", float64(r.SubDropped), len(fanout), "updates the representatives' buffers shed")
	rep.add("runtime.mux.stale_per_round", "count", stale/float64(max(n, 1)), n, "mux.stale_frames per decided round")
	rep.add("runtime.mux.useful_share", "ratio", routed/(routed+stale), n, "routed ÷ (routed + stale); routed estimated from the captured round")
	onTime := 0
	for _, v := range r.LatencyMS.Samples {
		if v <= svcLimitMS {
			onTime++
		}
	}
	rep.info("on_time_share %.4f: arrivals decided within %g ms of %d (shed and failed count as late)", float64(onTime)/float64(max(r.Arrived, 1)), svcLimitMS, r.Arrived)
	rep.add("svc.gen_late_ms.p50", "ms", median(late), len(late), fmt.Sprintf("arrival stamp minus due time, relative to the least late; max %.4g", quantile(late, 1)))
	path, err := writeTrace(cfg, func(w io.Writer) error { _, err := w.Write(raw); return err })
	if err != nil {
		return err
	}
	rep.info("trace: %s", path)
	return nil
}
