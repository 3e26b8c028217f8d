package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/obs"
	"delphi/internal/sim"
)

// The sim-cells workload runs, closed loop, one pass after another over a
// fixed set of cells, each cell one Engine.RunTrials call on the sequential
// default executor, two cells at a time (simWorkers). No wire, auth or
// runtime code runs in it. Its cells fall in three groups, each with its
// own time per pass in the traced ledger (sim.delphi_ms, sim.baseline_ms,
// sim.scale_ms):
//
//   - delphi: the Delphi cells, mostly BinAA work (binaa.*).
//   - baseline: FIN, Abraham and Dolev at n=16 and n=40, event-core and
//     RBC/ABA work at about 1 µs per message (acs.*, aaa.*).
//   - scale: Dolev at n=1000, the scale target's quick cell, mostly
//     event-core work (sim.*).
//
// So a change to BinAA and a change to the simulator show in different
// groups, and each has one that bypasses it.

// The cell groups of sim-cells.
const (
	groupDelphi   = "delphi"
	groupBaseline = "baseline"
	groupScale    = "scale"
)

var groups = []string{groupDelphi, groupBaseline, groupScale}

// role is what a cell is used for in the workload.
type role int

const (
	measured role = iota // run in every pass
	headline             // run in every pass; its virtual latency is decision_ms
	warm                 // run during set-up only
)

// cell is one simulator configuration.
type cell struct {
	name  string
	group string
	sc    bench.Scenario
	role  role
	// replay marks the cells a traced run records and replays: every one
	// for the per-delivery allocations of its family, the one with wire
	// set also for the codec, envelope and auth costs.
	replay, wire bool
}

// simCells returns every cell: Delphi at n=16 and n=40 with the oracle
// parameters (Δ=2000$, ε=2$) on AWS, Delphi at n=16 with t crashed nodes and
// with one ByzSpam node, the FIN, Abraham and Dolev baselines at n=16 and
// n=40, the scale target's quick cell, Dolev at n=1000, and the warm-up
// cells of set-up.
func simCells() []cell {
	oracle := bench.OracleDefaultParams()
	// bench.ScaleSweep's quick parameters: Δ/ε = 4, two halving rounds.
	quick := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 8, Eps: 2}
	mk := func(group, name string, p bench.Protocol, n int, r role, tweak func(*bench.Scenario)) cell {
		sc := bench.Scenario{
			Name: name, Protocol: p, N: n, Env: sim.AWS(),
			Params: oracle, Center: 41000, Delta: 20,
		}
		if p == bench.ProtoDolev {
			sc.F = (n - 1) / 5 // Dolev needs n >= 5t+1
		}
		if tweak != nil {
			tweak(&sc)
		}
		return cell{name: name, group: group, sc: sc, role: r}
	}
	scale := func(s *bench.Scenario) { s.Params, s.Delta = quick, 8 }
	cells := []cell{
		mk(groupDelphi, "delphi/aws/n=16", bench.ProtoDelphi, 16, measured, nil),
		mk(groupDelphi, "delphi/aws/n=40", bench.ProtoDelphi, 40, headline, nil),
		mk(groupDelphi, "delphi/aws/n=16/crash=t", bench.ProtoDelphi, 16, measured, func(s *bench.Scenario) { s.Crashes = 5 }),
		mk(groupDelphi, "delphi/aws/n=16/byz=spam", bench.ProtoDelphi, 16, measured, func(s *bench.Scenario) {
			s.Byzantine, s.ByzKind = 1, bench.ByzSpam
		}),
		mk(groupBaseline, "fin/aws/n=16", bench.ProtoFIN, 16, measured, nil),
		mk(groupBaseline, "fin/aws/n=40", bench.ProtoFIN, 40, measured, nil),
		mk(groupBaseline, "abraham/aws/n=16", bench.ProtoAbraham, 16, measured, nil),
		mk(groupBaseline, "abraham/aws/n=40", bench.ProtoAbraham, 40, measured, nil),
		mk(groupBaseline, "dolev/aws/n=16", bench.ProtoDolev, 16, measured, nil),
		mk(groupBaseline, "dolev/aws/n=40", bench.ProtoDolev, 40, measured, nil),
		mk(groupScale, "dolev/aws/n=1000", bench.ProtoDolev, 1000, measured, scale),
		mk(groupDelphi, "warm/delphi/aws/n=16", bench.ProtoDelphi, 16, warm, nil),
		mk(groupBaseline, "warm/fin/aws/n=16", bench.ProtoFIN, 16, warm, nil),
		mk(groupBaseline, "warm/abraham/aws/n=24", bench.ProtoAbraham, 24, warm, nil),
		mk(groupScale, "warm/dolev/aws/n=320", bench.ProtoDolev, 320, warm, scale),
	}
	for i := range cells {
		switch cells[i].name {
		case "delphi/aws/n=40":
			cells[i].replay, cells[i].wire = true, true
		case "fin/aws/n=40":
			cells[i].replay = true
		}
	}
	return cells
}

// golden is a cell's deterministic simulator result at the default seed.
type golden struct {
	LatencyNS int64 `json:"latency_ns"`
	Msgs      int   `json:"msgs"`
	Bytes     int64 `json:"bytes"`
}

func goldenOf(st *bench.RunStats) golden {
	return golden{LatencyNS: int64(st.Latency), Msgs: st.TotalMsgs, Bytes: st.TotalBytes}
}

// goldensJSON holds, per cell, the results of passes 0, 1, ... at the
// default seed, recorded with --record-goldens.
//
//go:embed goldens.json
var goldensJSON []byte

// simChecker verifies every cell run's outputs and, at the default seed,
// its virtual latency, messages and bytes against the goldens.
type simChecker struct {
	goldens map[string][]golden
	checked int // runs compared against a golden
}

func newSimChecker(cfg config) (*simChecker, error) {
	c := &simChecker{}
	if cfg.seed != defaultSeed {
		return c, nil
	}
	if err := json.Unmarshal(goldensJSON, &c.goldens); err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	return c, nil
}

func (c *simChecker) check(cl cell, pass int, spec bench.RunSpec, st *bench.RunStats) error {
	if err := checkOutputs(spec, st); err != nil {
		return fmt.Errorf("%s pass %d: %w", cl.name, pass, err)
	}
	if g := c.goldens[cl.name]; pass < len(g) {
		c.checked++
		if got := goldenOf(st); got != g[pass] {
			return fmt.Errorf("%s pass %d: got %+v, golden %+v", cl.name, pass, got, g[pass])
		}
	}
	return nil
}

// simRun is the shared state of one sim-cells invocation.
type simRun struct {
	cfg   config
	cells []cell
	eng   *bench.Engine
	chk   *simChecker
	rep   *report
	// rec and track hold the traced run's benchmark spans (nil otherwise).
	rec   *obs.Recorder
	track *obs.Track
}

// simWorkers is how many cell runs a pass keeps going at once: the
// engine's default, one per core of the two-core host, each running one
// cell on the sequential executor, as Engine.RunBatch's workers do. Run
// one at a time, a pass leaves a core idle, and its time followed the
// host's contention on the busy core: over five interleaved pairs of runs
// the pass median spread 0.146 (quartile distance ÷ median) one at a time
// and 0.054 two at a time.
const simWorkers = 2

// cellRun is one cell run of a pass.
type cellRun struct {
	spec   bench.RunSpec
	start  time.Time
	d      time.Duration
	st     *bench.RunStats
	probed *probedRun // set by probed passes
	err    error
}

// parallel runs the cells for which role(c) holds, simWorkers at a time,
// the largest first so that no worker is left with a long cell at the end,
// and returns their runs by cell index. do runs on the worker's goroutine;
// w numbers the worker.
func (s *simRun) parallel(p int, role func(cell) bool, do func(w int, spec bench.RunSpec) cellRun) map[int]cellRun {
	var order []int
	for i, cl := range s.cells {
		if role(cl) {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return s.cells[order[a]].sc.N > s.cells[order[b]].sc.N })
	runs := make([]cellRun, len(s.cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runs[i] = do(w, s.cells[i].sc.Spec(s.cfg.seed, p))
			}
		}()
	}
	for _, i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	out := make(map[int]cellRun, len(order))
	for _, i := range order {
		out[i] = runs[i]
	}
	return out
}

// runTrial is a parallel step: one cell run through Engine.RunTrials.
func (s *simRun) runTrial(_ int, spec bench.RunSpec) cellRun {
	r := cellRun{spec: spec, start: time.Now()}
	var out []*bench.RunStats
	out, r.err = s.eng.RunTrials(spec, 1)
	r.d = time.Since(r.start)
	if r.err == nil {
		r.st = out[0]
	}
	return r
}

// account checks one cell run and counts it as an operation; a failed run
// has no stats.
func (s *simRun) account(cl cell, p int, r *cellRun) {
	if r.err == nil {
		r.err = s.chk.check(cl, p, r.spec, r.st)
	}
	s.rep.op(r.err)
	if r.err != nil {
		r.st = nil
	}
}

func isWarm(cl cell) bool     { return cl.role == warm }
func isMeasured(cl cell) bool { return cl.role != warm }

// warmRound numbers set-up operations apart from the timed ones 0, 1, ...
const warmRound = 1 << 30

// setUp runs the warm-up cells once, so lazy initialisation, heap growth
// and the code's first page faults happen before the first timed pass. It
// returns the set-up's duration.
func (s *simRun) setUp(k int) time.Duration {
	t0 := time.Now()
	for i, r := range s.parallel(warmRound+k, isWarm, s.runTrial) {
		s.account(s.cells[i], warmRound+k, &r)
	}
	return time.Since(t0)
}

// passStats is one pass's measurements.
type passStats struct {
	span     interval
	cells    []float64 // wall time of each measured cell run, ms, in cell order
	groups   map[string]float64
	msgs     int
	headline *bench.RunStats
}

// pass runs every measured cell once.
func (s *simRun) pass(p int) passStats {
	ps := passStats{span: interval{start: time.Now()}, groups: map[string]float64{}}
	runs := s.parallel(p, isMeasured, s.runTrial)
	ps.span.end = time.Now()
	for i, cl := range s.cells {
		r, ok := runs[i]
		if !ok {
			continue
		}
		s.account(cl, p, &r)
		s.track.SpanAt("cell "+cl.name, s.rec.WallNS(r.start), s.rec.WallNS(r.start.Add(r.d)), int64(p), int64(i))
		ps.cells = append(ps.cells, ms(r.d))
		ps.groups[cl.group] += ms(r.d)
		if r.st != nil {
			ps.msgs += r.st.TotalMsgs
			if cl.role == headline {
				ps.headline = r.st
			}
		}
	}
	return ps
}

// minPasses is the fewest passes a run makes, whatever --seconds says; the
// virtual decision latency averages exactly this many.
const minPasses = 3

func runSimCells(cfg config, rep *report) error {
	chk, err := newSimChecker(cfg)
	if err != nil {
		return err
	}
	s := &simRun{cfg: cfg, eng: bench.NewEngine(1), chk: chk, rep: rep}
	for _, cl := range simCells() {
		if err := cl.sc.Validate(); err != nil {
			return err
		}
		s.cells = append(s.cells, cl)
	}
	if cfg.trace {
		return s.traced()
	}
	var setups []float64
	for k := 0; k < setUps; k++ {
		setups = append(setups, s.setUp(k).Seconds())
	}
	rep.add("setup_s", "s", median(setups), len(setups), "median of the set-ups, each one run of the warm-up cells")

	heap := startHeap()
	end := deadline(cfg, 1)
	var spans []interval
	var walls, latency, kb []float64
	var cellWalls [][]float64 // per pass
	groupWalls := map[string][]float64{}
	var msgs int
	var total time.Duration
	for p := 0; p < minPasses || another(end, walls); p++ {
		ps := s.pass(p)
		d := ps.span.end.Sub(ps.span.start)
		spans = append(spans, ps.span)
		walls = append(walls, ms(d))
		cellWalls = append(cellWalls, ps.cells)
		for g, v := range ps.groups {
			groupWalls[g] = append(groupWalls[g], v)
		}
		msgs += ps.msgs
		total += d
		if h := ps.headline; p < minPasses && h != nil {
			latency = append(latency, ms(h.Latency))
			kb = append(kb, float64(h.TotalBytes)/1e3/float64(len(h.Outputs)))
		}
	}
	rep.addHeap(heap, spans)
	n := len(walls)
	rep.add("op_ms.p50", "ms", median(walls), n, "wall time per pass over the cells")
	rep.addCellTail(median(walls), cellWalls)
	rep.add("throughput_per_s", "1/s", float64(msgs)/total.Seconds(), msgs, "simulated messages per second of pass wall time")
	if len(latency) == minPasses {
		rep.add("decision_ms", "ms", mean(latency), len(latency), "virtual decision latency of delphi/aws/n=40, mean of passes 0-2")
		rep.info("delphi/aws/n=40: %.3f virtual wire kB per node, mean of passes 0-2", mean(kb))
	}
	for _, g := range groups {
		rep.info("sim.%s_ms %.1f: summed run time of the %s cells per pass, median", g, median(groupWalls[g]), g)
	}
	rep.info("pass wall times, ms: %.0f", walls)
	rep.info("goldens compared: %d cell runs", chk.checked)
	return nil
}

// traced runs untraced passes for the first part of the run, then probed
// passes for the second, then records and replays the replay cells; the
// phases share --seconds.
func (s *simRun) traced() error {
	s.rec = obs.New()
	s.track = s.rec.NewTrack("perfbench "+s.cfg.workload, nil)
	s.setUp(0)
	var plain []float64
	groupWalls := map[string][]float64{}
	endA := deadline(s.cfg, 0.45)
	p := 0
	for ; p == 0 || another(endA, plain); p++ {
		ps := s.pass(p)
		plain = append(plain, ms(ps.span.end.Sub(ps.span.start)))
		for g, v := range ps.groups {
			groupWalls[g] = append(groupWalls[g], v)
		}
	}

	tot := newProbedTotals()
	var probed []float64
	scratch := make([]*sim.Scratch, simWorkers)
	for w := range scratch {
		scratch[w] = new(sim.Scratch)
	}
	probe := func(w int, spec bench.RunSpec) cellRun {
		r := cellRun{spec: spec, start: time.Now()}
		r.probed, r.err = runProbed(spec, false, scratch[w])
		r.d = time.Since(r.start)
		if r.err == nil {
			r.st = r.probed.stats
		}
		return r
	}
	endB := deadline(s.cfg, 0.45)
	before := readGoStats()
	for first := p; p == first || another(endB, probed); p++ {
		start := time.Now()
		runs := s.parallel(p, isMeasured, probe)
		probed = append(probed, ms(time.Since(start)))
		for i, cl := range s.cells {
			r, ok := runs[i]
			if !ok {
				continue
			}
			s.track.SpanAt("probed "+cl.name, s.rec.WallNS(r.start), s.rec.WallNS(r.start.Add(r.d)), int64(p), int64(i))
			s.account(cl, p, &r)
			if r.err == nil {
				tot.add(r.probed)
			}
		}
	}
	after := readGoStats()
	passes := len(probed)
	r := s.rep
	r.addGoLayer(before, after, passes)
	r.add("trace.overhead_ratio", "ratio", median(probed)/median(plain), passes, fmt.Sprintf("probed ÷ plain pass wall time, %d and %d passes", passes, len(plain)))
	for _, g := range groups {
		r.add("sim."+g+"_ms", "ms", median(groupWalls[g]), len(groupWalls[g]), "summed run time of the "+g+" cells per untraced pass, median")
	}
	tot.report(r, passes, "per pass")
	r.add("backend.session_open_ms", "ms", median(tot.setups), len(tot.setups), "sim.NewRunner per cell run")
	r.add("backend.round_overhead_ms", "ms", median(tot.overheads), len(tot.overheads), "cell run time outside Runner.Run: processes, runner, stats")
	for _, m := range []struct{ name, unit string }{
		{"auth.open_rejects", "count/op"}, {"runtime.msgs_per_flush", "ratio"},
		{"runtime.flushes_per_round", "count"}, {"runtime.transport_drops", "count"},
	} {
		r.add(m.name, m.unit, 0, 0, "live transports only; none on the simulator")
	}
	noService(r)

	for _, cl := range s.cells {
		if !cl.replay {
			continue
		}
		run, err := runProbed(cl.sc.Spec(s.cfg.seed, 0), true, scratch[0])
		if err != nil {
			return err
		}
		if err := addRecorded(r, run, cl.name, cl.wire); err != nil {
			return err
		}
	}
	path, err := writeTrace(s.cfg, s.rec.WriteTrace)
	if err != nil {
		return err
	}
	r.info("trace: %s", path)
	return nil
}

// noGroups reports the sim-cells group times as absent from a workload.
func noGroups(r *report) {
	for _, g := range groups {
		r.add("sim."+g+"_ms", "ms", 0, 0, "sim-cells only")
	}
}

// addCellTail reports op_ms.tail of sim-cells: a pass in which every cell
// runs at the 90th percentile of its own run times. A run has too few
// passes for ten to lie beyond a high percentile of them, and the cells of
// a pass overlap, so the tail is the median pass scaled by the ratio of
// the cells' summed p90 run times to their summed medians. Summing weights
// each cell by its length, so the long cells that make up most of a pass
// set the tail, not the short ones whose relative noise is largest.
func (r *report) addCellTail(pass float64, cellWalls [][]float64) {
	var p90, p50 float64
	for c := range cellWalls[0] {
		var runs []float64
		for _, cells := range cellWalls {
			runs = append(runs, cells[c])
		}
		p90 += quantile(runs, 0.9)
		p50 += median(runs)
	}
	r.add("op_ms.tail", "ms", pass*p90/p50, len(cellWalls), fmt.Sprintf("median pass × %.4f, the cells' summed p90 ÷ summed median run times", p90/p50))
}

// recordGoldens prints the goldens of passes 0..passes-1 at the default
// seed in goldens.json's format, one cell per line.
func recordGoldens(passes int) error {
	eng := bench.NewEngine(1)
	var cells []cell
	for _, c := range simCells() {
		if c.role != warm {
			cells = append(cells, c)
		}
	}
	fmt.Println("{")
	for i, cl := range cells {
		var gs []golden
		for p := 0; p < passes; p++ {
			res, err := eng.RunTrials(cl.sc.Spec(defaultSeed, p), 1)
			if err != nil {
				return err
			}
			gs = append(gs, goldenOf(res[0]))
		}
		row, err := json.Marshal(gs)
		if err != nil {
			return err
		}
		sep := ","
		if i == len(cells)-1 {
			sep = ""
		}
		fmt.Printf(" %q: %s%s\n", cl.name, row, sep)
	}
	fmt.Println("}")
	return nil
}
