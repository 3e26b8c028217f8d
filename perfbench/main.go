// Command perfbench is the repository benchmark. It drives the simulator,
// one persistent loopback-tcp session and the continuous-service mode from
// one process, checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload sim-cells --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with no
// instrumentation attached. --trace 1 is a separate run that reports the
// per-layer ledger: half of it repeats the untraced measurement, the other
// half attaches the probes and counters, so the tracing overhead is
// measured within the run. README.md defines every metric per workload and
// names the end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	_ "delphi/internal/backend" // registers the tcp backend and its service mode
)

// defaultSeed is the development seed: the simulator goldens are recorded
// at it. README.md names the held-out seed.
const defaultSeed = 1

// traceDir is where a traced run writes its Perfetto trace.
const traceDir = ".bench_build/traces"

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(config, *report) error{
	"sim-cells":   runSimCells,
	"tcp-round":   runTCPRound,
	"tcp-service": runTCPService,
}

// endToEnd lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order.
var endToEnd = []string{"setup_s", "peak_heap_mb", "op_ms.p50", "op_ms.tail", "throughput_per_s", "decision_ms"}

// perLayer lists the per-layer metrics with their units, in BENCHMARK.json
// order; serviceLayers (tcp.go) follow them. A live-only figure reads 0 on
// sim-cells, a service-only one on every other workload.
var perLayer = []struct{ name, unit string }{
	{"binaa.deliveries", "count/op"}, {"binaa.deliver_ns", "ns"}, {"binaa.sends_per_delivery", "count"},
	{"binaa.allocs_per_delivery", "count"}, {"binaa.bytes_per_delivery", "B"},
	{"acs.deliveries", "count/op"}, {"acs.deliver_ns", "ns"}, {"acs.sends_per_delivery", "count"},
	{"acs.allocs_per_delivery", "count"}, {"acs.bytes_per_delivery", "B"},
	{"aaa.deliveries", "count/op"}, {"aaa.deliver_ns", "ns"}, {"aaa.sends_per_delivery", "count"},
	{"sim.events", "count/op"}, {"sim.event_ns", "ns"}, {"sim.self_share", "ratio"},
	{"sim.delphi_ms", "ms"}, {"sim.baseline_ms", "ms"}, {"sim.scale_ms", "ms"},
	{"codec.encode_ns", "ns"}, {"codec.decode_ns", "ns"}, {"codec.decode_allocs", "count"}, {"wire.bytes_per_msg", "B"},
	{"auth.seal_ns", "ns"}, {"auth.open_ns", "ns"}, {"auth.open_rejects", "count/op"},
	{"runtime.msgs_per_envelope", "ratio"},
	{"runtime.frames_per_round", "count"}, {"runtime.bytes_per_round", "B"},
	{"runtime.msgs_per_flush", "ratio"}, {"runtime.flushes_per_round", "count"}, {"runtime.transport_drops", "count"},
	{"backend.session_open_ms", "ms"}, {"backend.round_overhead_ms", "ms"},
	{"go.gc_cycles_per_op", "count"}, {"go.gc_pause_ms_per_op", "ms"}, {"go.alloc_mb_per_op", "MB"},
	{"proc.cpu_ms_per_op", "ms"}, {"trace.overhead_ratio", "ratio"},
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sim-cells, tcp-round or tcp-service")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed; every input derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 40, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	record := flag.Int("record-goldens", 0, "print the simulator goldens of this many passes at the default seed and exit")
	flag.Parse()
	if *record > 0 {
		if err := recordGoldens(*record); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || !(cfg.seconds > 0) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload sim-cells|tcp-round|tcp-service, --trace 0|1 and --seconds > 0\n")
		os.Exit(2)
	}
	// The live runtime logs every frame it drops; the benchmark counts the
	// authentication rejects among them and keeps the rest off the output.
	log.SetOutput(&logCounter)

	rep := &report{metrics: map[string]metric{}}
	if err := run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n and note are printed in the human table only.
	n    int
	note string
}

// report collects a run's metrics and operation accounting.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
	// infos are printed above the table: figures that are not metrics.
	infos []string
}

// add records a metric with its sample count and an optional note.
func (r *report) add(name, unit string, v float64, n int, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit, n: n, note: note}
}

// info records a line for the human output.
func (r *report) info(format string, args ...any) {
	r.infos = append(r.infos, fmt.Sprintf(format, args...))
}

// op accounts one operation; a non-nil err marks it failed. Failures are
// counted, never dropped: the first few are printed with the result.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// print writes the human table and, as the last line, the JSON result. It
// refuses a run that did not measure exactly the metrics of its mode.
func (r *report) print(w io.Writer, cfg config) error {
	want := endToEnd
	if cfg.trace {
		want = nil
		for _, m := range append(perLayer, serviceLayers...) {
			want = append(want, m.name)
		}
	}
	for _, name := range want {
		if _, ok := r.metrics[name]; !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("%d metrics measured, %d expected", len(r.metrics), len(want))
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a finite number", name)
		}
	}
	names := append([]string(nil), want...)
	sort.Strings(names)
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g %s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	for _, line := range r.infos {
		fmt.Fprintf(w, "# %s\n", line)
	}
	fmt.Fprintf(w, "%-28s %14s %-8s %8s  %s\n", "metric", "value", "unit", "n", "note")
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-28s %14.6g %-8s %8d  %s\n", name, m.Value, m.Unit, m.n, m.note)
	}
	share := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(w, "%-28s %14.6g %-8s %8d  failed=%d of attempted=%d\n", "fail_share", share, "ratio", r.attempted, r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "# failure: %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// setUps is how many times a run sets up; setup_s is their median.
const setUps = 5

// deadline returns when a phase of the given share of the run ends.
func deadline(cfg config, share float64) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * share * float64(time.Second)))
}

// another reports whether a loop of operations that must end by end has
// time for one more, given the durations so far, ms: simulator passes and
// service bursts are seconds long, so a run stops before an operation it
// cannot finish rather than running past its time.
func another(end time.Time, done []float64) bool {
	if len(done) == 0 {
		return time.Now().Before(end)
	}
	return time.Now().Add(time.Duration(median(done) * float64(time.Millisecond))).Before(end)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the p-quantile of xs by linear interpolation.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := p * float64(len(s)-1)
	lo := int(idx)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(idx-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tail returns the 90th percentile of xs and that percentile. Below 100
// samples, fewer than ten would lie beyond it, so the tail is the highest
// percentile with at least ten samples beyond it, 1 - 10/n; below 20
// samples no percentile above the median has ten beyond it, and the tail
// is the median.
func tail(xs []float64) (float64, float64) {
	p := math.Max(0.5, math.Min(0.9, 1-10/float64(len(xs))))
	return quantile(xs, p), p
}

// tailNote renders the percentile and sample count of a tail.
func tailNote(p float64, n int) string {
	return fmt.Sprintf("p%.4g of n=%d", p*100, n)
}

// heapTrack polls the live heap (bytes marked live by the last GC) while a
// timed phase runs and keeps every change with its time.
type heapTrack struct {
	stop, done chan struct{}
	// at and live are written by the poller until done closes.
	at   []time.Time
	live []uint64
}

func startHeap() *heapTrack {
	h := &heapTrack{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		// Collections are tens of milliseconds apart or more, so a 5 ms
		// poll sees every collection's reading.
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); len(h.live) == 0 || v != h.live[len(h.live)-1] {
				h.at = append(h.at, time.Now())
				h.live = append(h.live, v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// interval is one timed operation's span.
type interval struct{ start, end time.Time }

// addHeap stops the poller and reports peak_heap_mb: for each operation
// the largest live heap in effect during it, and the median over the
// operations. One operation's peak depends on where the collections fell
// in it; the median over many does not.
func (r *report) addHeap(h *heapTrack, ops []interval) {
	close(h.stop)
	<-h.done
	peaks := make([]float64, 0, len(ops))
	for _, op := range ops {
		var peak uint64
		for i, at := range h.at {
			inEffect := at.Before(op.start) && (i+1 == len(h.at) || !h.at[i+1].Before(op.start))
			if inEffect || (!at.Before(op.start) && !at.After(op.end)) {
				peak = max(peak, h.live[i])
			}
		}
		peaks = append(peaks, float64(peak)/1e6)
	}
	r.add("peak_heap_mb", "MB", median(peaks), len(peaks), "median over operations of the largest live heap during each")
}

// goStats is a snapshot of the Go runtime's and the process's counters.
type goStats struct {
	gc      uint32
	pauseNS uint64
	alloc   uint64
	cpu     time.Duration
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	// Getrusage on the own process cannot fail with valid arguments; a
	// zero reading would show as a zero CPU figure.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return goStats{gc: m.NumGC, pauseNS: m.PauseTotalNs, alloc: m.TotalAlloc, cpu: cpu}
}

// addGoLayer reports the Go runtime and process costs between two
// snapshots, per operation.
func (r *report) addGoLayer(a, b goStats, ops int) {
	n := float64(max(ops, 1))
	r.add("go.gc_cycles_per_op", "count", float64(b.gc-a.gc)/n, ops, "")
	r.add("go.gc_pause_ms_per_op", "ms", float64(b.pauseNS-a.pauseNS)/1e6/n, ops, "")
	r.add("go.alloc_mb_per_op", "MB", float64(b.alloc-a.alloc)/1e6/n, ops, "")
	r.add("proc.cpu_ms_per_op", "ms", ms(b.cpu-a.cpu)/n, ops, "user+system CPU of the whole process")
}

// logSink counts the runtime's log lines that report a frame failing
// authentication, and discards the rest.
type logSink struct {
	mu      sync.Mutex
	rejects int
}

var logCounter logSink

func (s *logSink) Write(p []byte) (int, error) {
	if strings.Contains(string(p), "unauthentic frame") {
		s.mu.Lock()
		s.rejects++
		s.mu.Unlock()
	}
	return len(p), nil
}

func (s *logSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejects
}

// writeTrace writes the recorder's spans once, at the end of a traced run.
func writeTrace(cfg config, write func(io.Writer) error) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := write(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
