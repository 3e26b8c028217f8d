package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the sim byte-identity golden file")

// goldenSimCells is the byte-identity corpus: one cell per protocol ×
// adversary preset (clean plus the five netadv presets), all at one fixed
// seed. The corpus is deliberately small — its job is not coverage but a
// bit-exact fingerprint of the simulator's schedule: any change to event
// ordering, rng consumption, latency/cost arithmetic, or adversarial delay
// evaluation shifts at least one cell's latency, traffic, or outputs.
func goldenSimCells() []RunSpec {
	params := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2}
	advs := append([]netadv.Adversary{{}}, netadv.Presets()...)
	var specs []RunSpec
	for _, proto := range []Protocol{ProtoDelphi, ProtoFIN, ProtoAbraham, ProtoDolev} {
		n, f := 8, 2
		if proto == ProtoDolev {
			n, f = 6, 1 // Dolev needs n >= 5t+1
		}
		for _, adv := range advs {
			const seed = 424242
			specs = append(specs, RunSpec{
				Protocol:  proto,
				N:         n,
				F:         f,
				Env:       sim.AWS(),
				Seed:      seed,
				Inputs:    OracleInputs(n, 41000, 20, seed),
				Delphi:    params,
				Adversary: adv,
			})
		}
	}
	return specs
}

// goldenLine renders one cell's stats with no precision loss: durations as
// integer nanoseconds, floats in hexadecimal so every mantissa bit is in the
// file. Two runs produce the same line iff they are byte-identical.
func goldenLine(spec RunSpec, st *RunStats) string {
	hex := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	outs := make([]string, len(st.Outputs))
	for i, v := range st.Outputs {
		outs[i] = hex(v)
	}
	return fmt.Sprintf("%s/%s lat=%d bytes=%d msgs=%d spread=%s abserr=%s sigv=%d pair=%d outs=%s",
		spec.Protocol, spec.Adversary, int64(st.Latency), st.TotalBytes, st.TotalMsgs,
		hex(st.Spread), hex(st.MeanAbsErr), st.SigVerifies, st.Pairings,
		strings.Join(outs, ","))
}

// TestSimGoldenByteIdentity is the fixed-seed byte-identity gate: the
// simulator's outputs for every protocol under every adversary preset must
// match the checked-in golden file bit for bit. The goldens were generated
// from the original container/heap simulator, so a pass certifies that the
// current event queue reproduces that schedule exactly. Regenerate with
// -update-golden only for a change that deliberately alters the simulated
// schedule.
func TestSimGoldenByteIdentity(t *testing.T) {
	checkGolden(t, "golden_sim.txt", goldenSimCells())
}

// goldenScaleCells is the scale byte-identity corpus: Dolev at n=400 with
// ScaleSweep's quick parameters, clean and under every netadv preset, plus
// Delphi at n=40 on the oracle parameters. At this size hundreds of
// thousands of events are in flight at once, and the presets' long delays
// reach past the event queue's near horizon, so these cells pin the queue's
// far-future path and its bucket boundaries, which the n≤8 corpus above
// barely touches.
func goldenScaleCells() []RunSpec {
	const seed = 424242
	quick := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 8, Eps: 2}
	var specs []RunSpec
	for _, adv := range append([]netadv.Adversary{{}}, netadv.Presets()...) {
		sc := Scenario{
			Protocol: ProtoDolev, N: 400, F: (400 - 1) / 5, Env: sim.AWS(),
			Params: quick, Center: 41000, Delta: 8, Adversary: adv,
		}
		specs = append(specs, sc.Spec(seed, 0))
	}
	sc := Scenario{
		Protocol: ProtoDelphi, N: 40, Env: sim.AWS(),
		Params: OracleDefaultParams(), Center: 41000, Delta: 20,
	}
	return append(specs, sc.Spec(seed, 0))
}

// TestSimGoldenScale is the byte-identity gate at scale: the cells of
// goldenScaleCells must reproduce testdata/golden_sim_scale.txt bit for bit.
// The file was recorded with the global 4-ary heap as the sequential event
// queue, so a pass certifies that the calendar queue replacing it pops in
// exactly the same order, including events that wait past its ring's
// horizon — which at least one cell must produce.
func TestSimGoldenScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale goldens run Dolev at n=400 (seconds); skipped in -short")
	}
	spills := sim.OverflowSpills()
	checkGolden(t, "golden_sim_scale.txt", goldenScaleCells())
	if sim.OverflowSpills() == spills {
		t.Error("no scale cell sent an event through the event queue's overflow heap")
	}
}

// checkGolden runs every spec and compares the rendered lines against
// testdata/<name>, or rewrites the file under -update-golden.
func checkGolden(t *testing.T, name string, specs []RunSpec) {
	t.Helper()
	var lines []string
	for _, spec := range specs {
		st, err := Run(spec)
		if err != nil {
			t.Fatalf("%s/%s: %v", spec.Protocol, spec.Adversary, err)
		}
		lines = append(lines, goldenLine(spec, st))
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", path, len(lines))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to generate): %v", err)
	}
	if got != string(want) {
		gl := strings.Split(got, "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("cell %d diverged:\n got %s\nwant %s", i, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("cell count diverged: got %d, want %d lines", len(gl), len(wl))
		}
		t.Fatalf("simulator outputs are not byte-identical to %s", path)
	}
}
