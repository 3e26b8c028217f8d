package sim_test

import (
	"reflect"
	"testing"

	"delphi/internal/netadv"
	"delphi/internal/node"
	"delphi/internal/sim"
)

// floodResult runs the synthetic flood protocol and returns the result.
func floodResult(t *testing.T, n int, seed int64, opts ...sim.Option) *sim.Result {
	t.Helper()
	procs := make([]node.Process, n)
	for i := range procs {
		procs[i] = &flood{rounds: 6}
	}
	r, err := sim.NewRunner(node.Config{N: n, F: (n - 1) / 3}, sim.AWS(), seed, procs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r.Run()
}

// resultsIdentical compares two results field by field, including per-node
// accounting and virtual timestamps.
func resultsIdentical(a, b *sim.Result) bool {
	return reflect.DeepEqual(a, b)
}

// TestScratchReuseByteIdentical pins the Scratch contract: reusing one
// Scratch across runs — different sizes, seeds, and adversaries in
// sequence — never changes any run's result.
func TestScratchReuseByteIdentical(t *testing.T) {
	scratch := &sim.Scratch{}
	runs := []struct {
		n    int
		seed int64
		adv  netadv.Kind
	}{
		{16, 7, netadv.None},
		{8, 3, netadv.JitterStorm}, // shrink: buffers re-sliced, not re-grown
		{16, 7, netadv.None},       // repeat of run 0: must match exactly
		{24, 11, netadv.Partition},
	}
	var fresh []*sim.Result
	for _, rn := range runs {
		var opts []sim.Option
		if rn.adv != netadv.None {
			adv := netadv.Adversary{Kind: rn.adv}
			opts = append(opts, sim.WithDelayRule(adv.Rule(rn.n, (rn.n-1)/3, rn.seed)))
		}
		fresh = append(fresh, floodResult(t, rn.n, rn.seed, opts...))
	}
	for i, rn := range runs {
		opts := []sim.Option{sim.WithScratch(scratch)}
		if rn.adv != netadv.None {
			adv := netadv.Adversary{Kind: rn.adv}
			opts = append(opts, sim.WithDelayRule(adv.Rule(rn.n, (rn.n-1)/3, rn.seed)))
		}
		got := floodResult(t, rn.n, rn.seed, opts...)
		if !resultsIdentical(got, fresh[i]) {
			t.Errorf("run %d (n=%d seed=%d adv=%q): scratch reuse changed the result",
				i, rn.n, rn.seed, rn.adv)
		}
	}
}

// TestHaltStopsDeliveries pins the live-count bookkeeping: once every
// process halts the run ends, and messages to halted nodes are not
// processed.
func TestHaltStopsDeliveries(t *testing.T) {
	res := floodResult(t, 7, 5)
	for i, st := range res.Stats {
		if !st.Halted {
			t.Errorf("node %d never halted", i)
		}
		if len(st.Output) == 0 {
			t.Errorf("node %d produced no output", i)
		}
	}
	if res.Events == 0 || res.TotalMsgs == 0 {
		t.Error("empty accounting")
	}
}
