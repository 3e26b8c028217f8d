//go:build !race

// The race detector instruments allocations, so this gate builds only
// without -race (scripts/ci.sh runs it explicitly).

package binaa_test

import (
	"runtime"
	"testing"

	"delphi/internal/bench"
	"delphi/internal/node"
	"delphi/internal/sim"
)

// Allocation budget of the Delphi process (BinAA engine plus the core
// wrapper) per delivered message.
const (
	allocBudget = 8
	byteBudget  = 800
)

type delivery struct {
	from node.ID
	m    node.Message
}

// recorder logs a process's inbound messages without changing them.
type recorder struct {
	node.Process
	log *[]delivery
}

func (r *recorder) Deliver(from node.ID, m node.Message) {
	*r.log = append(*r.log, delivery{from, m})
	r.Process.Deliver(from, m)
}

// nullEnv discards everything a replayed process sends.
type nullEnv struct {
	self node.ID
	n, f int
}

func (e *nullEnv) Self() node.ID                  { return e.self }
func (e *nullEnv) N() int                         { return e.n }
func (e *nullEnv) F() int                         { return e.f }
func (e *nullEnv) Send(node.ID, node.Message)     {}
func (e *nullEnv) Broadcast(node.Message)         {}
func (e *nullEnv) Output(any)                     {}
func (e *nullEnv) Halt()                          {}
func (e *nullEnv) ChargeCompute(node.ComputeCost) {}

// TestAllocBudget records every node's inbound messages in a seed-1 Delphi
// n=16 simulator run (the BenchmarkDelphiNodeStep cell), then replays them
// through fresh processes and counts the heap allocations of the Deliver
// calls alone. A process is a deterministic function of its Init and its
// deliveries, so the replay repeats the run's protocol work exactly,
// without the simulator's allocations in between.
func TestAllocBudget(t *testing.T) {
	spec := bench.RunSpec{
		Protocol: bench.ProtoDelphi, N: 16, F: 5, Env: sim.Local(), Seed: 1,
		Inputs: bench.OracleInputs(16, 41000, 20, 1),
		Delphi: bench.OracleDefaultParams(),
	}
	procs, err := spec.Processes()
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]delivery, spec.N)
	for i, p := range procs {
		procs[i] = &recorder{Process: p, log: &logs[i]}
	}
	r, err := sim.NewRunner(node.Config{N: spec.N, F: spec.F}, spec.Env, spec.Seed, procs)
	if err != nil {
		t.Fatal(err)
	}
	if res := r.Run(); len(res.Stats[0].Output) == 0 {
		t.Fatal("recorded run did not decide")
	}

	fresh, err := spec.Processes()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range fresh {
		p.Init(&nullEnv{self: node.ID(i), n: spec.N, f: spec.F})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	delivered := 0
	for i, p := range fresh {
		for _, d := range logs[i] {
			p.Deliver(d.from, d.m)
		}
		delivered += len(logs[i])
	}
	runtime.ReadMemStats(&after)

	allocs := float64(after.Mallocs-before.Mallocs) / float64(delivered)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(delivered)
	t.Logf("%d deliveries: %.2f allocs, %.0f B per delivery", delivered, allocs, bytes)
	if allocs > allocBudget {
		t.Errorf("%.2f allocs per delivery, budget %d", allocs, allocBudget)
	}
	if bytes > byteBudget {
		t.Errorf("%.0f B per delivery, budget %d", bytes, byteBudget)
	}
}
