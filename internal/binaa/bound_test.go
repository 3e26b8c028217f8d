package binaa

import (
	"math"
	"testing"

	"delphi/internal/node"
)

// quietEnv discards everything an engine sends.
type quietEnv struct{ n, f int }

func (e *quietEnv) Self() node.ID                  { return 0 }
func (e *quietEnv) N() int                         { return e.n }
func (e *quietEnv) F() int                         { return e.f }
func (e *quietEnv) Send(node.ID, node.Message)     {}
func (e *quietEnv) Broadcast(node.Message)         {}
func (e *quietEnv) Output(any)                     {}
func (e *quietEnv) Halt()                          {}
func (e *quietEnv) ChargeCompute(node.ComputeCost) {}

// TestInvalidValuesDropped sends one Byzantine sender's votes with NaN,
// infinite and out-of-[0,1] values through every entry point — explicit
// Echo1 and Echo2 entries, init-bundle entries, compressed-bundle escapes,
// symbols stepping outside [0,1] and NewVals — to one engine, and only the
// valid remainder of the same traffic to a twin. No tally may grow and no
// instance may activate from a bogus value: the two engines must end in
// the same state.
func TestInvalidValuesDropped(t *testing.T) {
	cfg := Config{Config: node.Config{N: 4, F: 1}, Rounds: 3}
	own, base := IID{K: 1}, IID{K: 2}
	newEngine := func() *Engine {
		e, err := NewEngine(cfg, map[IID]float64{own: 1}, func(map[IID]float64) {})
		if err != nil {
			t.Fatal(err)
		}
		e.Start(&quietEnv{n: 4, f: 1})
		return e
	}
	attacked, twin := newEngine(), newEngine()
	const byz = node.ID(3)

	bogus := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 1.5}
	for i := 0; i < 2000; i++ {
		v := bogus[i%len(bogus)]
		if i%2 == 1 {
			v = 1 + float64(i)/1000 // distinct out-of-range values
		}
		vals := []IVal{{ID: own, Round: 1, V: v}, {ID: IID{K: int32(100 + i)}, Round: 1, V: v}}
		attacked.HandleEcho1(byz, &Echo1{Vals: vals})
		attacked.HandleEcho2(byz, &Echo2{Vals: vals})
	}

	// A round-1 init bundle with one valid and one bogus entry.
	attacked.HandleEcho1(byz, &Echo1{Round: 1, Init: true, Vals: []IVal{
		{ID: own, Round: 1, V: 1}, {ID: base, Round: 1, V: 1}, {ID: IID{K: 50}, Round: 1, V: math.NaN()},
	}})
	twin.HandleEcho1(byz, &Echo1{Round: 1, Init: true, Vals: []IVal{
		{ID: own, Round: 1, V: 1}, {ID: base, Round: 1, V: 1},
	}})
	// A round-2 compressed bundle on that base whose every entry is bogus:
	// a NaN escape, a half-step right of 1, and a NewVals entry of 1.5. Its
	// valid remainder is an empty round-2 bundle.
	attacked.HandleEcho1C(byz, &Echo1C{
		Round: 2, PrevCount: 2,
		Deltas:  packNibbles([]uint8{symX, symR}),
		Escapes: []float64{math.NaN()},
		NewVals: []IVal{{ID: IID{K: 51}, V: 1.5}},
	})
	twin.HandleEcho1(byz, &Echo1{Round: 2, Init: true})

	if got, want := attacked.debugState(), twin.debugState(); got != want {
		t.Fatalf("bogus values changed the engine state:\nattacked:\n%s\ntwin:\n%s", got, want)
	}
	if len(attacked.books[1].bundles[byz]) != 0 {
		t.Errorf("round-2 bundle kept bogus entries: %v", attacked.books[1].bundles[byz])
	}
	for _, x := range attacked.instList {
		for r := range x.rounds {
			ir := &x.rounds[r]
			if len(ir.echo1.sets) > slabEcho1 || len(ir.echo2.sets) > slabEcho2 {
				t.Errorf("%v round %d: %d ECHO1 and %d ECHO2 tallies", x.id, r+1, len(ir.echo1.sets), len(ir.echo2.sets))
			}
		}
	}
}
