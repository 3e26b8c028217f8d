package binaa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"delphi/internal/node"
	"delphi/internal/sim"
)

func TestDeltaSymbolRoundTrip(t *testing.T) {
	// Every lattice transition must survive symbol encoding exactly.
	for r := 2; r <= 30; r++ {
		step := math.Pow(2, -float64(r-1))
		base := 0.5
		for _, d := range []float64{-2, -1, 0, 1, 2} {
			newV := base + d*step
			sym, ok := deltaSymbol(base, newV, r)
			if !ok {
				t.Fatalf("r=%d d=%g: lattice transition rejected", r, d)
			}
			if got := applySymbol(base, sym, r); got != newV {
				t.Fatalf("r=%d d=%g: round trip %g != %g", r, d, got, newV)
			}
		}
		// Off-lattice must escape.
		if _, ok := deltaSymbol(base, base+2.5*step, r); ok {
			t.Fatalf("r=%d: off-lattice transition accepted", r)
		}
	}
}

func TestNibblePacking(t *testing.T) {
	f := func(raw []byte) bool {
		syms := make([]uint8, len(raw))
		for i, b := range raw {
			syms[i] = b % 6
		}
		packed := packNibbles(syms)
		if len(packed) != (len(syms)+1)/2 {
			return false
		}
		for i := range syms {
			if nibble(packed, i) != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitmap(t *testing.T) {
	var bits []byte
	for _, i := range []int{0, 3, 8, 17, 64} {
		bits = setBit(bits, i)
	}
	for _, i := range []int{0, 3, 8, 17, 64} {
		if !getBit(bits, i) {
			t.Errorf("bit %d lost", i)
		}
	}
	for _, i := range []int{1, 2, 7, 16, 63, 65, 1000} {
		if getBit(bits, i) {
			t.Errorf("bit %d spuriously set", i)
		}
	}
}

func TestEcho1CMessageRoundTrip(t *testing.T) {
	m := &Echo1C{
		Round:     3,
		PrevCount: 5,
		Deltas:    packNibbles([]uint8{symC, symL, sym2R, symX, symR}),
		Escapes:   []float64{0.625},
		NewVals:   []IVal{{ID: IID{Level: 2, K: -7}, Round: 3, V: 0.25}},
	}
	body, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != m.WireSize()-1 {
		t.Errorf("WireSize %d != 1+len(body) %d", m.WireSize(), 1+len(body))
	}
	dm, err := DecodeEcho1C(body)
	if err != nil {
		t.Fatal(err)
	}
	got := dm.(*Echo1C)
	if got.Round != 3 || got.PrevCount != 5 || len(got.Escapes) != 1 ||
		got.Escapes[0] != 0.625 || len(got.NewVals) != 1 || got.NewVals[0].ID.K != -7 {
		t.Errorf("decoded %+v", got)
	}
}

func TestEcho2CMessageRoundTrip(t *testing.T) {
	m := &Echo2C{Round: 7, Bits: []byte{0xa5, 0x01}}
	body, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dm, err := DecodeEcho2C(body)
	if err != nil {
		t.Fatal(err)
	}
	got := dm.(*Echo2C)
	if got.Round != 7 || len(got.Bits) != 2 || got.Bits[0] != 0xa5 {
		t.Errorf("decoded %+v", got)
	}
}

// TestCompressionEquivalence runs identical BinAA workloads with and
// without compression; the final weights must match exactly and the
// compressed run must use fewer bytes.
func TestCompressionEquivalence(t *testing.T) {
	n, f := 7, 2
	rng := rand.New(rand.NewSource(321))
	mkInputs := func() []map[IID]float64 {
		inputs := make([]map[IID]float64, n)
		for i := range inputs {
			inputs[i] = map[IID]float64{}
			for l := uint8(0); l < 4; l++ {
				k := int32(100 + rng.Intn(4))
				inputs[i][IID{Level: l, K: k}] = 1
			}
		}
		return inputs
	}
	inputs := mkInputs()

	run := func(disable bool) ([]map[IID]float64, int64) {
		cfg := Config{Config: node.Config{N: n, F: f}, Rounds: 12, DisableCompression: disable}
		procs := make([]node.Process, n)
		for i := range procs {
			in := make(map[IID]float64, len(inputs[i]))
			for k, v := range inputs[i] {
				in[k] = v
			}
			p, err := NewProcess(cfg, in)
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = p
		}
		r, err := sim.NewRunner(node.Config{N: n, F: f}, sim.Local(), 5, procs)
		if err != nil {
			t.Fatal(err)
		}
		res := r.Run()
		outs := make([]map[IID]float64, n)
		for i := range procs {
			st := res.Stats[i]
			if len(st.Output) == 0 {
				t.Fatalf("disable=%v node %d: no output", disable, i)
			}
			outs[i] = st.Output[len(st.Output)-1].(map[IID]float64)
		}
		return outs, res.TotalBytes
	}

	plainOuts, plainBytes := run(true)
	compOuts, compBytes := run(false)
	for i := range plainOuts {
		if len(plainOuts[i]) != len(compOuts[i]) {
			t.Fatalf("node %d weight-set size differs: %v vs %v", i, plainOuts[i], compOuts[i])
		}
		for id, v := range plainOuts[i] {
			if compOuts[i][id] != v {
				t.Errorf("node %d %v: plain %g vs compressed %g", i, id, v, compOuts[i][id])
			}
		}
	}
	if compBytes >= plainBytes {
		t.Errorf("compression increased bytes: %d >= %d", compBytes, plainBytes)
	}
}

// TestCompressionWithByzantine ensures the compressed path stays safe and
// live under an equivocating sender and reordering-heavy WAN jitter.
func TestCompressionWithByzantine(t *testing.T) {
	n, f := 7, 2
	for seed := int64(0); seed < 5; seed++ {
		cfg := Config{Config: node.Config{N: n, F: f}, Rounds: 10}
		procs := make([]node.Process, n)
		x := IID{Level: 0, K: 50}
		for i := 1; i < n; i++ {
			in := map[IID]float64{}
			if i%2 == 0 {
				in[x] = 1
			}
			p, err := NewProcess(cfg, in)
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = p
		}
		// Byzantine node 0: garbage compressed bundles.
		procs[0] = &byzCompressed{}
		r, err := sim.NewRunner(node.Config{N: n, F: f}, sim.AWS(), seed, procs)
		if err != nil {
			t.Fatal(err)
		}
		res := r.Run()
		lo, hi := 2.0, -1.0
		for i := 1; i < n; i++ {
			st := res.Stats[i]
			if len(st.Output) == 0 {
				t.Fatalf("seed %d: node %d no output", seed, i)
			}
			w := st.Output[len(st.Output)-1].(map[IID]float64)
			v := w[x]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo > math.Pow(2, -10) {
			t.Errorf("seed %d: spread %g under byzantine compression", seed, hi-lo)
		}
	}
}

// byzCompressed sends malformed Echo1C bundles: wrong PrevCount, short
// deltas, bogus escapes.
type byzCompressed struct{ env node.Env }

func (b *byzCompressed) Init(env node.Env) {
	b.env = env
	env.Broadcast(&Echo1{Round: 1, Init: true, Vals: []IVal{{ID: IID{K: 50}, Round: 1, V: 1}}})
	env.Broadcast(&Echo1C{Round: 2, PrevCount: 9, Deltas: []byte{0xff}, Escapes: []float64{5}})
	env.Broadcast(&Echo1C{Round: 3, PrevCount: 1, Deltas: []byte{symX}, Escapes: nil})
	env.Broadcast(&Echo2C{Round: 2, Bits: []byte{0xff, 0xff, 0xff}})
}

func (b *byzCompressed) Deliver(node.ID, node.Message) {}
