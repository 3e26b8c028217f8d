package aaa

import (
	"fmt"
	"math"
	"slices"

	"delphi/internal/node"
	"delphi/internal/obs"
)

// DolevConfig parameterises the Dolev et al. (JACM'86) baseline, which
// needs n >= 5t+1.
type DolevConfig struct {
	// N is the number of nodes.
	N int
	// F is the fault bound t, with n >= 5t+1.
	F int
	// Rounds is the number of halving rounds.
	Rounds int
}

// Validate checks the configuration.
func (c DolevConfig) Validate() error {
	if c.N <= 0 || c.F < 0 {
		return fmt.Errorf("aaa: invalid n=%d f=%d", c.N, c.F)
	}
	if c.N < 5*c.F+1 {
		return fmt.Errorf("aaa: dolev needs n >= 5t+1, got n=%d t=%d", c.N, c.F)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("aaa: rounds must be >= 1, got %d", c.Rounds)
	}
	return nil
}

// DolevResult is the baseline's output.
type DolevResult struct {
	// Output is the node's final state value.
	Output float64
	// Rounds is the number of rounds run.
	Rounds int
}

// Dolev runs one node of the classic 1986 approximate agreement: plain
// multicast of the state each round, collect n-t values, trim 2t from each
// side, update to the trimmed midpoint.
type Dolev struct {
	cfg     DolevConfig
	env     node.Env
	track   *obs.Track
	roundAt int64
	value   float64
	round   int
	rounds  []dolevRound // indexed by round number; consumed rounds are dropped
	done    bool
}

// dolevRound is one round's collected state: a bitset of the senders heard
// and their values in arrival order. The values are sorted before use, so
// arrival order never reaches the output.
type dolevRound struct {
	seen []uint64
	vals []float64
}

var _ node.Process = (*Dolev)(nil)

// NewDolev creates a node with the given input.
func NewDolev(cfg DolevConfig, input float64) (*Dolev, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(input) || math.IsInf(input, 0) {
		return nil, fmt.Errorf("aaa: input must be finite, got %g", input)
	}
	return &Dolev{cfg: cfg, value: input, rounds: make([]dolevRound, cfg.Rounds+1)}, nil
}

// Init implements node.Process.
func (d *Dolev) Init(env node.Env) {
	d.env = env
	d.track = node.TrackOf(env)
	d.roundAt = d.track.Now()
	d.round = 1
	env.Broadcast(&Value{Round: 1, V: d.value})
}

// Deliver implements node.Process.
func (d *Dolev) Deliver(from node.ID, m node.Message) {
	msg, ok := m.(*Value)
	if !ok || d.done {
		return
	}
	r := int(msg.Round)
	// A value for a round already consumed can no longer change the output.
	if r < 1 || r < d.round || r > d.cfg.Rounds || from < 0 || int(from) >= d.cfg.N {
		return
	}
	rs := &d.rounds[r]
	if rs.seen == nil {
		rs.seen = make([]uint64, (d.cfg.N+63)/64)
		rs.vals = make([]float64, 0, d.cfg.N)
	}
	w, bit := from/64, uint64(1)<<(from%64)
	if rs.seen[w]&bit != 0 {
		return
	}
	rs.seen[w] |= bit
	rs.vals = append(rs.vals, msg.V)
	d.progress()
}

func (d *Dolev) progress() {
	quorum := d.cfg.N - d.cfg.F
	for !d.done {
		vals := d.rounds[d.round].vals
		if len(vals) < quorum {
			return
		}
		slices.Sort(vals)
		trim := 2 * d.cfg.F
		trimmed := vals[trim : len(vals)-trim]
		d.value = (trimmed[0] + trimmed[len(trimmed)-1]) / 2
		d.rounds[d.round] = dolevRound{}
		d.track.Span("aaa.round", d.roundAt, int64(d.round), int64(len(vals)))
		d.roundAt = d.track.Now()
		if d.round >= d.cfg.Rounds {
			d.done = true
			d.track.Instant("aaa.decide", int64(d.round), 0)
			d.env.Output(DolevResult{Output: d.value, Rounds: d.round})
			d.env.Halt()
			return
		}
		d.round++
		d.env.Broadcast(&Value{Round: uint16(d.round), V: d.value})
	}
}
