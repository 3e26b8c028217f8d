// Package binaa implements the paper's BinAA building block (Algorithm 1):
// binary approximate agreement over a *set* of instances — one per
// (level, checkpoint) pair — with the §III-C bundling optimisation. Each
// round of each instance is a weak Binary-Value broadcast (crusader
// agreement): ECHO1 with Bracha-style amplification, then ECHO2, then a
// decision by one of two conditions:
//
//	(1) two values each supported by n-t ECHO1s  → next state (b1+b2)/2
//	(2) one value supported by n-t ECHO2s        → next state b
//
// Bundling: a node's per-round "init" bundle lists only its non-zero state
// values; every unlisted instance implicitly receives ECHO1(0). Likewise a
// per-round "zeros" ECHO2 bundle casts ECHO2(0) for every instance the
// sender has not explicitly ECHO2'd. All-zero checkpoints therefore cost
// O(1) bits per node per round, giving the paper's O(n²·min(δ/ρ0, n))
// per-round communication.
//
// Late activation ("wire-consistent joining"): a node that first hears of an
// instance after it opened round r joins with state 0 — exactly the value
// its implicit votes already cast — and participates explicitly from the
// current round onward, while still amplifying ECHO1 values for older rounds
// to preserve liveness for slower peers. See DESIGN.md §5 for the analysis
// of this choice.
package binaa

import (
	"fmt"

	"delphi/internal/node"
)

// IID identifies one BinAA instance: checkpoint K at a level.
type IID struct {
	// Level is the Delphi level (0 for standalone BinAA uses).
	Level uint8
	// K is the checkpoint index: the checkpoint value is K*ρ_level.
	K int32
}

// String implements fmt.Stringer.
func (id IID) String() string { return fmt.Sprintf("L%d/K%d", id.Level, id.K) }

// instKey packs an IID into a uint64 whose ascending order is the (level,
// K) order: K's sign bit is flipped to map int32 ordering onto uint32
// ordering. The engine's instance map and its dirty-drain keys use it, so
// lookups hash one word instead of a padded struct.
func instKey(id IID) uint64 {
	return uint64(id.Level)<<32 | uint64(uint32(id.K)^0x80000000)
}

// instRound holds one instance's vote state for one round. The simulator
// delivers millions of per-round votes in a paper-scale run, so the tallies
// are bitsets and small value slices rather than maps (see bitset.go); the
// voting semantics are identical to the map representation.
type instRound struct {
	// echo1 tallies, per value, the nodes that ECHO1'd it (explicitly or
	// implicitly). A node may legitimately echo several values
	// (own state + amplified values). Each tally's amped flag records that
	// this node has itself echoed the value this round.
	echo1 votes
	// echo2 tallies, per value, the nodes whose ECHO2 counted for it.
	echo2 votes
	// initConsumed marks senders whose init-slot vote (explicit listing or
	// implicit zero) has been applied, so replays don't double-count.
	initConsumed bitset
	// echo2From marks senders whose ECHO2 vote (explicit or zeros-bundle)
	// has been consumed.
	echo2From bitset
	// echo2Explicit marks senders whose consumed ECHO2 was explicit (an
	// explicit vote overrides a previously applied implicit zero, modelling
	// message reordering).
	echo2Explicit bitset
	// myInit is the value this node's init bundle cast for this round
	// (0 for implicit votes). The zeros bundle only covers instances whose
	// init vote was 0, so explicit ECHO2(0) may be skipped only then.
	myInit float64
	// decision holds the round's outcome once decided.
	decision float64
	// annPos is 1 + the instance's index in this node's round announcement
	// (its bit in a compact ECHO2 bitmap), or 0 if it was not announced.
	annPos int
	// sentEcho2 records that this node cast its ECHO2 for this round
	// (explicitly or via its zeros bundle).
	sentEcho2 bool
	// dirty marks membership in the engine's pending re-check list (the
	// flag deduplicates marks without a hashed set).
	dirty bool
	// decided records that the round has reached its outcome.
	decided bool
	// slab backs the first slabEcho1 ECHO1 and slabEcho2 ECHO2 tallies,
	// next to the rest of the round's state.
	slab [slabTallies]voteSet
}

// markAmped records that this node echoed v this round.
func (ir *instRound) markAmped(v float64, n int) {
	ir.echo1.tally(v, n).amped = true
}

// addEcho2 records an ECHO2 vote subject to the once-per-sender rule;
// explicit votes override a previously applied implicit zero (reordering).
// Returns true if the tally changed.
func (ir *instRound) addEcho2(from node.ID, v float64, explicit bool, n int) bool {
	if ir.echo2From.get(from) {
		if !explicit || ir.echo2Explicit.get(from) {
			return false // duplicate or second explicit: ignore
		}
		// Explicit overriding implicit zero: move the vote.
		ir.echo2.remove(from, 0)
	}
	ir.echo2From.set(from)
	if explicit {
		ir.echo2Explicit.set(from)
	}
	ir.echo2.add(from, v, n)
	return true
}

// tryDecide evaluates the two termination conditions. quorum is n-t.
func (ir *instRound) tryDecide(quorum int) {
	if ir.decided {
		return
	}
	// Condition (2): one value with n-t ECHO2s. At most one value can reach
	// the n-t majority (each sender votes once), so first-found is unique.
	for i := range ir.echo2.sets {
		if s := &ir.echo2.sets[i]; s.count >= quorum {
			ir.decided = true
			ir.decision = s.v
			return
		}
	}
	// Condition (1): two values with n-t ECHO1s each; the next state is the
	// midpoint of the extreme qualifying values.
	qualifying, lo, hi := 0, 0.0, 0.0
	for i := range ir.echo1.sets {
		if s := &ir.echo1.sets[i]; s.count >= quorum {
			if qualifying == 0 || s.v < lo {
				lo = s.v
			}
			if qualifying == 0 || s.v > hi {
				hi = s.v
			}
			qualifying++
		}
	}
	if qualifying >= 2 {
		ir.decided = true
		ir.decision = (lo + hi) / 2
	}
}

// Per-round slab layout: every round gets slabEcho1 ECHO1 and slabEcho2
// ECHO2 tallies with pre-assigned bitsets. An honest round sees at most two
// distinct values per tally kind (the two adjacent round states); further
// values, which only Byzantine votes or fractional test inputs produce,
// allocate their own tally.
const (
	slabEcho1   = 2
	slabEcho2   = 2
	slabTallies = slabEcho1 + slabEcho2
	// slabBitsets counts the bitsets per round: the three sender sets
	// (initConsumed, echo2From, echo2Explicit) plus one per slab tally.
	slabBitsets = 3 + slabTallies
)

// inst is the per-instance state across rounds.
type inst struct {
	id IID
	// key is instKey(id).
	key uint64
	// state is this node's current-round state value.
	state float64
	// rounds[r-1] is the vote state of round r. All cfg.Rounds rounds are
	// allocated when the instance is created, their bitsets carved from
	// one backing array.
	rounds []instRound
	// gen and genV implement the engine's per-bundle membership marks: an
	// instance with gen equal to the engine's current generation was listed
	// in the bundle being applied, first with value genV. This replaces a
	// per-bundle IID-keyed map — the bundle loops run per sender per round
	// over every instance, so map hashing there dominated whole-run
	// profiles.
	gen  uint64
	genV float64
}

// newInst allocates an instance's state for an n-node, rounds-round run:
// three allocations (the instance, the round array and one bitset backing
// array) regardless of the round count.
func newInst(id IID, n, rounds int, state float64) *inst {
	x := &inst{id: id, key: instKey(id), state: state, rounds: make([]instRound, rounds)}
	w := bitsetWords(n)
	words := make(bitset, rounds*slabBitsets*w)
	next := func() bitset {
		b := words[:w:w]
		words = words[w:]
		return b
	}
	for r := range x.rounds {
		ir := &x.rounds[r]
		ir.initConsumed, ir.echo2From, ir.echo2Explicit = next(), next(), next()
		for i := range ir.slab {
			ir.slab[i].set = next()
		}
		ir.echo1.sets = ir.slab[:0:slabEcho1]
		ir.echo2.sets = ir.slab[slabEcho1:slabEcho1:slabTallies]
	}
	return x
}

// decidedRound reports whether round r has decided.
func (x *inst) decidedRound(r int) bool { return x.rounds[r-1].decided }
