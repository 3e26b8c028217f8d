package binaa

import (
	"cmp"
	"fmt"
	"slices"

	"delphi/internal/node"
	"delphi/internal/obs"
)

// Config parameterises a BinAA engine.
type Config struct {
	// Config supplies n and t.
	node.Config
	// Rounds is r_M, the number of BV-broadcast rounds to run. The final
	// per-instance weights are exact multiples of 2^-Rounds, so honest
	// weights differ by at most 2^-Rounds (the ε' of Algorithm 2).
	Rounds int
	// DisableCompression turns off the §II-C delta/bitmap round encoding
	// (full (instance, value) entries every round). Kept for the
	// communication ablation; compression is on by default.
	DisableCompression bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.Rounds < 1 {
		return fmt.Errorf("binaa: rounds must be >= 1, got %d", c.Rounds)
	}
	if c.Rounds > 60 {
		return fmt.Errorf("binaa: rounds capped at 60 (float64 dyadic precision), got %d", c.Rounds)
	}
	return nil
}

// Engine runs the full set of bundled BinAA instances for one agreement.
// It is driven through HandleInit/HandleEcho1/HandleEcho2 by an embedding
// protocol (internal/core's Delphi) or by the standalone Process wrapper.
type Engine struct {
	cfg    Config
	env    node.Env
	onDone func(weights map[IID]float64)

	// track and roundAt feed per-round trace spans; both stay zero when
	// observability is disabled.
	track   *obs.Track
	roundAt int64

	round  int // current round, 1-based
	done   bool
	inputs map[IID]float64
	insts  map[uint64]*inst // by instKey
	// instList holds every active instance sorted by (level, K), i.e. by
	// instKey; late activation inserts at the sorted position. Drains rely
	// on the order: a whole-set loop over instList marks (instance, round)
	// pairs in ascending key order, so its drain arrives presorted.
	instList []*inst

	// books[r-1] is round r's bookkeeping; all cfg.Rounds are allocated up
	// front.
	books []roundBook

	// Compression state: this node's latest round announcement in canonical
	// append order (the base of its next compressed bundle; each
	// instance's position in it is instRound.annPos); plus buffered
	// compressed bundles whose base round has not arrived yet.
	announced  []IVal
	pendingC   map[node.ID]map[int]*Echo1C
	pendingE2C map[node.ID]map[int]*Echo2C

	// Staged outgoing echoes for the current step; pendE2C reports that
	// some round's compact ECHO2 bitmap (roundBook.e2cBits) is staged.
	pendAmp []IVal
	pendE2  []IVal
	pendE2C bool
	// dirty lists the (instance, round) pairs touched by the current
	// message; the per-round dirty flag deduplicates, and the packed key
	// orders the drain deterministically by (round, level, K). drain is the
	// second buffer: settle swaps the two, so neither is regrown per drain.
	dirty []dirtyEntry
	drain []dirtyEntry
	// gen is the bundle-membership generation counter (see inst.gen).
	gen uint64
}

// roundBook is the engine's per-round bookkeeping.
type roundBook struct {
	// bundles holds each sender's (reconstructed) round announcement,
	// indexed by sender: instances listed — with any value, zero included
	// — voted explicitly; everything else implicitly voted 0.
	bundles [][]IVal
	// seen marks the senders whose bundle has arrived (a present bundle
	// may be an empty list); count is its size.
	seen  bitset
	count int
	// zeros marks the senders whose zeros ECHO2 bundle has arrived;
	// zerosCount is its size. sentZeros records our own.
	zeros      bitset
	zerosCount int
	sentZeros  bool
	// e2cBits is the staged compact ECHO2 bitmap, reset by flush.
	e2cBits []byte
}

type dirtyEntry struct {
	key uint64
	x   *inst
}

// sortDirty orders a drain by packed key. Large drains come from
// whole-set loops over the sorted instList and are checked in one pass;
// the few that are not sorted fall through to SortFunc. Small drains — a
// handful of entries per delivered message — use an insertion sort, which
// beats the generic comparator sort by a wide margin there.
func sortDirty(entries []dirtyEntry) {
	if len(entries) > 32 {
		for i := 1; i < len(entries); i++ {
			if entries[i].key < entries[i-1].key {
				slices.SortFunc(entries, func(a, b dirtyEntry) int { return cmp.Compare(a.key, b.key) })
				return
			}
		}
		return
	}
	for i := 1; i < len(entries); i++ {
		e := entries[i]
		j := i - 1
		for j >= 0 && entries[j].key > e.key {
			entries[j+1] = entries[j]
			j--
		}
		entries[j+1] = e
	}
}

// dirtyKey packs (round, instance) so that ascending uint64 order equals
// the engine's deterministic (round, level, K) processing order.
func dirtyKey(x *inst, r int) uint64 { return uint64(r)<<40 | x.key }

// dirtyRound recovers the round from a packed key.
func dirtyRound(k uint64) int { return int(k >> 40) }

// validValue reports whether v can be a vote: BinAA values lie in [0,1].
// The engine drops anything else (NaN included) where it enters from the
// wire, so a Byzantine sender cannot grow a tally per bogus value.
func validValue(v float64) bool { return v >= 0 && v <= 1 }

// NewEngine creates an engine with the node's non-zero inputs. An input of
// 1 at instance X corresponds to Algorithm 2 line 11; inputs strictly
// between 0 and 1 are permitted (they arise in tests).
func NewEngine(cfg Config, inputs map[IID]float64, onDone func(map[IID]float64)) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if onDone == nil {
		return nil, fmt.Errorf("binaa: onDone callback required")
	}
	in := make(map[IID]float64, len(inputs))
	for id, v := range inputs {
		if !validValue(v) {
			return nil, fmt.Errorf("binaa: input %v=%g outside [0,1]", id, v)
		}
		if v != 0 {
			in[id] = v
		}
	}
	books := make([]roundBook, cfg.Rounds)
	for r := range books {
		books[r] = roundBook{bundles: make([][]IVal, cfg.N), seen: newBitset(cfg.N), zeros: newBitset(cfg.N)}
	}
	return &Engine{
		cfg:        cfg,
		onDone:     onDone,
		inputs:     in,
		insts:      make(map[uint64]*inst),
		books:      books,
		pendingC:   make(map[node.ID]map[int]*Echo1C),
		pendingE2C: make(map[node.ID]map[int]*Echo2C),
	}, nil
}

// Done reports whether all rounds have completed.
func (e *Engine) Done() bool { return e.done }

// Round returns the engine's current round (1-based).
func (e *Engine) Round() int { return e.round }

// Weights returns the final per-instance weights; valid only once Done.
// Instances never mentioned by anyone have weight 0 and are omitted.
func (e *Engine) Weights() map[IID]float64 {
	out := make(map[IID]float64, len(e.instList))
	for _, x := range e.instList {
		if x.state != 0 {
			out[x.id] = x.state
		}
	}
	return out
}

// Start begins round 1. Call exactly once, after the environment is ready.
func (e *Engine) Start(env node.Env) {
	e.env = env
	e.track = node.TrackOf(env)
	e.roundAt = e.track.Now()
	e.round = 1
	// Seed instList in sorted (level, K) order, not input-map order.
	for id, v := range e.inputs {
		x := newInst(id, e.cfg.N, e.cfg.Rounds, v)
		e.insts[x.key] = x
		e.instList = append(e.instList, x)
	}
	slices.SortFunc(e.instList, func(a, b *inst) int { return cmp.Compare(a.key, b.key) })
	e.openRound(1)
	e.flush()
}

// openRound broadcasts this node's round-opening bundle for round r: a full
// entry list in round 1 (and always when compression is off), a compressed
// delta bundle afterwards.
func (e *Engine) openRound(r int) {
	// Mark per-instance round state (my init vote and self-echo).
	for _, x := range e.instList {
		ir := &x.rounds[r-1]
		ir.myInit = x.state
		ir.markAmped(x.state, e.cfg.N)
	}
	// Build this round's announcement in canonical append order: previous
	// announcement first, newly active instances (in instList's sorted
	// order) appended.
	prev := e.announced
	ann := make([]IVal, len(prev), len(e.instList))
	for _, x := range e.instList {
		iv := IVal{ID: x.id, Round: uint16(r), V: x.state}
		if r > 1 && x.rounds[r-2].annPos > 0 {
			ann[x.rounds[r-2].annPos-1] = iv
		} else {
			ann = append(ann, iv)
		}
	}

	if r == 1 || e.cfg.DisableCompression {
		// Full bundle: transmit only non-zero entries (implicit zeros cover
		// the rest). Receivers reconstruct announcements from transmitted
		// entries, so the announcement is the transmitted list. Round-1
		// announcements contain only this node's non-zero inputs, so there
		// the two coincide anyway.
		vals := make([]IVal, 0, len(ann))
		for _, iv := range ann {
			if iv.V != 0 {
				vals = append(vals, iv)
			}
		}
		e.announce(r, vals)
		e.env.Broadcast(&Echo1{Round: uint16(r), Init: true, Vals: vals})
		return
	}
	e.announce(r, ann)

	// Compressed bundle relative to the previous announcement.
	syms := make([]uint8, len(prev))
	var escapes []float64
	for i, p := range prev {
		newV := ann[i].V
		sym, ok := deltaSymbol(p.V, newV, r)
		if !ok {
			sym = symX
			escapes = append(escapes, newV)
		}
		syms[i] = sym
	}
	e.env.Broadcast(&Echo1C{
		Round:     uint16(r),
		PrevCount: uint16(len(prev)),
		Deltas:    packNibbles(syms),
		Escapes:   escapes,
		NewVals:   append([]IVal(nil), ann[len(prev):]...),
	})
}

// announce records ann as this node's round-r announcement.
func (e *Engine) announce(r int, ann []IVal) {
	e.announced = ann
	for i, iv := range ann {
		e.insts[instKey(iv.ID)].rounds[r-1].annPos = i + 1
	}
}

// validRound bounds rounds accepted from the wire.
func (e *Engine) validRound(r int) bool { return r >= 1 && r <= e.cfg.Rounds }

// HandleEcho1 processes an Echo1 message.
func (e *Engine) HandleEcho1(from node.ID, m *Echo1) {
	if e.done {
		return
	}
	if m.Init {
		r := int(m.Round)
		if !e.validRound(r) {
			return
		}
		kept := make([]IVal, 0, len(m.Vals))
		for _, v := range m.Vals {
			if int(v.Round) == r && validValue(v.V) {
				kept = append(kept, v)
			}
		}
		e.applyInitBundle(from, r, kept)
	} else {
		for _, v := range m.Vals {
			r := int(v.Round)
			if !e.validRound(r) || !validValue(v.V) {
				continue
			}
			x := e.activate(v.ID)
			if x.rounds[r-1].echo1.add(from, v.V, e.cfg.N) {
				e.mark(x, r)
			}
		}
	}
	e.settle()
}

// applyInitBundle records a sender's round announcement — vals, already
// filtered to round r and valid values, which the engine keeps — and
// applies its explicit and implicit votes. It then drains any buffered
// compressed bundles that were waiting for this round.
func (e *Engine) applyInitBundle(from node.ID, r int, vals []IVal) {
	b := &e.books[r-1]
	if b.seen.get(from) {
		return // equivocating bundle: first wins
	}
	b.seen.set(from)
	b.bundles[from] = vals
	b.count++
	// Activate and tag the listed instances (first listing wins), then
	// apply every instance's vote — listed value or implicit 0 — in one
	// pass over instList, so the marks arrive in key order.
	e.gen++
	for _, v := range vals {
		if x := e.activate(v.ID); x.gen != e.gen {
			x.gen, x.genV = e.gen, v.V
		}
	}
	for _, x := range e.instList {
		v := 0.0
		if x.gen == e.gen {
			v = x.genV
		}
		e.applyInitVote(x, r, from, v)
	}
	e.maybeSendZeros(r)
	// A compressed bundle for r+1 may have been waiting for this base.
	if next, ok := e.pendingC[from][r+1]; ok {
		delete(e.pendingC[from], r+1)
		e.applyCompressed(from, next)
	}
	if ec, ok := e.pendingE2C[from][r]; ok {
		delete(e.pendingE2C[from], r)
		e.applyEcho2C(from, ec)
	}
}

// HandleEcho1C processes a compressed round-opening bundle.
func (e *Engine) HandleEcho1C(from node.ID, m *Echo1C) {
	if e.done {
		return
	}
	r := int(m.Round)
	if !e.validRound(r) || r < 2 || e.books[r-1].seen.get(from) {
		return
	}
	if !e.books[r-2].seen.get(from) {
		// Base round not yet seen: buffer (keep the first only).
		if e.pendingC[from] == nil {
			e.pendingC[from] = make(map[int]*Echo1C)
		}
		if _, ok := e.pendingC[from][r]; !ok {
			e.pendingC[from][r] = m
		}
		return
	}
	e.applyCompressed(from, m)
	e.settle()
}

// applyCompressed reconstructs a compressed bundle against the sender's
// previous announcement and applies it. Entries whose value is not valid
// (an escape or NewVals value, or a symbol stepping outside [0,1]) are
// dropped.
func (e *Engine) applyCompressed(from node.ID, m *Echo1C) {
	r := int(m.Round)
	prev := e.books[r-2].bundles[from]
	if len(prev) != int(m.PrevCount) || len(m.Deltas) < (len(prev)+1)/2 {
		return // malformed relative to our view: drop
	}
	full := make([]IVal, 0, len(prev)+len(m.NewVals))
	esc := 0
	for i, p := range prev {
		var v float64
		switch sym := nibble(m.Deltas, i); {
		case sym == symX:
			if esc >= len(m.Escapes) {
				return // malformed escape list
			}
			v = m.Escapes[esc]
			esc++
		case sym > sym2R:
			return // unknown symbol
		default:
			v = applySymbol(p.V, sym, r)
		}
		if validValue(v) {
			full = append(full, IVal{ID: p.ID, Round: uint16(r), V: v})
		}
	}
	for _, nv := range m.NewVals {
		if validValue(nv.V) {
			nv.Round = uint16(r)
			full = append(full, nv)
		}
	}
	e.applyInitBundle(from, r, full)
}

// HandleEcho2C processes a compact ECHO2 bitmap.
func (e *Engine) HandleEcho2C(from node.ID, m *Echo2C) {
	if e.done {
		return
	}
	r := int(m.Round)
	if !e.validRound(r) {
		return
	}
	if !e.books[r-1].seen.get(from) {
		if e.pendingE2C[from] == nil {
			e.pendingE2C[from] = make(map[int]*Echo2C)
		}
		// Bitmaps are incremental: merge rather than keep-first.
		if prev, ok := e.pendingE2C[from][r]; ok {
			merged := append([]byte(nil), prev.Bits...)
			for len(merged) < len(m.Bits) {
				merged = append(merged, 0)
			}
			for i, b := range m.Bits {
				merged[i] |= b
			}
			prev.Bits = merged
		} else {
			e.pendingE2C[from][r] = &Echo2C{Round: m.Round, Bits: append([]byte(nil), m.Bits...)}
		}
		return
	}
	e.applyEcho2C(from, m)
	e.settle()
}

// applyEcho2C resolves bitmap bits against the sender's round announcement.
func (e *Engine) applyEcho2C(from node.ID, m *Echo2C) {
	r := int(m.Round)
	for i, iv := range e.books[r-1].bundles[from] {
		if !getBit(m.Bits, i) {
			continue
		}
		x := e.activate(iv.ID)
		if x.rounds[r-1].addEcho2(from, iv.V, true, e.cfg.N) {
			e.mark(x, r)
		}
	}
}

// HandleEcho2 processes an Echo2 message.
func (e *Engine) HandleEcho2(from node.ID, m *Echo2) {
	if e.done {
		return
	}
	if r := int(m.Round); m.Zeros && e.validRound(r) && e.books[r-1].zeros.set(from) {
		b := &e.books[r-1]
		b.zerosCount++
		// Mark the sender's listed instances once (first listing wins, as
		// in bundle reconstruction), then apply the implicit zero to every
		// instance whose init-slot vote from this sender was zero;
		// instances whose init vote hasn't arrived pick the zeros vote up
		// in applyInitVote.
		e.gen++
		for _, v := range b.bundles[from] {
			if x, ok := e.insts[instKey(v.ID)]; ok && x.gen != e.gen {
				x.gen, x.genV = e.gen, v.V
			}
		}
		for _, x := range e.instList {
			ir := &x.rounds[r-1]
			listedNonzero := x.gen == e.gen && x.genV != 0
			if ir.initConsumed.get(from) && !listedNonzero && ir.addEcho2(from, 0, false, e.cfg.N) {
				e.mark(x, r)
			}
		}
	}
	for _, v := range m.Vals {
		r := int(v.Round)
		if !e.validRound(r) || !validValue(v.V) {
			continue
		}
		x := e.activate(v.ID)
		if x.rounds[r-1].addEcho2(from, v.V, true, e.cfg.N) {
			e.mark(x, r)
		}
	}
	e.settle()
}

// applyInitVote consumes sender's init-slot ECHO1 vote for one instance and
// round, and applies the sender's pending zeros-bundle ECHO2 if the vote
// was zero.
func (e *Engine) applyInitVote(x *inst, r int, from node.ID, v float64) {
	ir := &x.rounds[r-1]
	if !ir.initConsumed.set(from) {
		return
	}
	changed := ir.echo1.add(from, v, e.cfg.N)
	if v == 0 && e.books[r-1].zeros.get(from) && ir.addEcho2(from, 0, false, e.cfg.N) {
		changed = true
	}
	if changed {
		e.mark(x, r)
	}
}

// activate returns the instance, creating it (with replay of all stored
// implicit votes) on first mention. Late-activated instances join with
// state 0 — the value this node's implicit votes have already cast.
func (e *Engine) activate(id IID) *inst {
	k := instKey(id)
	if x, ok := e.insts[k]; ok {
		return x
	}
	x := newInst(id, e.cfg.N, e.cfg.Rounds, 0)
	e.insts[k] = x
	i, _ := slices.BinarySearchFunc(e.instList, k, func(y *inst, k uint64) int { return cmp.Compare(y.key, k) })
	e.instList = slices.Insert(e.instList, i, x)
	for r := 1; r <= e.cfg.Rounds; r++ {
		b := &e.books[r-1]
		for from := 0; from < e.cfg.N; from++ {
			if !b.seen.get(node.ID(from)) {
				continue
			}
			v := 0.0
			for _, iv := range b.bundles[from] {
				if iv.ID == id {
					v = iv.V
					break
				}
			}
			e.applyInitVote(x, r, node.ID(from), v)
		}
		// This node's own implicit behaviour: it echoed 0 in every round it
		// has opened, so it must not re-amplify 0 there.
		if r <= e.round {
			x.rounds[r-1].markAmped(0, e.cfg.N)
		}
	}
	return x
}

// mark queues (x, r) for re-checking; the instRound's dirty flag makes
// repeated marks free.
func (e *Engine) mark(x *inst, r int) {
	if ir := &x.rounds[r-1]; !ir.dirty {
		ir.dirty = true
		e.dirty = append(e.dirty, dirtyEntry{key: dirtyKey(x, r), x: x})
	}
}

// maybeSendZeros broadcasts the implicit ECHO2(0) bundle for round r once
// n-t init bundles for r have arrived.
func (e *Engine) maybeSendZeros(r int) {
	if b := &e.books[r-1]; !b.sentZeros && b.count >= e.cfg.Quorum() {
		b.sentZeros = true
		e.env.Broadcast(&Echo2{Round: uint16(r), Zeros: true})
	}
}

// settle processes all dirty (instance, round) pairs: amplification, ECHO2
// emission, decisions, and round advancement; then flushes staged sends.
func (e *Engine) settle() {
	quorum := e.cfg.Quorum()
	for {
		for len(e.dirty) > 0 {
			// Drain the dirty list into the spare buffer's place; checks
			// may re-mark entries (the flag is cleared before each check so
			// re-marks land in the next pass).
			entries := e.dirty
			e.dirty = e.drain[:0]
			// Deterministic processing order: packed keys sort (r, level, K).
			sortDirty(entries)
			for _, en := range entries {
				r := dirtyRound(en.key)
				en.x.rounds[r-1].dirty = false
				e.check(en.x, r, quorum)
			}
			e.drain = entries[:0]
		}
		if !e.tryAdvance() {
			break
		}
	}
	e.flush()
}

// check runs the per-round state machine for one instance.
func (e *Engine) check(x *inst, r int, quorum int) {
	ir := &x.rounds[r-1]
	// Amplification: echo, in ascending value order, every value with t+1
	// support that we haven't echoed.
	var buf [4]float64
	amp := buf[:0]
	for i := range ir.echo1.sets {
		if s := &ir.echo1.sets[i]; s.count >= e.cfg.F+1 && !s.amped {
			s.amped = true
			amp = append(amp, s.v)
		}
	}
	if len(amp) > 1 {
		slices.Sort(amp)
	}
	for _, v := range amp {
		e.pendAmp = append(e.pendAmp, IVal{ID: x.id, Round: uint16(r), V: v})
	}
	// ECHO2: the smallest value to reach n-t ECHO1s, once per round.
	// Deferred for rounds we have not opened yet (myInit is unknown until
	// then); the round-opening path re-marks every instance dirty.
	if !ir.sentEcho2 && r <= e.round {
		found, v := false, 0.0
		for i := range ir.echo1.sets {
			if s := &ir.echo1.sets[i]; s.count >= quorum && (!found || s.v < v) {
				found, v = true, s.v
			}
		}
		if found {
			ir.sentEcho2 = true
			b := &e.books[r-1]
			switch {
			case v == 0 && b.sentZeros && ir.myInit == 0:
				// Our zeros bundle covers this instance (receivers apply
				// zeros only where our announced init vote was 0).
			case !e.cfg.DisableCompression && v == ir.myInit && ir.annPos > 0:
				// Vote value equals our announced value: one bitmap bit.
				b.e2cBits = setBit(b.e2cBits, ir.annPos-1)
				e.pendE2C = true
			default:
				e.pendE2 = append(e.pendE2, IVal{ID: x.id, Round: uint16(r), V: v})
			}
		}
	}
	ir.tryDecide(quorum)
}

// tryAdvance moves the engine to the next round once the current round has
// decided at every active instance, and completes after cfg.Rounds rounds.
// It reports whether it made progress (so settle can re-drain dirty state).
func (e *Engine) tryAdvance() bool {
	if e.done {
		return false
	}
	// A round completes only once n-t init bundles and n-t zeros bundles
	// for it have arrived — these are the implicit votes that decide every
	// quiet (all-zero) checkpoint — and every active instance has decided.
	if b := &e.books[e.round-1]; b.count < e.cfg.Quorum() || b.zerosCount < e.cfg.Quorum() {
		return false
	}
	for _, x := range e.instList {
		if !x.decidedRound(e.round) {
			return false
		}
	}
	// Adopt decisions as next-round states.
	for _, x := range e.instList {
		x.state = x.rounds[e.round-1].decision
	}
	e.track.Span("binaa.round", e.roundAt, int64(e.round), int64(len(e.instList)))
	e.roundAt = e.track.Now()
	if e.round >= e.cfg.Rounds {
		e.done = true
		e.track.Instant("binaa.done", int64(e.round), int64(len(e.instList)))
		e.onDone(e.Weights())
		return false
	}
	e.round++
	e.openRound(e.round)
	e.maybeSendZeros(e.round)
	// Early-arrived votes may already decide the new round; re-check all.
	for _, x := range e.instList {
		e.mark(x, e.round)
	}
	return true
}

// flush broadcasts staged amplification and ECHO2 entries as bundles. The
// staging buffers are reused; each message gets its own copy.
func (e *Engine) flush() {
	if len(e.pendAmp) > 0 {
		e.env.Broadcast(&Echo1{Init: false, Vals: slices.Clone(e.pendAmp)})
		e.pendAmp = e.pendAmp[:0]
	}
	if len(e.pendE2) > 0 {
		e.env.Broadcast(&Echo2{Vals: slices.Clone(e.pendE2)})
		e.pendE2 = e.pendE2[:0]
	}
	if e.pendE2C {
		// Broadcast in ascending round order, so the network-level message
		// sequence is the same in every run.
		e.pendE2C = false
		for r := range e.books {
			if b := &e.books[r]; b.e2cBits != nil {
				e.env.Broadcast(&Echo2C{Round: uint16(r + 1), Bits: b.e2cBits})
				b.e2cBits = nil
			}
		}
	}
}

// Process wraps an Engine as a standalone node.Process that outputs the
// final weights map and halts. Used by tests and the quickstart example.
type Process struct {
	cfg    Config
	inputs map[IID]float64
	eng    *Engine
	env    node.Env
}

var _ node.Process = (*Process)(nil)

// NewProcess returns a standalone BinAA process.
func NewProcess(cfg Config, inputs map[IID]float64) (*Process, error) {
	p := &Process{cfg: cfg, inputs: inputs}
	eng, err := NewEngine(cfg, inputs, p.finish)
	if err != nil {
		return nil, err
	}
	p.eng = eng
	return p, nil
}

func (p *Process) finish(weights map[IID]float64) {
	p.env.Output(weights)
	p.env.Halt()
}

// Init implements node.Process.
func (p *Process) Init(env node.Env) {
	p.env = env
	p.eng.Start(env)
}

// Deliver implements node.Process.
func (p *Process) Deliver(from node.ID, m node.Message) {
	switch msg := m.(type) {
	case *Echo1:
		p.eng.HandleEcho1(from, msg)
	case *Echo2:
		p.eng.HandleEcho2(from, msg)
	case *Echo1C:
		p.eng.HandleEcho1C(from, msg)
	case *Echo2C:
		p.eng.HandleEcho2C(from, msg)
	}
}
