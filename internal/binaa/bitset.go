package binaa

import "delphi/internal/node"

// bitset is a fixed-capacity set of node IDs. The engine's vote tallies are
// membership tests over the n-node universe on the per-delivery hot path;
// a word array replaces the map[node.ID]bool representation so membership
// costs one shift/mask instead of a hash, and a whole set costs one small
// allocation instead of a map header plus buckets.
type bitset []uint64

// bitsetWords returns the word count needed for n members.
func bitsetWords(n int) int { return (n + 63) / 64 }

// newBitset returns an empty set with capacity for members 0..n-1.
func newBitset(n int) bitset { return make(bitset, bitsetWords(n)) }

// get reports whether id is a member.
func (b bitset) get(id node.ID) bool {
	return b[uint(id)>>6]&(1<<(uint(id)&63)) != 0
}

// set inserts id, reporting whether it was newly inserted.
func (b bitset) set(id node.ID) bool {
	w, m := uint(id)>>6, uint64(1)<<(uint(id)&63)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}

// clear removes id.
func (b bitset) clear(id node.ID) {
	b[uint(id)>>6] &^= 1 << (uint(id) & 63)
}

// voteSet is one value's tally: the voters and their count. count mirrors
// the set so quorum checks don't re-popcount. amped is used on ECHO1
// tallies only: this node has itself echoed v.
type voteSet struct {
	v     float64
	set   bitset
	count int
	amped bool
}

// votes tallies votes per distinct value. An instance-round sees only a
// handful of distinct values (the two round states plus amplified
// midpoints), so a linear scan over a small slice beats a float64-keyed
// map of maps by a wide margin. The slice starts as a zero-length window
// on slab tallies whose bitsets are pre-assigned (see newInst).
type votes struct {
	sets []voteSet
}

// find returns the tally for v, or nil if no vote for v has been recorded.
func (vs *votes) find(v float64) *voteSet {
	for i := range vs.sets {
		if vs.sets[i].v == v {
			return &vs.sets[i]
		}
	}
	return nil
}

// tally returns the tally for v, adding an empty one on first use: a slab
// slot (one whose bitset is pre-assigned) while the window has one, a fresh
// allocation beyond it. n is the node universe size.
func (vs *votes) tally(v float64, n int) *voteSet {
	if s := vs.find(v); s != nil {
		return s
	}
	if k := len(vs.sets); k < cap(vs.sets) && vs.sets[:k+1][k].set != nil {
		vs.sets = vs.sets[:k+1]
		vs.sets[k].v = v
		return &vs.sets[k]
	}
	vs.sets = append(vs.sets, voteSet{v: v, set: newBitset(n)})
	return &vs.sets[len(vs.sets)-1]
}

// add records a vote for v by from; it reports whether the vote was new.
func (vs *votes) add(from node.ID, v float64, n int) bool {
	s := vs.tally(v, n)
	if !s.set.set(from) {
		return false
	}
	s.count++
	return true
}

// remove withdraws from's vote for v, if present.
func (vs *votes) remove(from node.ID, v float64) {
	if s := vs.find(v); s != nil && s.set.get(from) {
		s.set.clear(from)
		s.count--
	}
}
