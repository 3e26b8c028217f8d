package sim

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"
)

// calendar is the pending-event store both executors share: a calendar
// queue (R. Brown, CACM 1988) of fixed-width virtual-time buckets. Bucket
// idx holds the events with at/width == idx; a ring of slots covers the
// buckets [base, base+len(slots)), and events past that horizon (partition
// heals, heavy jitter tails) wait in an overflow min-heap until the ring
// reaches them. Within a bucket events are unordered: the consumer takes a
// whole bucket and sorts it in its own total order, (at, seq) for the
// sequential executor and (to, at, seq) for a parallel shard.
//
// Slot storage comes from one pool of fixed-size blocks, so the store's
// footprint follows the number of events in flight, not the sum of every
// slot's high-water mark. The pool grows a page at a time and never moves
// a block, so growing it copies nothing. An occupancy bitmap finds the next
// non-empty bucket in a few word scans.
type calendar struct {
	width time.Duration
	slots []calSlot // ring, len a power of two ≥ 64; slot = idx & mask
	mask  int64
	occ   []uint64 // bit s set iff slots[s] holds events
	base  int64    // lowest admissible bucket
	count int      // events in the ring

	overflow eventHeap // events at buckets ≥ base+len(slots)

	// pages hold the block pool, block b at pages[b/calPage][b%calPage];
	// a block's next links a slot's chain and threads the free list (free
	// is its head, -1 when empty). Blocks [0, made) have been handed out.
	pages []*[calPage]calBlk
	made  int32
	free  int32
	used  int // blocks in use

	usedPeak, overflowPeak int
	spills                 int // events routed through overflow this run
}

// calSlot is one bucket's block chain. A slot with n events spans
// ceil(n/calBlock) blocks filled in order, so the tail block is full
// exactly when n is a multiple of calBlock.
type calSlot struct {
	head, tail int32
	n          int32
}

// calBlock is the number of events per storage block: large enough that
// gathering a dense bucket copies long contiguous runs, small enough that a
// sparse ring (a handful of events per bucket at small n) wastes little.
const calBlock = 16

// calBlk is one storage block.
type calBlk struct {
	ev   [calBlock]event
	next int32
}

// calPage is the number of blocks per pool page (~160 KB).
const calPage = 256

// calOverflowInit is the overflow heap's first capacity, which spares
// small runs its first few growth steps.
const calOverflowInit = 64

// reset empties the calendar for a run over `slots` ring slots of the given
// width, keeping every backing array it already has.
func (c *calendar) reset(width time.Duration, slots int) {
	c.width = width
	if len(c.slots) != slots {
		c.slots = make([]calSlot, slots)
		c.occ = make([]uint64, slots/64)
	} else {
		clear(c.slots)
		clear(c.occ)
	}
	c.mask = int64(slots - 1)
	c.base = 0
	c.count = 0
	clear(c.overflow)
	c.overflow = c.overflow[:0]
	c.made = 0
	c.free = -1
	c.used = 0
	c.usedPeak, c.overflowPeak, c.spills = 0, 0, 0
}

// bucket returns the bucket index of virtual time at.
func (c *calendar) bucket(at time.Duration) int64 { return int64(at / c.width) }

// push stores e in bucket idx, which must be ≥ base.
func (c *calendar) push(e event, idx int64) {
	if idx >= c.base+int64(len(c.slots)) {
		if cap(c.overflow) == 0 {
			c.overflow = make(eventHeap, 0, calOverflowInit)
		}
		c.overflow.push(e)
		c.spills++
		if len(c.overflow) > c.overflowPeak {
			c.overflowPeak = len(c.overflow)
		}
		return
	}
	s := int(idx & c.mask)
	sl := &c.slots[s]
	k := int(sl.n % calBlock)
	if k == 0 {
		b := c.alloc()
		if sl.n == 0 {
			sl.head = b
			c.occ[s>>6] |= 1 << (s & 63)
		} else {
			c.block(sl.tail).next = b
		}
		sl.tail = b
	}
	c.block(sl.tail).ev[k] = e
	sl.n++
	c.count++
}

// block returns block b.
func (c *calendar) block(b int32) *calBlk { return &c.pages[b/calPage][b%calPage] }

// alloc takes a block from the free list, or a fresh one when the list is
// empty, adding a page when every page is handed out.
func (c *calendar) alloc() int32 {
	c.used++
	if c.used > c.usedPeak {
		c.usedPeak = c.used
	}
	if b := c.free; b >= 0 {
		c.free = c.block(b).next
		return b
	}
	b := c.made
	if int(b/calPage) == len(c.pages) {
		if c.pages == nil {
			c.pages = make([]*[calPage]calBlk, 0, 16)
		}
		c.pages = append(c.pages, new([calPage]calBlk))
	}
	c.made++
	return b
}

// take appends bucket idx's events to buf in storage order, empties the
// bucket and returns its blocks to the free list. Freed blocks keep their
// stale message references until reused or until handback clears the
// pool: clearing every event on its way out would double the pool's
// memory traffic.
func (c *calendar) take(idx int64, buf []event) []event {
	s := int(idx & c.mask)
	sl := &c.slots[s]
	rem := int(sl.n)
	if rem == 0 {
		return buf
	}
	b := sl.head
	for rem > 0 {
		blk := c.block(b)
		k := min(rem, calBlock)
		buf = append(buf, blk.ev[:k]...)
		nb := blk.next
		blk.next = c.free
		c.free = b
		c.used--
		b = nb
		rem -= k
	}
	c.count -= int(sl.n)
	*sl = calSlot{}
	c.occ[s>>6] &^= 1 << (s & 63)
	return buf
}

// advance moves the ring's horizon to start at bucket b and pulls every
// overflow event that now fits back into the ring. b must not exceed any
// pending event's bucket.
func (c *calendar) advance(b int64) {
	c.base = b
	end := b + int64(len(c.slots))
	for len(c.overflow) > 0 {
		idx := c.bucket(c.overflow[0].at)
		if idx >= end {
			break
		}
		c.push(c.overflow.pop(), idx)
	}
}

// nextBucket returns the earliest non-empty bucket at or after from, or
// MaxInt64 when the calendar is empty. Every ring event must lie in
// [from, from+len(slots)).
func (c *calendar) nextBucket(from int64) int64 {
	nb := int64(math.MaxInt64)
	if c.count > 0 {
		nb = from + int64(c.scan(int(from&c.mask)))
	}
	if len(c.overflow) > 0 {
		if o := c.bucket(c.overflow[0].at); o < nb {
			nb = o
		}
	}
	return nb
}

// scan returns the distance from slot start, going round the ring, to the
// first occupied slot; the ring must not be empty.
func (c *calendar) scan(start int) int {
	w := start >> 6
	if word := c.occ[w] >> (start & 63); word != 0 {
		return bits.TrailingZeros64(word)
	}
	off := 64 - start&63
	words := len(c.occ)
	for i := 1; i <= words; i++ {
		// The last iteration revisits word w for the slots below start.
		if word := c.occ[(w+i)&(words-1)]; word != 0 {
			return off + bits.TrailingZeros64(word)
		}
		off += 64
	}
	panic("sim: calendar count and occupancy bitmap disagree")
}

// handback drops every message reference the calendar still holds and
// applies the scratch shrink rule to its storage.
func (c *calendar) handback() {
	keep := (shrunkCap(len(c.pages)*calPage, c.usedPeak) + calPage - 1) / calPage
	for i := range min(keep, int(c.made+calPage-1)/calPage) {
		clear(c.pages[i][:])
	}
	clear(c.pages[keep:])
	c.pages = c.pages[:keep]
	clear(c.overflow)
	c.overflow = shrunk(c.overflow, c.overflowPeak)
}

// retained reports the calendar's retained event-slot capacity.
func (c *calendar) retained() int { return len(c.pages)*calPage*calBlock + cap(c.overflow) }

// sortGroup orders events by (at, seq): insertion sort for the common tiny
// group, generic sort beyond it.
func sortGroup(g []event) {
	if len(g) > 48 {
		slices.SortFunc(g, func(a, b event) int {
			if a.at != b.at {
				if a.at < b.at {
					return -1
				}
				return 1
			}
			if a.seq < b.seq {
				return -1
			}
			return 1
		})
		return
	}
	insertionSort(g)
}

// insertionSort orders g by (at, seq); it is linear on sorted input.
func insertionSort(g []event) {
	for i := 1; i < len(g); i++ {
		if !g[i].before(&g[i-1]) {
			continue
		}
		e := g[i]
		j := i - 1
		for j >= 0 && e.before(&g[j]) {
			g[j+1] = g[j]
			j--
		}
		g[j+1] = e
	}
}

// seqRingSlots is the sequential calendar's ring size in buckets. At the
// AWS floor (0.4 ms) the ring spans ~410 ms of virtual time: every
// inter-region latency with its usual jitter; longer delays wait in the
// overflow heap.
const seqRingSlots = 1024

// fallbackWidth is the bucket width for latency models that declare no
// positive floor. Any width keeps the pop order exact; it only moves work
// between the bucket sorts and the small heap.
const fallbackWidth = time.Millisecond

// bucketWidth returns the sequential calendar's bucket width for m.
func bucketWidth(m LatencyModel) time.Duration {
	if ml, ok := m.(MinLatencyModel); ok {
		if w := ml.MinLatency(); w > 0 {
			return w
		}
	}
	return fallbackWidth
}

// overflowSpills counts the events sequential runs in this process have
// parked in their calendar's overflow heap, past the ring's horizon.
var overflowSpills atomic.Int64

// OverflowSpills reports overflowSpills. The executor never reads it: it
// exists for tests that must show a workload reaches the overflow path.
func OverflowSpills() int64 { return overflowSpills.Load() }

// seqBucketInit is the first capacity of the sequential queue's bucket
// buffers, which spares small runs their first few growth steps.
const seqBucketInit = 64

// seqQueue is the sequential executor's pending-delivery queue. It pops in
// exactly the (at, seq) total order of one global heap: the calendar's
// buckets are visited in index order, each is sorted when the queue
// reaches it, and a small heap takes the pushes that land in the bucket
// being drained (with a latency below the bucket width) or before it.
type seqQueue struct {
	cal  calendar
	cur  []event // bucket curB sorted by (at, seq); cur[pos:] are pending
	pos  int
	curB int64
	near eventHeap // pending events at buckets ≤ curB

	// Sort scratch: a bucket as taken from the calendar, and its sort keys.
	buf  []event
	keys []uint64

	curPeak, nearPeak int
}

// reset empties the queue for a run with the given bucket width, keeping
// its backing arrays.
func (q *seqQueue) reset(width time.Duration) {
	q.cal.reset(width, seqRingSlots)
	clear(q.cur)
	q.cur = slices.Grow(q.cur[:0], seqBucketInit)
	clear(q.buf)
	q.buf = slices.Grow(q.buf[:0], seqBucketInit)
	clear(q.near)
	q.near = q.near[:0]
	q.pos, q.curB = 0, -1
	q.curPeak, q.nearPeak = 0, 0
}

// push adds a pending event.
func (q *seqQueue) push(e event) {
	if idx := q.cal.bucket(e.at); idx > q.curB {
		q.cal.push(e, idx)
		return
	}
	q.near.push(e)
	if len(q.near) > q.nearPeak {
		q.nearPeak = len(q.near)
	}
}

// pop removes and returns the earliest pending event; ok is false when
// none is left.
func (q *seqQueue) pop() (e event, ok bool) {
	for q.pos == len(q.cur) && len(q.near) == 0 {
		if !q.advance() {
			return event{}, false
		}
	}
	if q.pos < len(q.cur) && (len(q.near) == 0 || q.cur[q.pos].before(&q.near[0])) {
		q.pos++
		return q.cur[q.pos-1], true
	}
	return q.near.pop(), true
}

// advance loads the next non-empty bucket into cur, sorted; it reports
// false when the calendar is empty.
func (q *seqQueue) advance() bool {
	b := q.cal.nextBucket(q.curB + 1)
	if b == math.MaxInt64 {
		return false
	}
	q.cal.advance(b)
	q.buf = q.cal.take(b, q.buf[:0])
	if len(q.buf) == 0 {
		panic("sim: calendar reported an empty bucket as pending")
	}
	q.sortBucket(b)
	q.pos, q.curB = 0, b
	if len(q.cur) > q.curPeak {
		q.curPeak = len(q.cur)
	}
	return true
}

// keyIdxBits is the share of a bucket sort key that holds the event's
// position in the bucket; the rest holds its offset from the bucket start.
const keyIdxBits = 20

// sortBucket moves the events in buf into cur in (at, seq) order. Small
// buckets are insertion-sorted. A large one is ordered through plain
// uint64 keys — offset within the bucket, then position — which sort far
// faster than whole events under a comparison function; a final linear
// insertion pass restores seq order among equal times where storage order
// differed from it. Offsets or buckets too large for the key fall back to
// the comparison sort.
func (q *seqQueue) sortBucket(b int64) {
	evs := q.buf
	if keys := q.bucketKeys(b); keys != nil {
		slices.Sort(keys)
		cur := slices.Grow(q.cur[:0], cap(evs))[:len(evs)]
		for i, k := range keys {
			cur[i] = evs[k&(1<<keyIdxBits-1)]
		}
		insertionSort(cur)
		q.cur, q.buf = cur, evs[:0]
		return
	}
	sortGroup(evs)
	q.cur, q.buf = evs, q.cur[:0]
}

// bucketKeys returns the sort keys of bucket b's events in buf, or nil when
// the bucket is small enough to sort directly or does not fit the key.
func (q *seqQueue) bucketKeys(b int64) []uint64 {
	evs := q.buf
	if len(evs) <= 48 || len(evs) >= 1<<keyIdxBits {
		return nil
	}
	start := time.Duration(b) * q.cal.width
	keys := slices.Grow(q.keys[:0], cap(evs))
	for i := range evs {
		off := uint64(evs[i].at - start)
		if off >= 1<<(64-keyIdxBits) {
			return nil
		}
		keys = append(keys, off<<keyIdxBits|uint64(i))
	}
	q.keys = keys
	return keys
}

// handback drops every message reference the queue holds and applies the
// scratch shrink rule to its storage.
func (q *seqQueue) handback() {
	q.cal.handback()
	clear(q.cur[:cap(q.cur)])
	q.cur = shrunk(q.cur, q.curPeak)
	clear(q.buf[:cap(q.buf)])
	q.buf = shrunk(q.buf, q.curPeak)
	q.keys = shrunk(q.keys, q.curPeak)
	clear(q.near)
	q.near = shrunk(q.near, q.nearPeak)
}

// retained reports the queue's retained event-slot capacity.
func (q *seqQueue) retained() int {
	return q.cal.retained() + cap(q.cur) + cap(q.buf) + cap(q.near)
}
