package sim

import (
	"math/rand"
	"testing"
	"time"

	"delphi/internal/node"
)

// noFloor is a latency model that declares no MinLatency, so the
// sequential queue falls back to fallbackWidth.
type noFloor struct{}

func (noFloor) Latency(_, _ node.ID, _ *rand.Rand) time.Duration { return time.Microsecond }

// queueRun drives q and an eventHeap oracle through the same random
// interleaving of pushes and pops and fails on the first pop that differs.
// Every push lands at or after the time of the last pop, as in the
// simulator, drawn from a mix that covers the queue's paths: ties on equal
// times (delta 0 and bucket-boundary grid points), pushes into the bucket
// being drained, the ring, and the overflow heap past the ring's horizon.
func queueRun(t *testing.T, q *seqQueue, width time.Duration, rng *rand.Rand, pushes int) {
	t.Helper()
	q.reset(width)
	var oracle eventHeap
	var seq uint64
	var now time.Duration
	horizon := time.Duration(seqRingSlots) * width
	push := func() {
		var at time.Duration
		switch p := rng.Intn(100); {
		case p < 20: // tie with the event just popped
			at = now
		case p < 45: // inside the bucket being drained
			at = now + time.Duration(rng.Int63n(int64(width)))
		case p < 75: // within the ring
			at = now + time.Duration(rng.Int63n(int64(horizon/2)))
		case p < 85: // past the ring's horizon
			at = now + horizon + time.Duration(rng.Int63n(int64(3*horizon)))
		default: // on or next to a bucket boundary, where ties pile up
			b := (now + time.Duration(rng.Intn(8))*width) / width * width
			at = b + time.Duration(rng.Intn(3)-1)
			if at < now {
				at = now
			}
		}
		seq++
		e := event{at: at, seq: seq, from: int32(rng.Intn(64)), to: int32(rng.Intn(64))}
		q.push(e)
		oracle.push(e)
	}
	for pushed := 0; pushed < pushes || len(oracle) > 0; {
		if pushed < pushes && (len(oracle) == 0 || rng.Intn(3) > 0) {
			for k := 1 + rng.Intn(8); k > 0 && pushed < pushes; k-- {
				push()
				pushed++
			}
			continue
		}
		want := oracle.pop()
		got, ok := q.pop()
		if !ok {
			t.Fatalf("queue empty, oracle still holds (at=%v seq=%d) and %d more", want.at, want.seq, len(oracle))
		}
		if got != want {
			t.Fatalf("pop diverged: got (at=%v seq=%d %d->%d), want (at=%v seq=%d %d->%d)",
				got.at, got.seq, got.from, got.to, want.at, want.seq, want.from, want.to)
		}
		now = want.at
	}
	if e, ok := q.pop(); ok {
		t.Fatalf("queue holds (at=%v seq=%d) after the oracle drained", e.at, e.seq)
	}
}

// TestSeqQueueMatchesHeap is the sequential queue's property test: for
// random push/pop interleavings its pop sequence is the eventHeap's, the
// (at, seq) total order, event for event. It runs with the AWS floor and
// with the fallback width of a model that declares no floor, and reuses
// one Scratch-held queue across runs of very different sizes, so a run
// that adopts a larger or smaller predecessor's storage is covered too.
func TestSeqQueueMatchesHeap(t *testing.T) {
	if w := bucketWidth(noFloor{}); w != fallbackWidth {
		t.Fatalf("bucketWidth(no floor) = %v, want the fallback %v", w, fallbackWidth)
	}
	widths := []time.Duration{bucketWidth(AWS().Latency), bucketWidth(noFloor{})}
	sizes := []int{50, 20000, 300, 1, 60000, 40}
	s := &Scratch{}
	rng := rand.New(rand.NewSource(1))
	for _, w := range widths {
		for _, n := range sizes {
			q := s.queue
			queueRun(t, &q, w, rng, n)
			q.handback()
			s.queue = q
		}
	}
	if testing.Short() {
		return
	}
	for seed := int64(2); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q seqQueue
		queueRun(t, &q, widths[seed%2], rng, 1+rng.Intn(5000))
	}
}
