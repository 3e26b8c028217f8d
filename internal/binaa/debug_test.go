package binaa

import (
	"fmt"
	"strings"
	"testing"

	"delphi/internal/node"
	"delphi/internal/sim"
)

// debugState dumps the engine's per-instance per-round progress.
func (e *Engine) debugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "round=%d done=%v insts=%d\n", e.round, e.done, len(e.instList))
	for r, bk := range e.books {
		fmt.Fprintf(&b, " r%d: init=%d zeros=%d sentZeros=%v\n", r+1, bk.count, bk.zerosCount, bk.sentZeros)
	}
	for _, x := range e.instList {
		fmt.Fprintf(&b, " %v state=%g:", x.id, x.state)
		for r := 1; r <= len(x.rounds); r++ {
			ir := x.rounds[r-1]
			e1 := ""
			for _, s := range ir.echo1.sets {
				e1 += fmt.Sprintf(" %g:%d", s.v, s.count)
			}
			e2 := ""
			for _, s := range ir.echo2.sets {
				e2 += fmt.Sprintf(" %g:%d", s.v, s.count)
			}
			fmt.Fprintf(&b, " [r%d e1{%s} e2{%s} dec=%v/%g sentE2=%v]", r, e1, e2, ir.decided, ir.decision, ir.sentEcho2)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestDeadlockRepro(t *testing.T) {
	n, f := 7, 2
	cfg := Config{Config: node.Config{N: n, F: f}, Rounds: 13}
	// 5 honest (crash nodes 1 and 4), checkpoint pattern from the Delphi
	// crash-fault test at level 0 only.
	ones := map[int][]int32{
		0: {250, 251},
		2: {251, 252},
		3: {250, 251},
		5: {251, 252},
		6: {250, 251},
	}
	procs := make([]node.Process, n)
	engines := make([]*Engine, n)
	for i, ks := range ones {
		in := make(map[IID]float64)
		for _, k := range ks {
			in[IID{K: k}] = 1
		}
		p, err := NewProcess(cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
		engines[i] = p.eng
	}
	r, err := sim.NewRunner(node.Config{N: n, F: f}, sim.Local(), 42, procs)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	stuck := false
	for i, e := range engines {
		if e == nil {
			continue
		}
		if !e.Done() {
			stuck = true
			t.Logf("node %d STUCK:\n%s", i, e.debugState())
		}
	}
	if stuck {
		t.Fatalf("deadlock after %d events, vtime=%v", res.Events, res.Time)
	}
}
