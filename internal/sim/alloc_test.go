package sim

import (
	"testing"

	"protemp/internal/linalg"
)

// fixedPolicy commands the same frequencies every window.
type fixedPolicy struct{ f linalg.Vector }

func (fixedPolicy) Name() string                       { return "fixed" }
func (p fixedPolicy) Decide(WindowState) linalg.Vector { return p.f }

// TestAdvanceWarmWindowAllocations pins the simulator's per-window
// allocations: once the task FIFO and the assigner's candidate buffer
// have grown, a window that admits, assigns and retires tasks allocates
// nothing (no record blocks, so no series grows).
func TestAdvanceWarmWindowAllocations(t *testing.T) {
	r := testRig(t)
	n := r.chip.NumCores()
	cmd := linalg.Constant(n, 0.6*r.chip.FMax())
	s, err := NewStepper(Config{Chip: r.chip, Disc: r.disc, Policy: fixedPolicy{cmd}, Trace: mixedTrace(t, 60), TMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.advance(cmd)
	}
	completed := s.res.Completed
	if allocs := testing.AllocsPerRun(50, func() { s.advance(cmd) }); allocs != 0 {
		t.Fatalf("a warm window allocates %.2f times", allocs)
	}
	if s.done || s.res.Completed == completed {
		t.Fatalf("the measured windows retired no task (done %v): the test exercises no assignment", s.done)
	}
}
