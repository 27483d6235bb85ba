package record

import (
	"testing"

	"gpurelay/internal/gpumem"
)

func newPerf(t testing.TB, jobs, perJob int) *CkptPerf {
	t.Helper()
	p, err := NewCkptPerf(gpumem.MNISTFootprint, jobs, perJob)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCkptPerfFullCapturesEveryBoundary(t *testing.T) {
	p := newPerf(t, 12, 16)
	p.RunWholeSession()
	if p.Captures() != 12 {
		t.Fatalf("whole-checkpoint reference sealed %d captures, want 12", p.Captures())
	}
	if p.Sealed() == 0 {
		t.Fatal("whole-checkpoint reference sealed zero bytes")
	}
}

func TestCkptPerfIncrementalCommitsChain(t *testing.T) {
	p := newPerf(t, 12, 16)
	p.RunSession()
	// One epoch per boundary, sealed as it is captured.
	if p.Captures() != 12 {
		t.Fatalf("epoch capture sealed %d epochs, want 12", p.Captures())
	}
	if p.Sealed() == 0 {
		t.Fatal("epoch capture sealed zero bytes")
	}
}

// TestIncrementalCaptureAllocBudget gates the steady-state incremental
// boundary's allocation count: the whole point of epoch capture is cost
// proportional to the delta, so a boundary must not allocate proportionally
// to the session (no log copies, no full-footprint hashing). The budget has
// headroom over the measured count (capture snapshot + epoch marshal + HMAC
// seal) but fails loudly if a session-sized copy sneaks back in.
func TestIncrementalCaptureAllocBudget(t *testing.T) {
	const allocBudget = 48
	p := newPerf(t, 64, 32)
	p.Reset()
	for j := 0; j < 16; j++ { // warm: base epoch, caches, buffer pools
		p.Boundary()
	}
	avg := testing.AllocsPerRun(10, func() {
		p.Boundary()
	})
	if avg > allocBudget {
		t.Fatalf("incremental boundary allocates %.0f objects, budget %d", avg, allocBudget)
	}
}

func BenchmarkCkptCaptureFull(b *testing.B) {
	p, err := NewCkptPerf(gpumem.MNISTFootprint, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RunWholeSession()
	}
	b.SetBytes(p.Sealed() / int64(b.N))
}

func BenchmarkCkptCaptureIncremental(b *testing.B) {
	p, err := NewCkptPerf(gpumem.MNISTFootprint, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RunSession()
	}
	b.SetBytes(p.Sealed() / int64(b.N))
}
