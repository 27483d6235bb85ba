package gpumem

import (
	"testing"
)

func buildFootprint(tb testing.TB, spec FootprintSpec) *Footprint {
	tb.Helper()
	fp, err := BuildFootprint(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return fp
}

func BenchmarkSnapshotEncode(b *testing.B) {
	for _, spec := range FootprintSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			fp := buildFootprint(b, spec)
			snap := Capture(fp.Pool, fp.Regions, nil)
			b.SetBytes(snap.RawBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := snap.Encode(nil, EncodeOptions{Compress: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSnapshotEncodeDelta(b *testing.B) {
	for _, spec := range FootprintSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			fp := buildFootprint(b, spec)
			prev := Capture(fp.Pool, fp.Regions, nil)
			fp.DirtySome(1)
			cur := Capture(fp.Pool, fp.Regions, nil)
			b.SetBytes(cur.RawBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cur.Encode(prev, EncodeOptions{Delta: true, Compress: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	for _, spec := range FootprintSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			fp := buildFootprint(b, spec)
			snap := Capture(fp.Pool, fp.Regions, nil)
			wire, err := snap.Encode(nil, EncodeOptions{Compress: true})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(snap.RawBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(wire, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotDecodeDelta is the receiving shim's side of a job
// boundary: a delta+compressed dump expanded against its base, with runs
// copied from the base and literals XORed into it in the same pass.
func BenchmarkSnapshotDecodeDelta(b *testing.B) {
	for _, spec := range FootprintSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			fp := buildFootprint(b, spec)
			prev := Capture(fp.Pool, fp.Regions, nil)
			fp.DirtySome(1)
			cur := Capture(fp.Pool, fp.Regions, nil)
			wire, err := cur.Encode(prev, EncodeOptions{Delta: true, Compress: true})
			if err != nil {
				b.Fatal(err)
			}
			// One warm-up decode fills the buffer recycler, so the loop
			// measures the steady state rather than first-touch allocation.
			warm, err := Decode(wire, prev)
			if err != nil {
				b.Fatal(err)
			}
			warm.Release()
			b.SetBytes(cur.RawBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := Decode(wire, prev)
				if err != nil {
					b.Fatal(err)
				}
				s.Release()
			}
		})
	}
}

func BenchmarkCaptureFull(b *testing.B) {
	for _, spec := range FootprintSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			fp := buildFootprint(b, spec)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fp.DirtySome(uint64(i))
				snap := Capture(fp.Pool, fp.Regions, nil)
				_ = snap
			}
		})
	}
}

// BenchmarkCaptureDirty measures the steady-state synchronization cycle the
// record loop actually runs: a few small writes land between jobs, then a
// dirty-aware capture aliases every clean region, the delta encoder turns the
// aliased regions into zero runs, and the baseline advances. This is the
// number the tentpole optimizes.
func BenchmarkCaptureDirty(b *testing.B) {
	for _, spec := range FootprintSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			fp := buildFootprint(b, spec)
			var cs CaptureState
			base := cs.Capture(fp.Pool, fp.Regions, nil)
			cs.Commit(base)
			b.SetBytes(base.RawBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fp.DirtySome(uint64(i))
				snap := cs.Capture(fp.Pool, fp.Regions, nil)
				if _, err := snap.Encode(cs.Prev(), EncodeOptions{Delta: true, Compress: true}); err != nil {
					b.Fatal(err)
				}
				cs.Commit(snap)
			}
		})
	}
}

// TestSnapshotEncodeAllocBudget is the CI allocation gate: encoding a warm
// MNIST snapshot must stay within a small, committed allocs/op budget. The
// budget has headroom over the measured value (~7) but fails loudly if
// buffer recycling regresses back to per-call allocation (the original
// encoder sat at several hundred).
func TestSnapshotEncodeAllocBudget(t *testing.T) {
	const allocBudget = 24
	fp := buildFootprint(t, MNISTFootprint)
	snap := Capture(fp.Pool, fp.Regions, nil)
	// Warm the buffer recycler so the measurement sees the steady state.
	if _, err := snap.Encode(nil, EncodeOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := snap.Encode(nil, EncodeOptions{Compress: true}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > allocBudget {
		t.Fatalf("Snapshot.Encode allocates %.1f objects/op, budget is %d", avg, allocBudget)
	}
}

// TestSnapshotEncodeDeltaAllocBudget gates the job-boundary encode: a
// delta+compressed MNIST dump must stay within a small allocs/op budget.
// The measured value is ~6; the XOR is fused into the RLE pass, so a
// per-region delta buffer or worker fan-out creeping back (the
// materializing encoder sat at ~60) fails the budget.
func TestSnapshotEncodeDeltaAllocBudget(t *testing.T) {
	const allocBudget = 16
	fp := buildFootprint(t, MNISTFootprint)
	prev := Capture(fp.Pool, fp.Regions, nil)
	fp.DirtySome(1)
	cur := Capture(fp.Pool, fp.Regions, nil)
	opts := EncodeOptions{Delta: true, Compress: true}
	if _, err := cur.Encode(prev, opts); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := cur.Encode(prev, opts); err != nil {
			t.Fatal(err)
		}
	})
	if avg > allocBudget {
		t.Fatalf("delta Snapshot.Encode allocates %.1f objects/op, budget is %d", avg, allocBudget)
	}
}
