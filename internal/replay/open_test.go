package replay

import (
	"errors"
	"testing"

	"gpurelay/internal/grterr"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/record"
	"gpurelay/internal/trace"
)

// resealed re-signs a recording after mutate under testKey: the
// key-holding-recorder threat model, where the seal is valid and only the
// structural audit stands between a hostile header and the device.
func resealed(t *testing.T, s *trace.Signed, mutate func(*trace.Recording)) *trace.Signed {
	t.Helper()
	rec, err := trace.Verify(s, testKey)
	if err != nil {
		t.Fatal(err)
	}
	mutate(rec)
	out, err := trace.Sign(rec, testKey)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOpenGatesPoolSizeOnAudit checks that Open hands out a pool size only
// for a recording that passed verification and the audit: a correctly
// sealed recording with a hostile PoolSize is refused before any caller can
// size a pool from it.
func TestOpenGatesPoolSizeOnAudit(t *testing.T) {
	res := recordModel(t, mlfw.MNIST(), record.OursMDS)
	v, err := Open(testKey, res.Signed)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if v.PoolSize() != res.Recording.PoolSize {
		t.Fatalf("pool size %d, recorded %d", v.PoolSize(), res.Recording.PoolSize)
	}
	for _, size := range []uint64{0, 1 << 62} {
		hostile := resealed(t, res.Signed, func(r *trace.Recording) { r.PoolSize = size })
		_, err := Open(testKey, hostile)
		var ae *trace.AuditError
		if !errors.As(err, &ae) || !errors.Is(err, grterr.ErrBadRecording) {
			t.Fatalf("pool size %d: err %v, want an audit rejection", size, err)
		}
	}
	if _, err := Open([]byte("wrong-key-wrong-key-wrong-key-00"), res.Signed); !errors.Is(err, grterr.ErrBadRecording) {
		t.Fatalf("wrong key: err %v, want ErrBadRecording", err)
	}
	if _, err := Open(testKey); err == nil {
		t.Fatal("empty segment list accepted")
	}
}

// TestOpenMergesChainedSegments checks the chained form: per-layer segments
// merge into one event stream equal to the monolithic recording's, a bad
// segment is named in the error, and Bind performs the SKU and pool checks.
func TestOpenMergesChainedSegments(t *testing.T) {
	m := mlfw.MNIST()
	res := recordModel(t, m, record.OursMDS)
	segs, _, err := res.Segments(m.LayerBoundaries())
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("%d segments, want a chain", len(segs))
	}
	v, err := Open(testKey, segs...)
	if err != nil {
		t.Fatalf("open chain: %v", err)
	}
	if got, want := len(v.Recording().Events), len(res.Recording.Events); got != want {
		t.Fatalf("merged chain has %d events, monolithic recording %d", got, want)
	}
	if v.PoolSize() != res.Recording.PoolSize {
		t.Fatalf("chain pool size %d, recorded %d", v.PoolSize(), res.Recording.PoolSize)
	}

	bad := append([]*trace.Signed(nil), segs...)
	bad[1] = resealed(t, segs[1], func(r *trace.Recording) { r.ProductID = mali.G52MP2.ProductID })
	if _, err := Open(testKey, bad...); !errors.Is(err, grterr.ErrSKUMismatch) {
		t.Fatalf("mixed-product chain: err %v, want ErrSKUMismatch", err)
	}

	gpu, ctrl, clock := newReplayDevice(v.PoolSize(), 1)
	if _, err := v.Bind(gpu, ctrl, clock); err != nil {
		t.Fatalf("bind: %v", err)
	}
	small, ctrl, clock := newReplayDevice(1<<20, 1)
	if _, err := v.Bind(small, ctrl, clock); err == nil {
		t.Fatal("chain bound to a pool smaller than it needs")
	}
}
