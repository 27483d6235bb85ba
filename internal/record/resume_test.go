package record

import (
	"bytes"
	"testing"

	"gpurelay/internal/ckpt"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/trace"
)

// TestResumedRecordingByteIdentical is the pipeline's checkpoint property
// test: a session resumed from a mid-run checkpoint must stitch the exact
// recording an uninterrupted session produces — same marshaled bytes, same
// seal — even though the resumed run rebuilds its memsync baselines (and the
// dirty-capture state behind them) from scratch during resync. Checkpoints
// are round-tripped through Seal/Open so the test covers the persisted form,
// not just the in-memory struct.
func TestResumedRecordingByteIdentical(t *testing.T) {
	base := Config{
		Variant: OursMDS, Model: mlfw.MNIST(), SKU: mali.G71MP8,
		Network: netsim.WiFi, SessionKey: testKey,
		ClientSeed: 42, InjectMispredictionAt: -1,
	}

	// Uninterrupted reference run, sealing the checkpoint every per-job
	// epoch stitches to, the way a client would persist them.
	var sealed []*trace.Signed
	cfg := base
	var r Resumer
	r.Arm(&cfg, func(*ckpt.Epoch) {
		cp := r.Checkpoint()
		s, err := cp.Seal(testKey)
		if err != nil {
			t.Errorf("seal checkpoint at job %d: %v", cp.Job, err)
			return
		}
		sealed = append(sealed, s)
	})
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refBlob, err := ref.Recording.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) < 4 {
		t.Fatalf("only %d checkpoints captured, need a mid-session one", len(sealed))
	}

	// Resume from an early, a middle, and the last checkpoint.
	for _, idx := range []int{0, len(sealed) / 2, len(sealed) - 1} {
		cp, err := ckpt.Open(sealed[idx], testKey)
		if err != nil {
			t.Fatalf("reopen checkpoint %d: %v", idx, err)
		}
		cfg := base
		cfg.Resume = cp
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("resume from job %d: %v", cp.Job, err)
		}
		blob, err := res.Recording.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, refBlob) {
			t.Fatalf("resume from job %d: stitched recording differs (%d vs %d bytes)",
				cp.Job, len(blob), len(refBlob))
		}
		if res.Signed.MAC != ref.Signed.MAC {
			t.Fatalf("resume from job %d: recording seal differs", cp.Job)
		}
	}
}
