package record

// Job-boundary checkpoint capture (DESIGN.md §14). GR-T runs one job at a
// time and synchronizes memory only at job edges (§5), so a completed job
// boundary is a quiet point: nothing else touches the session while a
// checkpoint is taken there. The capturer takes one epoch synchronously at
// every cadence-th boundary. An epoch carries only what changed since its
// parent — a window of the shim's event log, the memsync fingerprints
// (incremental via the per-region hash cache), and the region map only when
// it structurally changed — so its cost follows the delta, not the session.
// The window needs no copy: the log is append-only (even under speculation
// it only ever holds actual GPU responses) and event payloads are immutable
// after append, so [start:end) denotes the same bytes forever.

import (
	"gpurelay/internal/ckpt"
	"gpurelay/internal/obs"
	"gpurelay/internal/trace"
)

// epochCapturer builds a session's epoch chain. Its inputs are provider
// closures rather than concrete session types so the perf fixture
// (ckptperf.go) drives the capture hot path exactly as the live session does.
type epochCapturer struct {
	cadence int // boundaries between captures; >= 1
	hdr     ckpt.Epoch
	onEpoch func(*ckpt.Epoch)
	scope   *obs.Scope

	eventCount func() int
	events     func(lo, hi int) []trace.Event
	structFP   func() string
	metaFP     func() (out, in uint64)
	regions    func() []trace.RegionInfo
	histSigs   func() uint32

	tip        *ckpt.Epoch // the newest epoch; nil before the base
	prevStruct string
	sinceCap   int
	epochs     int
}

// boundary runs at a completed job boundary and captures an epoch at every
// cadence-th one. It never advances the virtual clock and never mutates
// session state — recordings are byte-identical with checkpointing on or off.
func (ec *epochCapturer) boundary(job int) {
	if ec.sinceCap++; ec.sinceCap < ec.cadence {
		return
	}
	ec.sinceCap = 0
	e := ec.hdr
	e.Job = job
	if tip := ec.tip; tip != nil {
		// The fingerprint is cached on the parent after its first
		// computation (sealing the parent usually already paid it).
		fp, err := tip.Fingerprint()
		if err != nil {
			// Serialization of an already-captured epoch cannot fail unless
			// the session is corrupt beyond checkpointing; drop the capture
			// rather than the session.
			return
		}
		e.Seq, e.Parent, e.StartEvent = tip.Seq+1, fp, tip.StartEvent+len(tip.Events)
	}
	e.Events = ec.events(e.StartEvent, ec.eventCount())
	e.SyncOutFP, e.SyncInFP = ec.metaFP()
	e.HistorySigs = ec.histSigs()
	if structFP := ec.structFP(); ec.tip == nil || structFP != ec.prevStruct {
		e.Regions = ec.regions()
		ec.prevStruct = structFP
	}
	ec.tip = &e
	ec.epochs++
	ec.scope.Count(obs.MCkptEpochs, 1)
	ec.scope.Count(obs.MCkptEpochEvents, int64(len(e.Events)))
	ec.scope.Emit(obs.FKCheckpoint, "capture",
		obs.A("seq", int64(e.Seq)), obs.A("job", int64(job)),
		obs.A("events", int64(len(e.Events))))
	ec.onEpoch(&e)
}

// Resumer carries one logical session's resume point across record
// attempts. Each attempt captures into a fresh epoch chain — a resumed
// attempt re-derives the whole log, so its base epoch is self-contained
// again — and a lost attempt's chain is stitched into the checkpoint the
// next attempt resumes from.
type Resumer struct {
	// Last is the checkpoint the next attempt resumes from; nil starts the
	// session from its first job.
	Last  *ckpt.Checkpoint
	chain ckpt.Chain
}

// Arm points cfg's next attempt at Last and turns checkpointing on: every
// epoch the attempt captures is appended to a fresh chain, then handed to
// onEpoch when it is non-nil.
func (r *Resumer) Arm(cfg *Config, onEpoch func(*ckpt.Epoch)) {
	r.chain = ckpt.Chain{}
	cfg.Resume = r.Last
	cfg.OnEpoch = func(e *ckpt.Epoch) {
		if r.chain.Append(e) != nil {
			return // a capture that does not chain is dropped, not fatal
		}
		if onEpoch != nil {
			onEpoch(e)
		}
	}
}

// Checkpoint stitches the current attempt's chain into a resumable
// checkpoint — O(session), unlike a capture; before the attempt's first
// capture it is Last.
func (r *Resumer) Checkpoint() *ckpt.Checkpoint {
	if cp, err := r.chain.Stitch(); err == nil {
		return cp
	}
	return r.Last
}

// Lost moves the resume point to the lost attempt's newest capture.
func (r *Resumer) Lost() { r.Last = r.Checkpoint() }
