package ckpt

// Epoch-chained incremental checkpoints (DESIGN.md §14). A full Checkpoint
// re-serializes the whole interaction log at every job boundary, so its cost
// scales with the footprint of the session, not with what changed. An Epoch
// instead captures only the delta since its parent — the events appended
// since the previous epoch, the current memsync fingerprints, and the region
// map only when it structurally changed — and is chained to the parent by a
// SHA-256 fingerprint of the parent's serialized payload. Restore stitches
// the chain back into an ordinary Checkpoint, so the resume path (log-prefix
// replay + boundary fingerprint validation) is unchanged.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"gpurelay/internal/grterr"
	"gpurelay/internal/trace"
	"gpurelay/internal/wire"
)

// epochMagic is "GRTE" little-endian.
const epochMagic uint32 = 0x45545247

// Epoch is one link of an incremental checkpoint chain. The session header
// (SessionID through Network) is repeated on every epoch so any link can be
// validated against its session without the rest of the chain in hand.
type Epoch struct {
	// Session pinning, exactly as on Checkpoint.
	SessionID  string
	Workload   string
	ProductID  uint32
	PoolSize   uint64
	ClientSeed uint64
	Variant    uint8
	Network    string

	// Seq is the epoch's position in its chain; 0 is the base (full) epoch.
	Seq uint32
	// Parent is the SHA-256 fingerprint of the parent epoch's serialized
	// payload; all-zero for the base epoch. The chain is tamper-evident on
	// top of each epoch's own HMAC seal: reordering, dropping, or splicing
	// epochs breaks the fingerprint linkage.
	Parent [32]byte
	// Job is the 0-based index of the last fully completed job this epoch
	// describes (the boundary it was captured at).
	Job int
	// StartEvent is the log offset of Events[0]: the number of events the
	// chain's earlier epochs already carry.
	StartEvent int
	// Events is the interaction-log delta appended since the parent epoch.
	Events []trace.Event
	// Regions is the region map at the boundary, or nil to inherit the
	// nearest ancestor's — the steady-state case, where the map stopped
	// changing after model build-up.
	Regions []trace.RegionInfo
	// SyncOutFP/SyncInFP fingerprint the memsync delta-encoder metastate at
	// the boundary (same definition as Checkpoint's).
	SyncOutFP uint64
	SyncInFP  uint64
	// HistorySigs counts speculation-history signatures at the boundary.
	HistorySigs uint32

	// fp caches the serialized-payload fingerprint; an Epoch must not be
	// mutated after Fingerprint or MarshalBinary has been called.
	fp      [32]byte
	fpValid bool
}

// MarshalBinary serializes the epoch. The event delta and region map ride in
// an embedded trace.Recording blob, reusing the recording wire format like
// Checkpoint does.
func (e *Epoch) MarshalBinary() ([]byte, error) {
	rec := trace.Recording{
		Workload:  e.Workload,
		ProductID: e.ProductID,
		PoolSize:  e.PoolSize,
		Events:    e.Events,
		Regions:   e.Regions,
	}
	blob, err := rec.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("ckpt: marshal epoch delta: %w", err)
	}
	inherit := byte(0)
	if e.Regions == nil {
		inherit = 1
	}
	le := binary.LittleEndian
	out := make([]byte, 4+2+len(e.SessionID)+2+len(e.Network)+8+1+4+32+4+4+1+8+8+4+4+len(blob))
	off := 0
	pu32 := func(v uint32) { le.PutUint32(out[off:], v); off += 4 }
	pu64 := func(v uint64) { le.PutUint64(out[off:], v); off += 8 }
	ps := func(s string) {
		le.PutUint16(out[off:], uint16(len(s)))
		off += 2
		off += copy(out[off:], s)
	}
	pu32(epochMagic)
	ps(e.SessionID)
	ps(e.Network)
	pu64(e.ClientSeed)
	out[off] = e.Variant
	off++
	pu32(e.Seq)
	off += copy(out[off:], e.Parent[:])
	pu32(uint32(e.Job))
	pu32(uint32(e.StartEvent))
	out[off] = inherit
	off++
	pu64(e.SyncOutFP)
	pu64(e.SyncInFP)
	pu32(e.HistorySigs)
	pu32(uint32(len(blob)))
	copy(out[off:], blob)
	return out, nil
}

// Fingerprint returns the SHA-256 of the epoch's serialized payload — the
// value a child epoch carries as Parent. It is cached after the first call;
// the epoch must not be mutated afterwards.
func (e *Epoch) Fingerprint() ([32]byte, error) {
	if e.fpValid {
		return e.fp, nil
	}
	payload, err := e.MarshalBinary()
	if err != nil {
		return [32]byte{}, err
	}
	e.fp = sha256.Sum256(payload)
	e.fpValid = true
	return e.fp, nil
}

// UnmarshalBinary parses an epoch under the default decode limits.
// Corruption wraps grterr.ErrCheckpointCorrupt.
func (e *Epoch) UnmarshalBinary(data []byte) error {
	return e.UnmarshalBinaryLimited(data, wire.DefaultLimits())
}

// UnmarshalBinaryLimited is UnmarshalBinary with a caller-supplied decode
// budget, mirroring Checkpoint.UnmarshalBinaryLimited: every length prefix
// is validated against the bytes remaining before its buffer is allocated.
func (e *Epoch) UnmarshalBinaryLimited(data []byte, lim wire.DecodeLimits) error {
	corrupt := func(what string) error {
		return fmt.Errorf("ckpt: epoch %s: %w", what, grterr.ErrCheckpointCorrupt)
	}
	budget := lim.Budget()
	r := bytes.NewReader(data)
	rd := func(v any) bool { return binary.Read(r, binary.LittleEndian, v) == nil }
	var strErr error
	rds := func(s *string) bool {
		var n uint16
		if !rd(&n) {
			return false
		}
		if int(n) > r.Len() {
			return false
		}
		if err := budget.String("epoch string", int(n)); err != nil {
			strErr = err
			return false
		}
		b := make([]byte, n)
		if _, err := r.Read(b); err != nil || len(b) != int(n) {
			return false
		}
		*s = string(b)
		return true
	}
	var magic uint32
	if !rd(&magic) || magic != epochMagic {
		return corrupt("bad magic")
	}
	var job, startEvent, blobLen uint32
	var inherit uint8
	if !rds(&e.SessionID) || !rds(&e.Network) ||
		!rd(&e.ClientSeed) || !rd(&e.Variant) || !rd(&e.Seq) ||
		!rd(&e.Parent) || !rd(&job) || !rd(&startEvent) || !rd(&inherit) ||
		!rd(&e.SyncOutFP) || !rd(&e.SyncInFP) || !rd(&e.HistorySigs) ||
		!rd(&blobLen) {
		if strErr != nil {
			return corrupt(strErr.Error())
		}
		return corrupt("truncated header")
	}
	e.Job = int(job)
	e.StartEvent = int(startEvent)
	if int64(blobLen) > int64(r.Len()) {
		return corrupt("delta blob length exceeds input")
	}
	if err := budget.Alloc("epoch delta blob", int64(blobLen)); err != nil {
		return corrupt(err.Error())
	}
	blob := make([]byte, blobLen)
	if n, err := r.Read(blob); err != nil || n != int(blobLen) {
		return corrupt("truncated delta blob")
	}
	var rec trace.Recording
	if err := rec.UnmarshalBinaryLimited(blob, lim); err != nil {
		return corrupt(fmt.Sprintf("delta blob: %v", err))
	}
	e.Workload = rec.Workload
	e.ProductID = rec.ProductID
	e.PoolSize = rec.PoolSize
	e.Events = rec.Events
	if inherit != 0 {
		if len(rec.Regions) != 0 {
			return corrupt("inherit flag set but regions present")
		}
		e.Regions = nil
	} else {
		e.Regions = rec.Regions
	}
	e.fpValid = false
	return nil
}

// Seal serializes and authenticates the epoch under the session key, the
// same HMAC-SHA256 scheme that seals checkpoints and recordings. Cost is
// proportional to the epoch's delta, not the session.
func (e *Epoch) Seal(key []byte) (*trace.Signed, error) {
	payload, err := e.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return trace.SignBytes(payload, key)
}

// OpenEpoch verifies a sealed epoch and parses it under the default decode
// limits. Authentication or format failure wraps grterr.ErrCheckpointCorrupt.
func OpenEpoch(s *trace.Signed, key []byte) (*Epoch, error) {
	return OpenEpochLimited(s, key, wire.DefaultLimits())
}

// OpenEpochLimited is OpenEpoch with a caller-supplied decode budget.
func OpenEpochLimited(s *trace.Signed, key []byte, lim wire.DecodeLimits) (*Epoch, error) {
	payload, err := trace.VerifyBytes(s, key)
	if err != nil {
		return nil, fmt.Errorf("ckpt: epoch %v: %w", err, grterr.ErrCheckpointCorrupt)
	}
	e := &Epoch{}
	if err := e.UnmarshalBinaryLimited(payload, lim); err != nil {
		return nil, err
	}
	return e, nil
}

// Chain accumulates the epochs of one session in order. Append validates
// the fingerprint linkage and session pinning of every link, so a stitched
// chain is structurally sound by construction.
type Chain struct {
	Epochs []*Epoch
}

// Tip returns the newest epoch (nil for an empty chain).
func (ch *Chain) Tip() *Epoch {
	if len(ch.Epochs) == 0 {
		return nil
	}
	return ch.Epochs[len(ch.Epochs)-1]
}

// Append validates e against the chain tip and appends it. The base epoch
// must carry seq 0, start offset 0, a zero parent fingerprint, and its own
// region map; every later epoch must continue the sequence, start exactly
// where the chain ends, carry its parent's fingerprint, and describe the
// same session. Violations wrap grterr.ErrCheckpointCorrupt.
func (ch *Chain) Append(e *Epoch) error {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("ckpt: chain: "+format+": %w",
			append(args, grterr.ErrCheckpointCorrupt)...)
	}
	tip := ch.Tip()
	if tip == nil {
		if e.Seq != 0 {
			return corrupt("base epoch has seq %d", e.Seq)
		}
		if e.StartEvent != 0 {
			return corrupt("base epoch starts at event %d", e.StartEvent)
		}
		if e.Parent != ([32]byte{}) {
			return corrupt("base epoch has a parent fingerprint")
		}
		if e.Regions == nil {
			return corrupt("base epoch inherits regions with no ancestor")
		}
		if len(e.Events) == 0 {
			return corrupt("base epoch holds no events")
		}
		ch.Epochs = append(ch.Epochs, e)
		return nil
	}
	if e.Seq != tip.Seq+1 {
		return corrupt("epoch seq %d does not follow %d", e.Seq, tip.Seq)
	}
	if e.SessionID != tip.SessionID || e.Workload != tip.Workload ||
		e.ProductID != tip.ProductID || e.PoolSize != tip.PoolSize ||
		e.ClientSeed != tip.ClientSeed || e.Variant != tip.Variant ||
		e.Network != tip.Network {
		return corrupt("epoch %d describes a different session", e.Seq)
	}
	if want := tip.StartEvent + len(tip.Events); e.StartEvent != want {
		return corrupt("epoch %d starts at event %d, chain ends at %d",
			e.Seq, e.StartEvent, want)
	}
	if e.Job <= tip.Job {
		return corrupt("epoch %d job %d does not advance past %d", e.Seq, e.Job, tip.Job)
	}
	parentFP, err := tip.Fingerprint()
	if err != nil {
		return err
	}
	if e.Parent != parentFP {
		return corrupt("epoch %d parent fingerprint mismatch", e.Seq)
	}
	ch.Epochs = append(ch.Epochs, e)
	return nil
}

// Stitch reconstructs the full Checkpoint the chain describes: events
// concatenated in order, the region map from the newest epoch that carried
// one, and the boundary metadata from the tip. The result resumes through
// the ordinary Checkpoint path.
func (ch *Chain) Stitch() (*Checkpoint, error) {
	tip := ch.Tip()
	if tip == nil {
		return nil, fmt.Errorf("ckpt: chain: stitching an empty chain: %w",
			grterr.ErrCheckpointCorrupt)
	}
	total := tip.StartEvent + len(tip.Events)
	events := make([]trace.Event, 0, total)
	var regions []trace.RegionInfo
	for _, e := range ch.Epochs {
		events = append(events, e.Events...)
		if e.Regions != nil {
			regions = e.Regions
		}
	}
	return &Checkpoint{
		SessionID:   tip.SessionID,
		Workload:    tip.Workload,
		ProductID:   tip.ProductID,
		PoolSize:    tip.PoolSize,
		ClientSeed:  tip.ClientSeed,
		Variant:     tip.Variant,
		Network:     tip.Network,
		Job:         tip.Job,
		Events:      events,
		Regions:     regions,
		SyncOutFP:   tip.SyncOutFP,
		SyncInFP:    tip.SyncInFP,
		HistorySigs: tip.HistorySigs,
	}, nil
}
