package gpumem

import (
	"encoding/binary"
	"testing"
	"time"

	"gpurelay/internal/fuzzcorpus"
	"gpurelay/internal/wire"
)

var snapFuzzLimits = wire.DecodeLimits{
	MaxRegions:   64,
	MaxStringLen: 256,
	MaxDumpBytes: 1 << 20,
	MaxAlloc:     4 << 20,
}

// fuzzSnapshot is a small two-region snapshot with compressible and
// incompressible content, so raw, compressed, and delta encodings all have
// distinct wire shapes.
func fuzzSnapshot() *Snapshot {
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i * 7)
	}
	return &Snapshot{Regions: []RegionSnapshot{
		{Name: "cmds", Kind: KindCommands, VA: 0x1000, PA: 0x4000, Data: data},
		{Name: "out", Kind: KindOutput, VA: 0x2000, PA: 0x8000, Data: make([]byte, 256)},
	}}
}

// snapFuzzSeeds encodes the fixture every way the syncer does.
func snapFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	base := fuzzSnapshot()
	raw, err := base.Encode(nil, EncodeOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	comp, err := base.Encode(nil, EncodeOptions{Compress: true})
	if err != nil {
		tb.Fatal(err)
	}
	next := fuzzSnapshot()
	next.Regions[0].Data[0] ^= 0xFF
	delta, err := next.Encode(base, EncodeOptions{Delta: true, Compress: true})
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{raw, comp, delta, raw[:len(raw)/2], []byte("GRMD"), zeroRunDump()}
}

// zeroRunDump is a compressed one-region dump with a 16-byte payload whose
// 15-byte body (u32 length, uvarint RLE length 1<<40, five zero bytes of
// range-coded stream) decodes as an endless repetition of a zero marker
// followed by run length 0.
func zeroRunDump() []byte {
	s := &Snapshot{Regions: []RegionSnapshot{{Name: "r", Kind: KindCommands, Data: make([]byte, 16)}}}
	body := append(binary.AppendUvarint(nil, 1<<40), 0, 0, 0, 0, 0)
	out := make([]byte, s.headerLen(), s.headerLen()+4+len(body))
	s.putHeader(out, 2) // compressed, not delta
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	return append(out, body...)
}

// FuzzDecodeSnapshot asserts the bounded snapshot decoder never panics,
// on both the full and the delta (previous-snapshot) paths.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range snapFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := DecodeLimited(data, nil, snapFuzzLimits); err == nil {
			s.Release()
		}
		prev := fuzzSnapshot()
		if s, err := DecodeLimited(data, prev, snapFuzzLimits); err == nil {
			s.Release()
		}
	})
}

// A truncated snapshot header declaring a huge region count must fail on the
// count-versus-remaining check, not allocate.
func TestDecodeHugeRegionCount(t *testing.T) {
	raw, err := fuzzSnapshot().Encode(nil, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), raw[:16]...)
	// Region count sits right after magic and flags: bytes [5, 9).
	mut[5], mut[6], mut[7], mut[8] = 0xFF, 0xFF, 0xFF, 0x0F
	if _, err := Decode(mut, nil); err == nil {
		t.Fatal("huge region count accepted")
	}
}

// A snapshot whose declared payloads exceed the dump budget is rejected
// before the region buffers are materialized.
func TestDecodeDumpBudget(t *testing.T) {
	raw, err := fuzzSnapshot().Encode(nil, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lim := snapFuzzLimits
	lim.MaxDumpBytes = 256 // fixture carries 512+256 payload bytes
	if _, err := DecodeLimited(raw, nil, lim); err == nil {
		t.Fatal("dump budget not enforced")
	}
}

// A zero-length RLE run writes nothing, so a stream of them would spin the
// decoder for as long as its declared RLE length (here 2^40 bytes) instead
// of stopping at the 16-byte destination. The encoder never emits one; the
// decoder must reject it at once.
func TestDecodeZeroLengthRunFailsClosed(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := DecodeLimited(zeroRunDump(), nil, snapFuzzLimits)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("zero-length run accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("decoder still running after 5s on a 15-byte body")
	}
}

func TestUpdateFuzzCorpus(t *testing.T) {
	seeds := snapFuzzSeeds(t)
	if !fuzzcorpus.Update() {
		t.Skipf("set %s=1 to regenerate testdata/fuzz", fuzzcorpus.UpdateEnv)
	}
	for _, s := range seeds {
		if err := fuzzcorpus.WriteSeed("FuzzDecodeSnapshot", s); err != nil {
			t.Fatal(err)
		}
	}
}
