package gpumem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRangeCoderRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{0xFF},
		[]byte("the quick brown fox jumps over the lazy dog"),
		bytes.Repeat([]byte{0}, 10000),
		bytes.Repeat([]byte{0xAB}, 5000),
	}
	for i, in := range cases {
		enc := RangeEncode(in)
		out, err := RangeDecode(enc, len(in))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

func TestRangeCoderCompressesZeros(t *testing.T) {
	in := make([]byte, 1<<20) // a zero-filled megabyte, like dry-run data
	enc := RangeEncode(in)
	if len(enc) > len(in)/100 {
		t.Fatalf("zero-filled MB compressed to %d bytes, want <1%%", len(enc))
	}
}

func TestRangeCoderRandomDataRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in := make([]byte, 100000)
	rng.Read(in)
	enc := RangeEncode(in)
	out, err := RangeDecode(enc, len(in))
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("random data round trip failed: %v", err)
	}
	// Incompressible data should not blow up by more than a few percent.
	if len(enc) > len(in)+len(in)/20 {
		t.Fatalf("random data expanded to %d bytes from %d", len(enc), len(in))
	}
}

func TestPropertyRangeCoder(t *testing.T) {
	f := func(data []byte) bool {
		enc := RangeEncode(data)
		out, err := RangeDecode(enc, len(data))
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func testRegions(t *testing.T, pool *Pool) []*Region {
	t.Helper()
	mk := func(name string, kind RegionKind, size uint64) *Region {
		pa, err := pool.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		return &Region{Name: name, Kind: kind, PA: pa, VA: VA(0x1000000 + uint64(pa)), Size: size, Flags: DefaultFlags(kind)}
	}
	return []*Region{
		mk("cmds", KindCommands, 2*PageSize),
		mk("shader", KindShader, PageSize),
		mk("weights", KindWeights, 64*PageSize),
		mk("out", KindOutput, 4*PageSize),
	}
}

func TestCaptureFilters(t *testing.T) {
	pool := NewPool(1 << 22)
	regions := testRegions(t, pool)
	all := Capture(pool, regions, nil)
	if len(all.Regions) != 4 {
		t.Fatalf("unfiltered capture has %d regions", len(all.Regions))
	}
	meta := Capture(pool, regions, MetastateOnly)
	if len(meta.Regions) != 2 {
		t.Fatalf("metastate capture has %d regions, want 2", len(meta.Regions))
	}
	for _, r := range meta.Regions {
		if !r.Kind.Metastate() {
			t.Fatalf("metastate capture includes %v", r.Kind)
		}
	}
}

func TestSnapshotEncodeDecodeFull(t *testing.T) {
	pool := NewPool(1 << 22)
	regions := testRegions(t, pool)
	pool.Write(regions[0].PA, []byte("JOB_CHAIN v1"))
	pool.Write(regions[1].PA, bytes.Repeat([]byte{0xC0, 0xDE}, 100))

	snap := Capture(pool, regions, nil)
	wire, err := snap.Encode(nil, EncodeOptions{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Regions) != len(snap.Regions) {
		t.Fatalf("region count %d != %d", len(got.Regions), len(snap.Regions))
	}
	for i := range got.Regions {
		g, w := got.Regions[i], snap.Regions[i]
		if g.Name != w.Name || g.Kind != w.Kind || g.VA != w.VA || g.PA != w.PA || !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("region %d mismatch after decode", i)
		}
	}
}

func TestSnapshotDeltaEncoding(t *testing.T) {
	pool := NewPool(1 << 22)
	regions := testRegions(t, pool)
	pool.Write(regions[0].PA, bytes.Repeat([]byte{0x11}, PageSize))
	base := Capture(pool, regions, nil).Clone()

	// Small change: one command word.
	pool.Write32(regions[0].PA+8, 0xFEEDFACE)
	cur := Capture(pool, regions, nil)

	full, err := cur.Encode(nil, EncodeOptions{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := cur.Encode(base, EncodeOptions{Delta: true, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) >= len(full) {
		t.Fatalf("delta (%d) not smaller than full (%d)", len(delta), len(full))
	}
	got, err := Decode(delta, base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Regions[0].Data[8] != 0xCE {
		t.Fatal("delta decode lost the change")
	}
	for i := range got.Regions {
		if !bytes.Equal(got.Regions[i].Data, cur.Regions[i].Data) {
			t.Fatalf("region %d differs after delta round trip", i)
		}
	}
}

func TestSnapshotDeltaMismatchedBase(t *testing.T) {
	pool := NewPool(1 << 22)
	regions := testRegions(t, pool)
	cur := Capture(pool, regions, nil)
	bad := Capture(pool, regions[:2], nil)
	if _, err := cur.Encode(bad, EncodeOptions{Delta: true}); err == nil {
		t.Fatal("encode with mismatched delta base succeeded")
	}
}

func TestSnapshotRestore(t *testing.T) {
	src := NewPool(1 << 22)
	dst := NewPool(1 << 22)
	regions := testRegions(t, src)
	src.Write(regions[1].PA, []byte{1, 2, 3, 4})
	snap := Capture(src, regions, nil)
	snap.Restore(dst)
	buf := make([]byte, 4)
	dst.Read(regions[1].PA, buf)
	if !bytes.Equal(buf, []byte{1, 2, 3, 4}) {
		t.Fatalf("restore wrote %v", buf)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a dump"), nil); err == nil {
		t.Fatal("garbage decoded successfully")
	}
	if _, err := Decode(nil, nil); err == nil {
		t.Fatal("empty dump decoded successfully")
	}
}

func TestMetaOnlyTrafficAdvantage(t *testing.T) {
	// The headline of §5: metastate is a small fraction of GPU memory, so
	// meta-only sync ships far less than full sync. Model a layer with
	// large zero-filled weights (dry run) and small metastate.
	pool := NewPool(1 << 26)
	regions := testRegions(t, pool)
	pool.Write(regions[0].PA, bytes.Repeat([]byte{0x5A}, 2*PageSize)) // commands
	pool.Write(regions[1].PA, bytes.Repeat([]byte{0xC3}, PageSize))   // shader

	naive := Capture(pool, regions, nil)
	naiveWire, err := naive.Encode(nil, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	meta := Capture(pool, regions, MetastateOnly)
	metaWire, err := meta.Encode(nil, EncodeOptions{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(naiveWire)) < naive.RawBytes() {
		t.Fatalf("naive wire %d smaller than raw %d", len(naiveWire), naive.RawBytes())
	}
	if len(metaWire)*4 > len(naiveWire) {
		t.Fatalf("meta-only sync %d not <25%% of naive %d", len(metaWire), len(naiveWire))
	}
}

// Every encoding decodes back to the exact snapshot contents, even into
// recycled buffers that still hold another snapshot's bytes.
func TestSnapshotRoundTripEveryEncoding(t *testing.T) {
	fp := buildFootprint(t, MNISTFootprint)
	prev := Capture(fp.Pool, fp.Regions, nil)
	fp.DirtySome(1)
	cur := Capture(fp.Pool, fp.Regions, nil)
	for _, opts := range []EncodeOptions{{}, {Compress: true}, {Delta: true}, {Delta: true, Compress: true}} {
		base := prev
		if !opts.Delta {
			base = nil
		}
		wire, err := cur.Encode(base, opts)
		if err != nil {
			t.Fatalf("%+v: encode: %v", opts, err)
		}
		garbage := cur.Clone()
		for i := range garbage.Regions {
			for j := range garbage.Regions[i].Data {
				garbage.Regions[i].Data[j] = 0xA5
			}
		}
		garbage.Release()
		dec, err := Decode(wire, base)
		if err != nil {
			t.Fatalf("%+v: decode: %v", opts, err)
		}
		for i := range dec.Regions {
			if !bytes.Equal(dec.Regions[i].Data, cur.Regions[i].Data) {
				t.Fatalf("%+v: region %q decoded wrong", opts, dec.Regions[i].Name)
			}
		}
		dec.Release()
	}
}
