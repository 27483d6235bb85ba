package gpumem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// This file freezes the original bit-serial range coder — one call per bit,
// a branch per bit, the zero-RLE pass over a materialized payload — as the
// differential oracle for the production coder. The production coder must
// produce the same bytes on every input and decode every stream to the same
// payload; the wire format has no version field, so any divergence would
// silently break recordings made before it.

type refEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

func (e *refEncoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || e.low>>32 != 0 {
		temp := e.cache
		for {
			e.out = append(e.out, byte(uint64(temp)+e.low>>32))
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(e.low >> 24)
	}
	e.cacheSize++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

func (e *refEncoder) encodeBit(prob *uint16, bit int) {
	bound := (e.rng >> 11) * uint32(*prob)
	if bit == 0 {
		e.rng = bound
		*prob += (rcModelTotal - *prob) >> rcMoveBits
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*prob -= *prob >> rcMoveBits
	}
	for e.rng < rcTop {
		e.shiftLow()
		e.rng <<= 8
	}
}

type refDecoder struct {
	rng  uint32
	code uint32
	in   []byte
	pos  int
}

func (d *refDecoder) decodeBit(prob *uint16) int {
	bound := (d.rng >> 11) * uint32(*prob)
	var bit int
	if d.code < bound {
		d.rng = bound
		*prob += (rcModelTotal - *prob) >> rcMoveBits
	} else {
		d.code -= bound
		d.rng -= bound
		*prob -= *prob >> rcMoveBits
		bit = 1
	}
	for d.rng < rcTop {
		var b byte
		if d.pos < len(d.in) {
			b = d.in[d.pos]
			d.pos++
		}
		d.code = d.code<<8 | uint32(b)
		d.rng <<= 8
	}
	return bit
}

// refRLE is the zero-RLE pass over one contiguous payload.
func refRLE(data []byte) []byte {
	var out []byte
	for i := 0; i < len(data); {
		if data[i] != 0 {
			out = append(out, data[i])
			i++
			continue
		}
		j := i
		for j < len(data) && data[j] == 0 {
			j++
		}
		out = append(out, 0)
		out = binary.AppendUvarint(out, uint64(j-i))
		i = j
	}
	return out
}

// refRangeEncode is the original RangeEncode on a materialized payload.
func refRangeEncode(data []byte) []byte {
	rle := refRLE(data)
	e := &refEncoder{rng: 0xFFFFFFFF, cacheSize: 1}
	var probs [256]uint16
	for i := range probs {
		probs[i] = rcInitProb
	}
	for _, b := range rle {
		ctx := 1
		for i := 7; i >= 0; i-- {
			bit := int(b>>uint(i)) & 1
			e.encodeBit(&probs[ctx], bit)
			ctx = ctx<<1 | bit
		}
	}
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return append(binary.AppendUvarint(nil, uint64(len(rle))), e.out...)
}

// refRangeDecode is the original RangeDecode into a fresh buffer.
func refRangeDecode(encoded []byte, length int) ([]byte, error) {
	rleLen, n := binary.Uvarint(encoded)
	if n <= 0 || len(encoded[n:]) < 5 {
		return nil, fmt.Errorf("ref: bad header")
	}
	d := &refDecoder{rng: 0xFFFFFFFF, in: encoded[n:]}
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.in[d.pos])
		d.pos++
	}
	var probs [256]uint16
	for i := range probs {
		probs[i] = rcInitProb
	}
	decodeByte := func() byte {
		ctx := 1
		for i := 0; i < 8; i++ {
			ctx = ctx<<1 | d.decodeBit(&probs[ctx])
		}
		return byte(ctx)
	}
	out := make([]byte, 0, length)
	for i := uint64(0); i < rleLen; i++ {
		b := decodeByte()
		if b != 0 {
			out = append(out, b)
		} else {
			var run uint64
			for shift := uint(0); ; shift += 7 {
				if i++; i >= rleLen || shift >= 64 {
					return nil, fmt.Errorf("ref: corrupt run")
				}
				vb := decodeByte()
				run |= uint64(vb&0x7F) << shift
				if vb < 0x80 {
					break
				}
			}
			if run > uint64(length-len(out)) {
				return nil, fmt.Errorf("ref: run overflows")
			}
			out = append(out, make([]byte, run)...)
		}
		if len(out) > length {
			return nil, fmt.Errorf("ref: overflow")
		}
	}
	if len(out) != length {
		return nil, fmt.Errorf("ref: short payload")
	}
	return out, nil
}

// oracleStreams are the payload shapes the codec must agree on: random
// bytes, all-zero and all-0xFF spans, and long runs broken by sparse
// literals (the shape of a dirty region's delta).
type namedStream struct {
	name    string
	payload []byte
}

func oracleStreams(rnd *rand.Rand) []namedStream {
	random := make([]byte, 20000+rnd.Intn(20000))
	rnd.Read(random)
	longRun := make([]byte, 300000)
	for k := 0; k < 40; k++ {
		off := rnd.Intn(len(longRun) - 64)
		rnd.Read(longRun[off : off+1+rnd.Intn(63)])
	}
	mixed := make([]byte, 50000)
	for off := 0; off < len(mixed); {
		n := 1 + rnd.Intn(3000)
		if off+n > len(mixed) {
			n = len(mixed) - off
		}
		switch rnd.Intn(3) {
		case 0:
			rnd.Read(mixed[off : off+n])
		case 1:
			for i := off; i < off+n; i++ {
				mixed[i] = 0xFF
			}
		}
		off += n
	}
	return []namedStream{
		{"empty", nil},
		{"random", random},
		{"zero", make([]byte, 70000)},
		{"ff", bytes.Repeat([]byte{0xFF}, 70000)},
		{"longrun", longRun},
		{"mixed", mixed},
	}
}

// randomSplit cuts payload into a random chunk list spelling the same
// logical bytes: plain data chunks, nil known-zero chunks over zero spans,
// and XOR chunks against a random base.
func randomSplit(rnd *rand.Rand, payload []byte) []chunk {
	var chunks []chunk
	for off := 0; off < len(payload); {
		n := 1 + rnd.Intn(1+len(payload)/4)
		if off+n > len(payload) {
			n = len(payload) - off
		}
		piece := payload[off : off+n]
		switch {
		case allZero(piece) && rnd.Intn(2) == 0:
			chunks = append(chunks, zeroChunk(n))
		case rnd.Intn(2) == 0:
			base := make([]byte, n)
			rnd.Read(base)
			if rnd.Intn(2) == 0 {
				// Sparse base: most of the XOR is the piece itself.
				clear(base[rnd.Intn(n):])
			}
			cur := make([]byte, n)
			xorInto(cur, piece, base)
			chunks = append(chunks, xorChunk(cur, base))
		default:
			chunks = append(chunks, dataChunk(piece))
		}
		off += n
	}
	if rnd.Intn(2) == 0 {
		chunks = append(chunks, zeroChunk(0)) // empty trailing chunk
	}
	return chunks
}

// TestRangeCoderMatchesReference is the byte-equality oracle: every stream,
// under every chunking, encodes to exactly the reference bytes and decodes
// back to the reference payload.
func TestRangeCoderMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4; trial++ {
		for _, st := range oracleStreams(rnd) {
			name, payload := st.name, st.payload
			want := refRangeEncode(payload)
			for split := 0; split < 4; split++ {
				var chunks []chunk
				if split == 0 {
					chunks = []chunk{dataChunk(payload)}
				} else {
					chunks = randomSplit(rnd, payload)
				}
				if got := rangeEncodeChunks(chunks); !bytes.Equal(got, want) {
					t.Fatalf("trial %d %s split %d: %d-byte stream differs from the %d-byte reference",
						trial, name, split, len(got), len(want))
				}
			}
			got, err := RangeDecode(want, len(payload))
			if err != nil {
				t.Fatalf("trial %d %s: decode: %v", trial, name, err)
			}
			ref, err := refRangeDecode(want, len(payload))
			if err != nil {
				t.Fatalf("trial %d %s: reference decode: %v", trial, name, err)
			}
			if !bytes.Equal(got, ref) || !bytes.Equal(got, payload) {
				t.Fatalf("trial %d %s: decode differs from reference", trial, name)
			}
		}
	}
}

// TestFusedDeltaDecodeMatchesReference checks the fused delta decode —
// runs copy the base, literals XOR with it, straight into dirty recycled
// destinations — against the reference decode followed by an XOR with the
// base.
func TestFusedDeltaDecodeMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for _, st := range oracleStreams(rnd) {
		name, payload := st.name, st.payload
		enc := refRangeEncode(payload)
		want, err := refRangeDecode(enc, len(payload))
		if err != nil {
			t.Fatalf("%s: reference decode: %v", name, err)
		}
		base := make([]byte, len(payload))
		rnd.Read(base)
		xorInto(want, want, base)

		// Split destinations and bases at the same random cuts, and fill
		// the destinations with garbage so every byte must be written.
		var dsts, bases [][]byte
		out := make([]byte, len(payload))
		rnd.Read(out)
		for off := 0; off < len(payload); {
			n := 1 + rnd.Intn(1+len(payload)/3)
			if off+n > len(payload) {
				n = len(payload) - off
			}
			dsts = append(dsts, out[off:off+n])
			bases = append(bases, base[off:off+n])
			off += n
		}
		if err := rangeDecodeChunks(enc, dsts, bases); err != nil {
			t.Fatalf("%s: fused decode: %v", name, err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("%s: fused delta decode differs from reference decode XOR base", name)
		}
	}
}

// TestFusedDeltaEncodeMatchesReference checks the fused Encode path over a
// realistic footprint against the reference coder run on the materialized
// concatenated delta.
func TestFusedDeltaEncodeMatchesReference(t *testing.T) {
	fp := buildFootprint(t, MNISTFootprint)
	prev := Capture(fp.Pool, fp.Regions, nil)
	fp.DirtySome(3)
	cur := Capture(fp.Pool, fp.Regions, nil)
	got, err := cur.Encode(prev, EncodeOptions{Delta: true, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	for i := range cur.Regions {
		x := make([]byte, len(cur.Regions[i].Data))
		xorInto(x, cur.Regions[i].Data, prev.Regions[i].Data)
		payload = append(payload, x...)
	}
	body := got[cur.headerLen()+4:]
	if want := refRangeEncode(payload); !bytes.Equal(body, want) {
		t.Fatal("fused delta encode differs from the reference coder on the materialized delta")
	}
}
