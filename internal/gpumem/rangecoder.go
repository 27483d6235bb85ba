package gpumem

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// This file implements the range coder both shims use to compress memory
// dumps (§5: "Both shims use range encoding to compress memory dumps"). It
// is a binary adaptive range coder in the LZMA style with an order-0
// bit-tree byte model: each byte is coded as 8 bits through a 256-node
// probability tree that adapts as it codes. Zero-dominated dumps — exactly
// what dry-run recording produces once program data is zero-filled —
// compress by two to three orders of magnitude.
//
// The coder operates on *chunk lists* rather than one contiguous payload:
// the snapshot encoder hands it one chunk per region (some known-zero
// without a backing buffer at all, some a region XOR its delta base) and
// the zero-RLE pre-pass merges runs across chunk boundaries, so the coded
// stream is byte-identical to coding the concatenated delta while never
// materializing it. The decoder mirrors this, expanding straight into the
// destination regions and applying the delta base as it writes.
//
// The arithmetic is that of a textbook bit-serial coder; the code is not.
// Each byte's eight bits are coded in one loop with the coder state in
// locals and the interval split and probability update done with masks,
// so the per-bit cost is a few ALU ops with no data-dependent branch.

const (
	rcTopBits    = 24
	rcTop        = 1 << rcTopBits
	rcModelTotal = 1 << 11 // probabilities are 11-bit
	rcMoveBits   = 5
	rcInitProb   = rcModelTotal / 2
)

type rcEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

func newRCEncoder(scratch []byte) *rcEncoder {
	return &rcEncoder{rng: 0xFFFFFFFF, cacheSize: 1, out: scratch[:0]}
}

// shiftLow moves the top byte of low out through the carry cache and
// returns the shifted low.
func (e *rcEncoder) shiftLow(low uint64) uint64 {
	if uint32(low) < 0xFF000000 || low>>32 != 0 {
		temp := e.cache
		for {
			e.out = append(e.out, byte(uint64(temp)+low>>32))
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(low >> 24)
	}
	e.cacheSize++
	return (low << 8) & 0xFFFFFFFF
}

func (e *rcEncoder) flush() []byte {
	for i := 0; i < 5; i++ {
		e.low = e.shiftLow(e.low)
	}
	return e.out
}

type rcDecoder struct {
	rng  uint32
	code uint32
	in   []byte
	pos  int
}

func newRCDecoder(data []byte) (*rcDecoder, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("range coder: truncated stream")
	}
	d := &rcDecoder{rng: 0xFFFFFFFF, in: data}
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.in[d.pos])
		d.pos++
	}
	return d, nil
}

type byteModel struct {
	probs [256]uint16
}

func (m *byteModel) init() {
	for i := range m.probs {
		m.probs[i] = rcInitProb
	}
}

// adapt moves an 11-bit probability toward the coded bit without a branch.
// one is all ones for a 1 bit and zero for a 0 bit. The distance to a
// target is shifted arithmetically: toward rcModelTotal for a 0 bit, which
// is prob += (total-prob)>>moveBits, and toward 31 for a 1 bit, where
// floor((31-prob)/32) == -(prob>>5), which is prob -= prob>>moveBits.
func adapt(prob, one uint32) uint16 {
	target := int32(31 + (rcModelTotal-31)&^one)
	return uint16(int32(prob) + (target-int32(prob))>>rcMoveBits)
}

// encode codes every byte of data MSB first through the bit tree. The coder
// state lives in locals for the whole stream; each bit's interval split and
// probability update are mask arithmetic, so the only branches left are
// the loop and the (rare) renormalization.
func (m *byteModel) encode(e *rcEncoder, data []byte) {
	low, rng := e.low, e.rng
	for _, b := range data {
		ctx := uint32(1)
		for i := 7; i >= 0; i-- {
			bit := uint32(b>>uint(i)) & 1
			one := -bit
			p := &m.probs[ctx&0xFF]
			prob := uint32(*p)
			bound := (rng >> 11) * prob
			low += uint64(bound & one)
			rng = bound + (rng-2*bound)&one // bound, or rng-bound for a 1
			*p = adapt(prob, one)
			for rng < rcTop {
				low = e.shiftLow(low)
				rng <<= 8
			}
			ctx = ctx<<1 | bit
		}
	}
	e.low, e.rng = low, rng
}

// decode decodes one byte, mirroring encode: the 1-bit mask is the sign of
// bound-code-1 instead of a comparison branch. Past the end of the input,
// trailing zero bytes are implied.
func (m *byteModel) decode(d *rcDecoder) byte {
	rng, code, in, pos := d.rng, d.code, d.in, d.pos
	ctx := uint32(1)
	prob := uint32(m.probs[1])
	for i := 0; i < 8; i++ {
		bound := (rng >> 11) * prob
		// Both children's probabilities load before the bit is known, so
		// the load is off the bit-to-bit dependency chain.
		c0 := ctx << 1
		p0, p1 := uint32(m.probs[c0&0xFF]), uint32(m.probs[(c0|1)&0xFF])
		one := uint32(int64(uint64(bound)-uint64(code)-1) >> 63)
		code -= bound & one
		rng = bound + (rng-2*bound)&one
		m.probs[ctx&0xFF] = adapt(prob, one)
		ctx = c0 | one&1
		prob = p0&^one | p1&one
		for rng < rcTop {
			var b byte
			if pos < len(in) {
				b = in[pos]
				pos++
			}
			code = code<<8 | uint32(b)
			rng <<= 8
		}
	}
	d.rng, d.code, d.pos = rng, code, pos
	return byte(ctx)
}

// chunk is one piece of a logically concatenated payload. A nil data with
// n > 0 is a known-zero chunk: the encoder treats it as n zero bytes without
// reading (or even having) a buffer — this is how delta encoding of a
// clean, dirty-tracked region costs O(1) instead of O(size). A chunk with a
// base is an XOR chunk: its bytes are data XOR base, computed as the RLE
// writer scans, so a delta never materializes in a buffer of its own.
type chunk struct {
	data []byte
	base []byte // non-nil: the chunk is data XOR base (same length)
	n    int    // length; == len(data) when data != nil
}

func dataChunk(b []byte) chunk      { return chunk{data: b, n: len(b)} }
func xorChunk(b, base []byte) chunk { return chunk{data: b, base: base, n: len(b)} }
func zeroChunk(n int) chunk         { return chunk{n: n} }
func (c *chunk) isZeroRun() bool    { return c.data == nil }

func chunksLen(chunks []chunk) int {
	total := 0
	for i := range chunks {
		total += chunks[i].n
	}
	return total
}

// rleWriter produces the zero-RLE stream: a 0x00 in the output is always
// followed by a uvarint run length, never zero. Runs are accumulated across
// chunk boundaries, so the output is byte-identical to RLE-coding the
// concatenation. The adaptive bit probabilities of the range coder bottom
// out around 1.5 % of input size on constant data, so this pre-pass is what
// delivers the orders-of-magnitude ratios the paper relies on for
// zero-filled program data.
type rleWriter struct {
	out []byte
	run uint64 // pending zero-run length
}

func (w *rleWriter) flushRun() {
	if w.run == 0 {
		return
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], w.run)
	w.out = append(w.out, 0)
	w.out = append(w.out, tmp[:n]...)
	w.run = 0
}

// xorBlock is the span writeXOR compares with bytes.Equal before it falls
// back to words and bytes. A dirty region's delta and zero-filled program
// data are mostly equal spans, so whole blocks are the common case.
const xorBlock = 256

// writeXOR RLE-codes data XOR base without materializing it: equal spans
// extend the zero run, differing bytes are emitted as XOR literals.
func (w *rleWriter) writeXOR(data, base []byte) {
	le := binary.LittleEndian
	n := len(data)
	base = base[:n]
	i := 0
	for i < n {
		j := i
		for j+xorBlock <= n && bytes.Equal(data[j:j+xorBlock], base[j:j+xorBlock]) {
			j += xorBlock
		}
		for j+8 <= n && le.Uint64(data[j:]) == le.Uint64(base[j:]) {
			j += 8
		}
		for j < n && data[j] == base[j] {
			j++
		}
		if j > i {
			w.run += uint64(j - i)
			i = j
			continue
		}
		w.flushRun()
		for j < n && data[j] != base[j] {
			w.out = append(w.out, data[j]^base[j])
			j++
		}
		i = j
	}
}

// write RLE-codes plain data as its XOR against the zero page.
func (w *rleWriter) write(data []byte) {
	for len(data) > 0 {
		n := min(len(data), len(zeroPage))
		w.writeXOR(data[:n], zeroPage[:n])
		data = data[n:]
	}
}

// zeroRLEChunks RLE-codes the logical concatenation of chunks into scratch.
func zeroRLEChunks(chunks []chunk, scratch []byte) []byte {
	w := rleWriter{out: scratch[:0]}
	for i := range chunks {
		c := &chunks[i]
		switch {
		case c.isZeroRun():
			w.run += uint64(c.n)
		case c.base != nil:
			w.writeXOR(c.data, c.base)
		default:
			w.write(c.data)
		}
	}
	w.flushRun()
	return w.out
}

// rleReader expands a zero-RLE stream into a sequence of destination
// buffers. Destinations may be recycled, dirty buffers, so every byte is
// written: with bases (a delta stream), a run copies the base and a literal
// is XORed with it; without, a run is explicit zeros.
type rleReader struct {
	dsts  [][]byte
	bases [][]byte // nil, or one base per destination of the same length
	di    int      // current destination index
	off   int      // write offset within dsts[di]
}

// next skips full destinations and reports whether any room is left.
func (r *rleReader) next() bool {
	for r.di < len(r.dsts) && r.off == len(r.dsts[r.di]) {
		r.di++
		r.off = 0
	}
	return r.di < len(r.dsts)
}

func (r *rleReader) put(b byte) error {
	if !r.next() {
		return fmt.Errorf("range coder: zero run overflows output")
	}
	if r.bases != nil {
		b ^= r.bases[r.di][r.off]
	}
	r.dsts[r.di][r.off] = b
	r.off++
	return nil
}

func (r *rleReader) putZeros(n uint64) error {
	for n > 0 {
		if !r.next() {
			return fmt.Errorf("range coder: zero run overflows output")
		}
		dst := r.dsts[r.di][r.off:]
		if uint64(len(dst)) > n {
			dst = dst[:n]
		}
		if r.bases != nil {
			copy(dst, r.bases[r.di][r.off:])
		} else {
			zeroFill(dst)
		}
		r.off += len(dst)
		n -= uint64(len(dst))
	}
	return nil
}

func zeroFill(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// rangeEncodeChunks compresses the logical concatenation of chunks: a
// zero-RLE pre-pass followed by the adaptive range coder. The stream starts
// with a uvarint of the RLE stream length. The returned buffer is freshly
// allocated at its exact size (it typically outlives the call inside a
// recording); all scratch is pooled.
func rangeEncodeChunks(chunks []chunk) []byte {
	total := chunksLen(chunks)
	rleScratch := getBuf(total/8 + 64)
	rle := zeroRLEChunks(chunks, rleScratch)

	codedScratch := getBuf(len(rle) + len(rle)/16 + 64)
	e := newRCEncoder(codedScratch)
	var m byteModel
	m.init()
	m.encode(e, rle)
	coded := e.flush()

	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(rle)))
	out := make([]byte, n+len(coded))
	copy(out, hdr[:n])
	copy(out[n:], coded)

	putBuf(rle)
	putBuf(e.out)
	return out
}

// rangeDecodeChunks decompresses a rangeEncodeChunks stream directly into
// the destination buffers, whose total length must equal the original
// payload length. Destinations are fully overwritten. With bases, the
// stream is a delta and each destination receives its base XOR the decoded
// bytes, in the same pass.
func rangeDecodeChunks(encoded []byte, dsts, bases [][]byte) error {
	rleLen, n := binary.Uvarint(encoded)
	if n <= 0 {
		return fmt.Errorf("range coder: missing RLE header")
	}
	d, err := newRCDecoder(encoded[n:])
	if err != nil {
		return err
	}
	var m byteModel
	m.init()
	r := rleReader{dsts: dsts, bases: bases}
	for i := uint64(0); i < rleLen; i++ {
		b := m.decode(d)
		if b != 0 {
			if err := r.put(b); err != nil {
				return err
			}
			continue
		}
		// A zero marker byte is always followed by its uvarint run length,
		// itself coded through the byte model.
		var run uint64
		var shift uint
		for {
			i++
			if i >= rleLen {
				return fmt.Errorf("range coder: corrupt zero run")
			}
			vb := m.decode(d)
			if shift >= 64 {
				return fmt.Errorf("range coder: corrupt zero run")
			}
			run |= uint64(vb&0x7F) << shift
			if vb < 0x80 {
				break
			}
			shift += 7
		}
		// The encoder never emits an empty run. Rejecting one keeps every
		// iteration writing at least one byte, so a hostile RLE length
		// cannot spin the loop past the destination size.
		if run == 0 {
			return fmt.Errorf("range coder: corrupt zero run")
		}
		if err := r.putZeros(run); err != nil {
			return err
		}
	}
	if r.next() {
		total := 0
		for _, d := range dsts {
			total += len(d)
		}
		return fmt.Errorf("range coder: expanded to fewer than %d bytes", total)
	}
	return nil
}

// RangeEncode compresses data with a zero-RLE pre-pass followed by the
// adaptive range coder. The stream starts with a uvarint of the RLE stream
// length.
func RangeEncode(data []byte) []byte {
	return rangeEncodeChunks([]chunk{dataChunk(data)})
}

// RangeDecode decompresses a RangeEncode stream of the given original length.
func RangeDecode(encoded []byte, length int) ([]byte, error) {
	out := make([]byte, length)
	if err := rangeDecodeChunks(encoded, [][]byte{out}, nil); err != nil {
		return nil, err
	}
	return out, nil
}
