package mlfw

import (
	"fmt"

	"gpurelay/internal/gpumem"
)

// builder assembles a Model with shape propagation. Its decomposition of
// layers into GPU jobs mirrors what ARM Compute Library enqueues for each
// layer: a one-shot weight-reshape "prepare" kernel, a border-fill kernel for
// padded convolutions, a tiled im2col staging kernel, the arithmetic kernel
// itself (possibly split into several jobs for large layers), and a fused
// bias+activation kernel.
type builder struct {
	m          *Model
	cur        BufRef
	c, h, w    uint32
	scratchSeq int
}

func newBuilder(name string) *builder {
	return &builder{m: &Model{Name: name}}
}

func (b *builder) buf(name string, kind gpumem.RegionKind, elems uint64) BufRef {
	if elems == 0 {
		panic(fmt.Sprintf("mlfw: zero-size buffer %q in %s", name, b.m.Name))
	}
	b.m.Buffers = append(b.m.Buffers, Buffer{Name: name, Kind: kind, Elems: elems})
	return BufRef(len(b.m.Buffers) - 1)
}

func (b *builder) scratch(elems uint64) BufRef {
	b.scratchSeq++
	return b.buf(fmt.Sprintf("scratch%d", b.scratchSeq), gpumem.KindScratch, elems)
}

func (b *builder) emit(k Kernel) { b.m.Kernels = append(b.m.Kernels, k) }

// prepare emits the runtime's one-shot housekeeping kernel (weight reshape,
// border fill): a small copy into a staging buffer.
func (b *builder) prepare(name string, src BufRef) {
	dst := b.scratch(1024)
	n := b.m.Buffers[src].Elems
	if n > 1024 {
		n = 1024
	}
	b.emit(Kernel{Name: name, Op: OpPrepare, Src0: src, Src1: NoBuf, Dst: dst, Count: uint32(n)})
}

// input declares the network input (C,H,W) and an input-normalization job.
func (b *builder) input(c, h, w uint32) {
	in := b.buf("input", gpumem.KindInput, uint64(c)*uint64(h)*uint64(w))
	b.m.Input = in
	b.c, b.h, b.w = c, h, w
	norm := b.scratch(uint64(c) * uint64(h) * uint64(w))
	b.emit(Kernel{Name: "input-norm", Op: OpScale, Src0: in, Src1: NoBuf, Dst: norm,
		Count: c * h * w, Scale: 1.0 / 255.0})
	b.cur = norm
}

func outDim(in, k, stride, pad uint32) uint32 { return (in+2*pad-k)/stride + 1 }

// convOpts tunes the job decomposition of one convolution layer.
type convOpts struct {
	groups int // grouped convolution: one im2col+conv pair per group
	splits int // split the (per-group) conv into this many channel-band jobs
	relu   bool
	// noBorder suppresses the border-fill kernel for padded convolutions
	// whose runtime handles padding inside the im2col pass.
	noBorder bool
	// intoBuf, intoOffset direct the output into an existing buffer at a
	// channel offset (concat-by-writing, as ACL does for Fire modules).
	// The zero value means "no concat target": buffer 0 is always the
	// model input and never a concat buffer.
	intoBuf    BufRef
	intoOffset uint32
}

// conv emits a convolution layer's job stream.
func (b *builder) conv(name string, outC, k, stride, pad uint32, o convOpts) {
	if o.groups == 0 {
		o.groups = 1
	}
	if o.splits == 0 {
		o.splits = 1
	}
	if o.intoBuf == 0 {
		o.intoBuf = NoBuf
	}
	inC := b.c
	oh, ow := outDim(b.h, k, stride, pad), outDim(b.w, k, stride, pad)
	w := b.buf(name+".w", gpumem.KindWeights, uint64(outC)*uint64(inC/uint32(o.groups))*uint64(k)*uint64(k))
	bias := b.buf(name+".b", gpumem.KindWeights, uint64(outC))

	dst := o.intoBuf
	if dst == NoBuf {
		dst = b.scratch(uint64(outC) * uint64(oh) * uint64(ow))
	}

	b.prepare(name+".reshape", w)
	if pad > 0 && !o.noBorder {
		b.prepare(name+".border", b.cur)
	}
	pre := b.cur
	groupC := outC / uint32(o.groups)
	for g := 0; g < o.groups; g++ {
		if k > 1 {
			// Tiled im2col staging pass.
			col := b.scratch(16384)
			n := b.m.Buffers[pre].Elems
			if n > 4096 {
				n = 4096
			}
			b.emit(Kernel{Name: fmt.Sprintf("%s.im2col.g%d", name, g), Op: OpCopy,
				Src0: pre, Src1: NoBuf, Dst: col, Count: uint32(n)})
		}
		groupInC := inC / uint32(o.groups)
		for s := 0; s < o.splits; s++ {
			oc0 := uint32(g)*groupC + uint32(s)*groupC/uint32(o.splits)
			oc1 := uint32(g)*groupC + uint32(s+1)*groupC/uint32(o.splits)
			b.emit(Kernel{
				Name: fmt.Sprintf("%s.conv.g%d.s%d", name, g, s), Op: OpConv,
				Src0: pre, Src1: w, Dst: dst,
				InC: groupInC, InH: b.h, InW: b.w, OutC: outC,
				K: k, Stride: stride, Pad: pad,
				M: oc0, N: oc1, // conv reuses M/N as the output-channel band
				DstOffset: o.intoOffset,
				SrcOffset: uint32(g) * groupInC * b.h * b.w,
			})
		}
	}
	act := uint32(0)
	if o.relu {
		act = 1
	}
	b.emit(Kernel{Name: name + ".biasact", Op: OpBiasAct, Src0: dst, Src1: bias, Dst: dst,
		Count: outC * oh * ow, Channels: outC, Act: act, DstOffset: o.intoOffset})
	if o.intoBuf == NoBuf {
		b.cur, b.c, b.h, b.w = dst, outC, oh, ow
	} else {
		b.h, b.w = oh, ow
	}
}

// dwconv emits a depthwise convolution layer.
func (b *builder) dwconv(name string, k, stride, pad uint32, relu bool) {
	c := b.c
	oh, ow := outDim(b.h, k, stride, pad), outDim(b.w, k, stride, pad)
	w := b.buf(name+".w", gpumem.KindWeights, uint64(c)*uint64(k)*uint64(k))
	bias := b.buf(name+".b", gpumem.KindWeights, uint64(c))
	dst := b.scratch(uint64(c) * uint64(oh) * uint64(ow))
	b.prepare(name+".reshape", w)
	if pad > 0 {
		b.prepare(name+".border", b.cur)
	}
	b.emit(Kernel{Name: name + ".dwconv", Op: OpDWConv, Src0: b.cur, Src1: w, Dst: dst,
		InC: c, InH: b.h, InW: b.w, OutC: c, K: k, Stride: stride, Pad: pad})
	act := uint32(0)
	if relu {
		act = 1
	}
	b.emit(Kernel{Name: name + ".biasact", Op: OpBiasAct, Src0: dst, Src1: bias, Dst: dst,
		Count: c * oh * ow, Channels: c, Act: act})
	b.cur, b.h, b.w = dst, oh, ow
}

// fc emits a fully connected layer (1xK × KxN GEMM).
func (b *builder) fc(name string, outN uint32, relu bool, splits int) {
	if splits == 0 {
		splits = 1
	}
	inK := b.c * b.h * b.w
	w := b.buf(name+".w", gpumem.KindWeights, uint64(inK)*uint64(outN))
	bias := b.buf(name+".b", gpumem.KindWeights, uint64(outN))
	dst := b.scratch(uint64(outN))
	b.prepare(name+".reshape", w)
	for s := 0; s < splits; s++ {
		k0 := uint32(s) * inK / uint32(splits)
		k1 := uint32(s+1) * inK / uint32(splits)
		b.emit(Kernel{Name: fmt.Sprintf("%s.gemm.s%d", name, s), Op: OpGemm,
			Src0: b.cur, Src1: w, Dst: dst, M: 1, N: outN, KDim: k1 - k0,
			SrcOffset: k0, Src1Offset: k0 * outN, Accumulate: s > 0})
	}
	act := uint32(0)
	if relu {
		act = 1
	}
	b.emit(Kernel{Name: name + ".biasact", Op: OpBiasAct, Src0: dst, Src1: bias, Dst: dst,
		Count: outN, Channels: outN, Act: act})
	b.cur, b.c, b.h, b.w = dst, outN, 1, 1
}

// pool emits a pooling layer (1 job).
func (b *builder) pool(name string, op OpKind, k, stride, pad uint32) {
	oh, ow := outDim(b.h, k, stride, pad), outDim(b.w, k, stride, pad)
	dst := b.scratch(uint64(b.c) * uint64(oh) * uint64(ow))
	b.emit(Kernel{Name: name, Op: op, Src0: b.cur, Src1: NoBuf, Dst: dst,
		InC: b.c, InH: b.h, InW: b.w, OutC: b.c, K: k, Stride: stride, Pad: pad})
	b.cur, b.h, b.w = dst, oh, ow
}

// globalAvgPool pools each channel to 1x1.
func (b *builder) globalAvgPool(name string) {
	b.pool(name, OpAvgPool, b.h, 1, 0)
}

// lrn models a local-response-normalization layer as ACL does: a square-sum
// staging kernel plus a normalization kernel (2 jobs).
func (b *builder) lrn(name string) {
	n := uint64(b.c) * uint64(b.h) * uint64(b.w)
	sq := b.scratch(n)
	b.emit(Kernel{Name: name + ".sq", Op: OpCopy, Src0: b.cur, Src1: NoBuf, Dst: sq, Count: uint32(n)})
	dst := b.scratch(n)
	b.emit(Kernel{Name: name + ".norm", Op: OpScale, Src0: sq, Src1: NoBuf, Dst: dst,
		Count: uint32(n), Scale: 1.0})
	b.cur = dst
}

// residualAdd adds a saved activation to the current one (1 job).
func (b *builder) residualAdd(name string, other BufRef) {
	n := uint64(b.c) * uint64(b.h) * uint64(b.w)
	dst := b.scratch(n)
	b.emit(Kernel{Name: name, Op: OpAdd, Src0: b.cur, Src1: other, Dst: dst, Count: uint32(n)})
	b.cur = dst
}

// softmax emits the three-kernel softmax pipeline ACL uses (max-shift,
// exponentiate+sum, normalize).
func (b *builder) softmax(name string) {
	n := uint32(b.c)
	shift := b.scratch(uint64(n))
	b.emit(Kernel{Name: name + ".shift", Op: OpCopy, Src0: b.cur, Src1: NoBuf, Dst: shift, Count: n})
	exp := b.scratch(uint64(n))
	b.emit(Kernel{Name: name + ".exp", Op: OpSoftmax, Src0: shift, Src1: NoBuf, Dst: exp, Count: n})
	out := b.buf("output", gpumem.KindOutput, uint64(n))
	b.emit(Kernel{Name: name + ".norm", Op: OpCopy, Src0: exp, Src1: NoBuf, Dst: out, Count: n})
	b.m.Output = out
	b.cur = out
}

// concatBuf allocates a shared destination buffer for concat-by-writing.
func (b *builder) concatBuf(totalC, h, w uint32) BufRef {
	return b.scratch(uint64(totalC) * uint64(h) * uint64(w))
}

func (b *builder) build() *Model {
	if err := b.m.Validate(); err != nil {
		panic(err)
	}
	return b.m
}
