package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"gpurelay"
	"gpurelay/internal/gpumem"
	"gpurelay/internal/kbase"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/timesim"
)

const (
	// replayWindow is the replay-paper virtual window: the first 47
	// inferences, seven cycles of the seeded model order plus all but its
	// last model.
	replayWindow = 47
	// inputPool is the number of seeded inputs per model whose native
	// outputs set-up precomputes.
	inputPool = 2
	// maxWeightedBytes bounds the models that replay with seeded weights.
	// Real weights turn the interpreter's zero fast path off: on a 2-vCPU
	// x86 box a weighted inference takes 5.7 s of host time for SqueezeNet
	// (4 MB of weights), 25 s for VGG16 and 47 s for ResNet12, against
	// 0.06 s for MNIST (2 MB). Only MNIST fits.
	maxWeightedBytes = 3 << 20
	// outputTol bounds |replay − native| per output element.
	outputTol = 1e-5
)

// replayPaper runs inferences on seeded inputs round-robin over replay
// sessions of the six paper models, and checks every output against native
// execution of the same model, weights and input. Models up to
// maxWeightedBytes of parameters get seeded weights; the others keep the
// recording's zero weights.
type replayPaper struct {
	client *gpurelay.Client
	svc    *gpurelay.Service
	models []*replayModel // seeded round-robin order
	rng    *rand.Rand
	ops    int
	window charge
	// perturb, when set, alters each replay output before the check; the
	// self-test uses it to prove the check can fail.
	perturb func([]float32)
}

type replayModel struct {
	model  *gpurelay.Model
	sess   *gpurelay.ReplaySession
	stats  gpurelay.RecordStats
	inputs [][]float32
	native [][]float32
}

func setupReplayPaper(seed int64) (instance, error) {
	return newReplayPaper(seed, gpurelay.Benchmarks())
}

func newReplayPaper(seed int64, models []*gpurelay.Model) (*replayPaper, error) {
	w := &replayPaper{
		client: gpurelay.NewClient("bench-replay", gpurelay.MaliG71MP8),
		svc:    gpurelay.NewService(),
		rng:    rand.New(rand.NewSource(seed)),
	}
	for _, m := range models {
		rm, err := w.prepare(m, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		w.models = append(w.models, rm)
	}
	w.rng.Shuffle(len(w.models), func(i, j int) { w.models[i], w.models[j] = w.models[j], w.models[i] })
	// Warm-up: one checked inference per model.
	for _, rm := range w.models {
		if _, err := w.infer(rm, 0, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

// prepare records m, opens its replay session with seeded weights, and
// precomputes native outputs for a seeded pool of inputs.
func (w *replayPaper) prepare(m *gpurelay.Model, seed int64) (*replayModel, error) {
	rec, st, err := w.client.Record(w.svc, m, gpurelay.RecordOptions{})
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	sess, err := w.client.NewReplaySession(rec)
	if err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	rm := &replayModel{model: m, sess: sess, stats: st}
	weights := map[string][]float32{}
	for _, r := range sess.WeightRegions() {
		if m.WeightBytes() > maxWeightedBytes {
			break
		}
		data := seeded(seed, r.Name, r.Elems, 0.125)
		if err := sess.SetWeights(r.Name, data); err != nil {
			return nil, fmt.Errorf("set weights %s: %w", r.Name, err)
		}
		weights[r.Name] = data
	}
	in := m.Buffers[m.Input].Elems
	for k := 0; k < inputPool; k++ {
		rm.inputs = append(rm.inputs, seeded(seed, fmt.Sprintf("input/%d", k), int(in), 1))
	}
	rm.native, err = native(m, weights, rm.inputs)
	if err != nil {
		return nil, fmt.Errorf("native: %w", err)
	}
	return rm, nil
}

// native runs m on the full GPU stack of a client device, outside any TEE,
// with the given weights (by region name; none leaves them zero) and
// returns one output per input.
func native(m *mlfw.Model, weights map[string][]float32, inputs [][]float32) ([][]float32, error) {
	clock := timesim.NewClock()
	pool := gpumem.NewPool(m.TotalBytes()*3/2 + (64 << 20))
	gpu := mali.New(mali.G71MP8, pool, clock, 31)
	dev, err := kbase.Probe(kbase.NewDirectBus(gpu, clock), kbase.NewStdKernel(clock), pool)
	if err != nil {
		return nil, err
	}
	rt, err := mlfw.NewRuntime(dev, clock, m, mlfw.DefaultOptions())
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	provisioned := 0
	for i, b := range m.Buffers {
		if b.Kind != gpumem.KindWeights {
			continue
		}
		if len(weights) == 0 {
			break
		}
		r := rt.Region(mlfw.BufRef(i))
		data, ok := weights[r.Name]
		if !ok || uint64(len(data)) != b.Elems {
			return nil, fmt.Errorf("no recorded weight region matches %s", r.Name)
		}
		buf := make([]byte, 4*len(data))
		for j, f := range data {
			binary.LittleEndian.PutUint32(buf[4*j:], math.Float32bits(f))
		}
		pool.Write(r.PA, buf)
		provisioned++
	}
	if provisioned != len(weights) {
		return nil, fmt.Errorf("recording has %d weight regions, model %d", len(weights), provisioned)
	}
	var outs [][]float32
	for _, in := range inputs {
		if err := rt.SetInput(in); err != nil {
			return nil, err
		}
		if _, err := rt.Run(kbase.SyncHooks{}); err != nil {
			return nil, err
		}
		outs = append(outs, rt.Output())
	}
	return outs, nil
}

// seeded returns n deterministic values in [-scale, scale), a function of
// the workload seed and a name.
func seeded(seed int64, name string, n int, scale float32) []float32 {
	h := fnv.New64a()
	h.Write([]byte(name))
	state := uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64() | 1
	out := make([]float32, n)
	for i := range out {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		out[i] = (float32(state%2048)/1024 - 1) * scale
	}
	return out
}

// measure runs whole cycles of the model order until d has passed and the
// virtual window is full.
func (w *replayPaper) measure(d time.Duration, tr *tracer) *opLog {
	scopes := make([]*gpurelay.Scope, len(w.models))
	for i, rm := range w.models {
		scopes[i] = tr.scope(rm.model.Name)
		rm.sess.Instrument(scopes[i])
	}
	endService := tr.serviceWindow(w.svc)
	start := time.Now()
	log := newOpLog(start, len(w.models))
	for time.Since(start) < d || w.ops < replayWindow {
		for _, rm := range w.models {
			t0 := time.Now()
			delay, err := w.infer(rm, w.rng.Intn(inputPool), tr)
			log.done(time.Since(t0), err)
			if err == nil && w.ops < replayWindow {
				w.window.add(rm.stats, delay)
			}
			w.ops++
		}
	}
	log.wall = time.Since(start)
	endService()
	for i, rm := range w.models {
		tr.replayScope(scopes[i])
		rm.sess.Instrument(nil)
	}
	return log
}

// infer is one op: stage input k, replay, read and check the output. It
// returns the inference's virtual replay delay.
func (w *replayPaper) infer(rm *replayModel, k int, tr *tracer) (time.Duration, error) {
	t0 := time.Now()
	if err := rm.sess.SetInput(rm.inputs[k]); err != nil {
		return 0, fmt.Errorf("%s: set input: %w", rm.model.Name, err)
	}
	t1 := time.Now()
	rr, err := rm.sess.Run()
	t2 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("%s: run: %w", rm.model.Name, err)
	}
	out, err := rm.sess.Output()
	t3 := time.Now()
	tr.span("run", t2.Sub(t1))
	tr.span("io", t1.Sub(t0)+t3.Sub(t2))
	tr.replayed(rr, rm.model.NumJobs())
	if err != nil {
		return 0, fmt.Errorf("%s: output: %w", rm.model.Name, err)
	}
	if w.perturb != nil {
		w.perturb(out)
	}
	if err := matches(out, rm.native[k]); err != nil {
		return 0, fmt.Errorf("%s input %d: %w", rm.model.Name, k, err)
	}
	return rr.Delay, nil
}

// matches checks a replay output against the native one.
func matches(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("output has %d elements, native %d", len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(float64(got[i] - want[i])); !(d <= outputTol) {
			return fmt.Errorf("output[%d] = %g, native %g", i, got[i], want[i])
		}
	}
	return nil
}

func (w *replayPaper) virtual() (virtualMetrics, int, error) {
	vm, err := w.window.metrics()
	return vm, 0, err
}
