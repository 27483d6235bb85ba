package main

// The -perf checkpoint benchmark (BENCH_PR9.json) measures epoch capture
// against a whole-session checkpoint reference on the evaluation's smallest
// and largest footprints, plus the fleet-shared speculation warm start (a
// cold service's first session seeded from a peer's validated-commit
// export). CI gates two of its numbers (checkCkptGates): epoch capture must
// cost well under the whole-checkpoint reference (-ckpt-gate), and the
// warm-started cold session's speculation hit rate must strictly beat the
// unseeded cold baseline.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"gpurelay"
	"gpurelay/internal/gpumem"
	"gpurelay/internal/record"
)

// ckptCaptureEntry is one footprint's capture-cost row. Per-boundary times
// are the session benchmark divided by the session's job count; sealed MB
// is the total sealed checkpoint payload one session produces.
type ckptCaptureEntry struct {
	Footprint     string  `json:"footprint"`
	Jobs          int     `json:"jobs"`
	EventsPerJob  int     `json:"events_per_job"`
	CaptureFullNs int64   `json:"capture_full_ns"` // per boundary, whole-checkpoint reference
	CaptureIncrNs int64   `json:"capture_incr_ns"` // per boundary, epoch capture
	Ratio         float64 `json:"ratio"`           // incr / full
	FullSealedMB  float64 `json:"full_sealed_mb"`  // per session
	IncrSealedMB  float64 `json:"incr_sealed_mb"`  // per session
	Epochs        int     `json:"epochs"`          // per session
}

// specWarmEntry reports the fleet warm-start experiment: the same workload
// recorded on a cold service and on a cold service seeded with a peer's
// validated-commit export. Hit rate is speculated commits over total
// commits for the session.
type specWarmEntry struct {
	Model       string  `json:"model"`
	SeededSigs  int     `json:"seeded_sigs"`
	ColdCommits int     `json:"cold_commits"`
	ColdAsync   int     `json:"cold_async_commits"`
	WarmCommits int     `json:"warm_commits"`
	WarmAsync   int     `json:"warm_async_commits"`
	ColdHitRate float64 `json:"spec_hit_cold"`
	WarmHitRate float64 `json:"spec_hit_warm"`
}

// ckptArtifact is the BENCH_PR9.json schema.
type ckptArtifact struct {
	Schema     string             `json:"schema"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	GoMaxProcs int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Timestamp  string             `json:"timestamp"`
	Gate       float64            `json:"ckpt_gate"`
	Captures   []ckptCaptureEntry `json:"captures"`
	SpecWarm   specWarmEntry      `json:"spec_warm"`
}

// benchCaptureSession benchmarks one synthetic session's checkpoint
// captures, run by session (RunSession or RunWholeSession of p), and
// reports per-session time, sealed bytes per session, and sealed captures
// per session.
func benchCaptureSession(p *record.CkptPerf, session func()) (nsPerSession int64, sealedMB float64, captures int) {
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			session()
		}
	})
	// The harness accumulates across every iteration including the warmup
	// probes testing.Benchmark runs outside the measured N, so per-session
	// sealed output is read off one final session's delta, not an average.
	sealed0, captures0 := p.Sealed(), p.Captures()
	session()
	return res.NsPerOp(), float64(p.Sealed()-sealed0) / (1 << 20), p.Captures() - captures0
}

// measureSpecWarm runs the fleet warm-start experiment: a donor service
// records the workload twice (enough for its history signatures to reach
// prediction confidence), exports its validated commits, and two fresh
// services then record the same workload cold — one unseeded, one seeded
// from the export. All delays are virtual; the hit rates are deterministic.
func measureSpecWarm() (specWarmEntry, error) {
	model := gpurelay.MNIST()
	sku := gpurelay.MaliG71MP8

	donor := gpurelay.NewService()
	donorClient := gpurelay.NewClient("ckptbench-donor", sku)
	for i := 0; i < 2; i++ {
		if _, _, err := donorClient.Record(donor, model, gpurelay.RecordOptions{}); err != nil {
			return specWarmEntry{}, fmt.Errorf("donor session %d: %w", i, err)
		}
	}
	snap := donor.ExportSpecHistory()

	cold := gpurelay.NewService()
	coldClient := gpurelay.NewClient("ckptbench-cold", sku)
	_, coldStats, err := coldClient.Record(cold, model, gpurelay.RecordOptions{})
	if err != nil {
		return specWarmEntry{}, fmt.Errorf("cold session: %w", err)
	}

	warm := gpurelay.NewService()
	seeded := warm.ImportSpecHistory(snap)
	warmClient := gpurelay.NewClient("ckptbench-warm", sku)
	_, warmStats, err := warmClient.Record(warm, model, gpurelay.RecordOptions{})
	if err != nil {
		return specWarmEntry{}, fmt.Errorf("warm session: %w", err)
	}

	e := specWarmEntry{
		Model:       model.Name,
		SeededSigs:  seeded,
		ColdCommits: coldStats.Shim.Commits,
		ColdAsync:   coldStats.Shim.AsyncCommits,
		WarmCommits: warmStats.Shim.Commits,
		WarmAsync:   warmStats.Shim.AsyncCommits,
	}
	if e.ColdCommits > 0 {
		e.ColdHitRate = float64(e.ColdAsync) / float64(e.ColdCommits)
	}
	if e.WarmCommits > 0 {
		e.WarmHitRate = float64(e.WarmAsync) / float64(e.WarmCommits)
	}
	return e, nil
}

// runCkptBench measures checkpoint capture and the speculation warm start,
// writes the checkpoint artifact to outPath, and then applies its gates.
// Gate violations are exit-1 failures — the build, not the invocation, is
// at fault.
func runCkptBench(outPath string, gate float64) error {
	fmt.Printf("\n=== checkpoint capture benchmarks (wall-clock) ===\n")
	art := ckptArtifact{
		Schema: "grt-ckpt/1", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Gate:      gate,
	}
	for _, spec := range gpumem.FootprintSpecs() {
		p, err := record.NewCkptPerf(spec, 0, 0)
		if err != nil {
			return err
		}
		e := ckptCaptureEntry{Footprint: spec.Name, Jobs: spec.Kernels, EventsPerJob: 96}
		fullNs, fullMB, _ := benchCaptureSession(p, p.RunWholeSession)
		incrNs, incrMB, epochs := benchCaptureSession(p, p.RunSession)
		e.CaptureFullNs = fullNs / int64(spec.Kernels)
		e.FullSealedMB = fullMB
		e.CaptureIncrNs = incrNs / int64(spec.Kernels)
		e.IncrSealedMB = incrMB
		e.Epochs = epochs
		if e.CaptureFullNs > 0 {
			e.Ratio = float64(e.CaptureIncrNs) / float64(e.CaptureFullNs)
		}
		fmt.Printf("%-24s whole %10d ns/boundary (%6.2f MB/session)  epoch %10d ns/boundary (%6.2f MB/session)  ratio %.3f\n",
			spec.Name, e.CaptureFullNs, e.FullSealedMB, e.CaptureIncrNs, e.IncrSealedMB, e.Ratio)
		art.Captures = append(art.Captures, e)
	}

	sw, err := measureSpecWarm()
	if err != nil {
		return err
	}
	art.SpecWarm = sw
	fmt.Printf("spec warm start (%s): cold hit rate %.3f (%d/%d), warm %.3f (%d/%d), %d sigs seeded\n",
		sw.Model, sw.ColdHitRate, sw.ColdAsync, sw.ColdCommits,
		sw.WarmHitRate, sw.WarmAsync, sw.WarmCommits, sw.SeededSigs)

	blob, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("checkpoint artifact written to %s\n", outPath)
	return checkCkptGates(art)
}

// checkCkptGates applies the checkpoint artifact's two gates: every
// footprint's epoch/whole capture ratio must stay under art.Gate (when
// > 0), and the warm-started speculation hit rate must strictly beat the
// cold one. It reports the first gate that does not hold.
func checkCkptGates(art ckptArtifact) error {
	for _, e := range art.Captures {
		if art.Gate > 0 && e.Ratio >= art.Gate {
			return fmt.Errorf("checkpoint gate: %s epoch/whole capture ratio %.3f >= ceiling %.3f",
				e.Footprint, e.Ratio, art.Gate)
		}
	}
	if sw := art.SpecWarm; sw.WarmHitRate <= sw.ColdHitRate {
		return fmt.Errorf("spec warm-start gate: warm hit rate %.3f does not beat cold %.3f",
			sw.WarmHitRate, sw.ColdHitRate)
	}
	return nil
}
