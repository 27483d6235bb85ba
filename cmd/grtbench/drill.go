package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"gpurelay/internal/faultsim"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/obs"
	"gpurelay/internal/platform"
	"gpurelay/internal/timesim"
)

// The -fleet mode runs platform.Drill twice and writes one grt-drill/1
// document. The plain drill runs on the serial engine, then on the parallel
// engine, and reports the speedup; the cache (-clients) and health
// (-health-plan) drills run on the serial engine twice. The second run
// carries whatever instrumentation -trace-out/-health-out ask for, so the
// run-twice witness also proves observability never perturbs a recording.
// platform.CheckGates decides the exit status, after the artifact is
// written so CI can archive the evidence.

// drillRun is one run's measurement.
type drillRun struct {
	Engine       string  `json:"engine"`
	WallMS       float64 `json:"wall_ms"`
	VirtualMS    float64 `json:"virtual_ms"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Timestamps and MaxBatch describe how events grouped: MaxBatch is the
	// widest same-timestamp batch, i.e. the structural parallelism the
	// parallel engine can exploit given that many cores.
	Timestamps int64 `json:"timestamps"`
	MaxBatch   int   `json:"max_batch"`
}

// drillArtifact is the grt-drill/1 schema.
type drillArtifact struct {
	Schema     string     `json:"schema"`
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	GoMaxProcs int        `json:"gomaxprocs"`
	NumCPU     int        `json:"num_cpu"`
	Timestamp  string     `json:"timestamp"`
	Model      string     `json:"model"`
	Sessions   int        `json:"sessions"`
	Plan       string     `json:"plan,omitempty"`
	Runs       []drillRun `json:"runs"`
	// ParallelSpeedup is serial wall time over parallel wall time (plain
	// drill only).
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`
	// SealDigest is the first 8 bytes of each of the first four session
	// seals, for eyeballing drift across artifact generations.
	SealDigest  string `json:"seal_digest"`
	HealthState string `json:"health_state,omitempty"`
	// Gate is "pass" or the failed platform.GateError.
	Gate   string               `json:"gate"`
	Cache  *platform.CacheStats `json:"cache,omitempty"`
	Health *platform.FaultStats `json:"health,omitempty"`
}

// drillOptions is the drill grtbench runs: MNIST sessions, or Micro
// workloads behind the cache front, on a Mali-G71 MP8.
func drillOptions(sessions, clients, shards int, plan *faultsim.Plan) platform.DrillOptions {
	opts := platform.DrillOptions{
		Model: mlfw.MNIST(), SKU: mali.G71MP8, Seed: 42, Compact: true,
		Sessions: sessions, Clients: clients, Shards: shards, HealthPlan: plan,
	}
	if clients > 0 {
		opts.Model = mlfw.Micro()
	}
	return opts
}

func measure(res *platform.DrillResult, engine string) drillRun {
	run := drillRun{
		Engine:       engine,
		WallMS:       float64(res.Wall.Nanoseconds()) / 1e6,
		VirtualMS:    float64(res.VirtualTime.Nanoseconds()) / 1e6,
		Events:       res.Events,
		EventsPerSec: float64(res.Events) / res.Wall.Seconds(),
		Timestamps:   res.Batches.Timestamps,
		MaxBatch:     res.Batches.MaxWidth,
	}
	fmt.Printf("%-8s engine: %4d sessions  %9.1f ms wall  %10.0f events/s  batch width ≤%d  (%.3fs virtual)\n",
		engine, len(res.Seals), run.WallMS, run.EventsPerSec, run.MaxBatch, res.VirtualTime.Seconds())
	return run
}

// runDrill runs the drill twice, writes the artifact (and the trace and
// health report, when asked), and returns the first failed gate.
func runDrill(opts platform.DrillOptions, plan, outPath, traceOut, healthOut string) error {
	a, err := platform.Drill(context.Background(), opts)
	if err != nil {
		return err
	}
	fmt.Printf("=== drill: %d %s sessions on one discrete-event engine (GOMAXPROCS=%d) ===\n",
		len(a.Seals), opts.Model.Name, runtime.GOMAXPROCS(0))
	art := drillArtifact{
		Schema: "grt-drill/1", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Model:     opts.Model.Name, Sessions: len(a.Seals), Plan: plan,
		Runs: []drillRun{measure(a, "serial")},
	}
	engine := "serial"
	opts.Instrument = traceOut != "" || healthOut != ""
	if opts.Clients == 0 && opts.HealthPlan == nil {
		engine = "parallel"
		opts.Engine = timesim.NewParallelEngine()
	}
	b, err := platform.Drill(context.Background(), opts)
	if err != nil {
		return err
	}
	art.Runs = append(art.Runs, measure(b, engine))
	if engine == "parallel" {
		art.ParallelSpeedup = art.Runs[0].WallMS / art.Runs[1].WallMS
		fmt.Printf("parallel speedup: %.2fx\n", art.ParallelSpeedup)
	}
	witness := make([]byte, 0, 32)
	for _, s := range b.Seals[:min(4, len(b.Seals))] {
		witness = append(witness, s[:8]...)
	}
	art.SealDigest = hex.EncodeToString(witness)
	if b.Health != nil {
		art.HealthState = string(b.Health.State)
	}
	art.Cache, art.Health = b.Cache, b.Faults
	if c := b.Cache; c != nil {
		fmt.Printf("cache: %d records  %d hits  %d coalesced  %d shed  amplification %.3f  hit rate %.3f  p99 wait %s  max shard queue %d\n",
			c.Records, c.Hits, c.Coalesced, c.Shed, c.RecordAmplification, c.CacheHitRate,
			c.P99AdmissionWait, c.MaxShardQueue)
	}
	if f := b.Faults; f != nil {
		fmt.Printf("health: %d faulted  %d interrupted  %d migrations  %d non-identical  success rate %.2f  fleet %s\n",
			f.Faulted, f.Interrupted, f.Migrated, f.NonIdentical, f.MigrationSuccessRate, art.HealthState)
	}
	gateErr := platform.CheckGates(a, b)
	art.Gate = "pass"
	if gateErr != nil {
		art.Gate = gateErr.Error()
	}

	if err := writeFile(outPath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(art)
	}); err != nil {
		return err
	}
	fmt.Printf("wrote drill artifact to %s\n", outPath)
	if traceOut != "" {
		if err := writeFile(traceOut, func(w io.Writer) error {
			return obs.WriteFleetTrace(w, b.EngineTrace, b.Scopes...)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s (%d engine events; load in chrome://tracing)\n",
			traceOut, b.EngineTrace.Len())
	}
	if healthOut != "" {
		if err := writeFile(healthOut, b.Health.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote fleet health report to %s (state: %s)\n", healthOut, art.HealthState)
	}
	if gateErr != nil {
		return gateErr
	}
	fmt.Println("gates passed: run-twice witness and every mode gate")
	return nil
}

// writeFile writes what write produces to path.
func writeFile(path string, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
