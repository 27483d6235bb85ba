package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"gpurelay/internal/cloud"
	"gpurelay/internal/faultsim"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/obs"
	"gpurelay/internal/record"
	"gpurelay/internal/shim"
	"gpurelay/internal/timesim"
)

func drillOpts(sessions int) DrillOptions {
	return DrillOptions{
		Sessions: sessions,
		Model:    mlfw.MNIST(),
		SKU:      mali.G71MP8,
		Seed:     42,
	}
}

// onParallel returns o set to run on a fresh parallel engine.
func onParallel(o DrillOptions) DrillOptions {
	o.Engine = timesim.NewParallelEngine()
	return o
}

func TestFleetDrillRuns(t *testing.T) {
	res, err := Drill(context.Background(), drillOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seals) != 4 || len(res.Results) != 4 {
		t.Fatalf("drill returned %d seals, %d results", len(res.Seals), len(res.Results))
	}
	if res.Events == 0 {
		t.Fatal("no engine events executed")
	}
	if res.VirtualTime == 0 {
		t.Fatal("virtual time did not advance")
	}
	for i, r := range res.Results {
		if r.Stats.RecordingDelay == 0 {
			t.Fatalf("session %d: zero recording delay", i)
		}
	}
	// Distinct client seeds ⇒ distinct recordings.
	if res.Seals[0] == res.Seals[1] {
		t.Fatal("distinct drill sessions produced identical seals")
	}
}

// TestFleetDrillDeterminism is the PR6 determinism property test: the
// parallel engine must produce recordings byte-identical (same HMAC seals)
// to the serial engine, across GOMAXPROCS ∈ {1, 2, 8} and repeated runs.
func TestFleetDrillDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run drill matrix")
	}
	const sessions = 8
	serial, err := Drill(context.Background(), drillOpts(sessions))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 2; rep++ {
			par, err := Drill(context.Background(), onParallel(drillOpts(sessions)))
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d rep %d: %v", procs, rep, err)
			}
			for i := range serial.Seals {
				if par.Seals[i] != serial.Seals[i] {
					t.Fatalf("GOMAXPROCS=%d rep %d: session %d seal diverged from serial engine",
						procs, rep, i)
				}
			}
			if par.VirtualTime != serial.VirtualTime {
				t.Fatalf("GOMAXPROCS=%d rep %d: virtual end time %v, serial %v",
					procs, rep, par.VirtualTime, serial.VirtualTime)
			}
			if par.Events != serial.Events {
				t.Fatalf("GOMAXPROCS=%d rep %d: %d events, serial %d",
					procs, rep, par.Events, serial.Events)
			}
		}
	}
}

// TestFleetDrill1kSealIdentity is the PR8 scale test: a thousand-session
// compact drill must stay deterministic — byte-identical seals across the
// serial engine and the parallel engine at GOMAXPROCS ∈ {1, 8} — while
// retaining no per-session results.
func TestFleetDrill1kSealIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-session drill matrix")
	}
	sessions := 1000
	if raceDetectorEnabled {
		// The race run proves the compact path race-clean at the same
		// GOMAXPROCS matrix; the full thousand runs without -race.
		sessions = 100
	}
	opts := DrillOptions{
		Sessions: sessions,
		Model:    mlfw.Micro(),
		SKU:      mali.G71MP8,
		Seed:     7,
		Compact:  true,
	}
	serial, err := Drill(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Results != nil {
		t.Fatal("compact drill retained per-session results")
	}
	if len(serial.Seals) != sessions {
		t.Fatalf("%d seals for %d sessions", len(serial.Seals), sessions)
	}
	distinct := map[[32]byte]bool{}
	for _, s := range serial.Seals {
		distinct[s] = true
	}
	if len(distinct) != sessions {
		t.Fatalf("%d distinct seals across %d sessions", len(distinct), sessions)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		par, err := Drill(context.Background(), onParallel(opts))
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i := range serial.Seals {
			if par.Seals[i] != serial.Seals[i] {
				t.Fatalf("GOMAXPROCS=%d: session %d seal diverged from serial engine", procs, i)
			}
		}
		if par.VirtualTime != serial.VirtualTime || par.Events != serial.Events {
			t.Fatalf("GOMAXPROCS=%d: timeline diverged (%v/%d vs %v/%d)",
				procs, par.VirtualTime, par.Events, serial.VirtualTime, serial.Events)
		}
	}
}

func TestFleetDrillValidation(t *testing.T) {
	if _, err := Drill(context.Background(), DrillOptions{}); err == nil {
		t.Fatal("drill without model/SKU accepted")
	}
	opts := drillOpts(1)
	opts.SKU = &mali.SKU{Name: "bogus"}
	if _, err := Drill(context.Background(), opts); err == nil {
		t.Fatal("uncataloged SKU accepted")
	}
}

// TestFleetDrillInstrumented is the observability acceptance test: an
// instrumented drill must produce seals byte-identical to a bare drill's
// (instrumentation only reads the timeline), populate the fleet registry,
// flight recorder, and engine trace, and export a Chrome trace document that
// parses as JSON with per-handler engine spans.
func TestFleetDrillInstrumented(t *testing.T) {
	const sessions = 4
	bare, err := Drill(context.Background(), drillOpts(sessions))
	if err != nil {
		t.Fatal(err)
	}
	opts := drillOpts(sessions)
	opts.Instrument = true
	inst, err := Drill(context.Background(), onParallel(opts))
	if err != nil {
		t.Fatal(err)
	}
	for i := range bare.Seals {
		if inst.Seals[i] != bare.Seals[i] {
			t.Fatalf("session %d: instrumented drill's seal diverged from bare drill", i)
		}
	}

	if inst.Fleet == nil || inst.Flight == nil || inst.EngineTrace == nil || len(inst.Scopes) != sessions {
		t.Fatal("instrumented drill did not populate observability fields")
	}
	snap := inst.Fleet.Snapshot()
	if got := snap.Counter(obs.MFleetAdmissions, obs.L("outcome", "immediate")); got != sessions {
		t.Errorf("immediate admissions = %d, want %d", got, sessions)
	}
	if got := snap.Counter(obs.MShimCommits, obs.L("kind", "sync")) +
		snap.Counter(obs.MShimCommits, obs.L("kind", "async")); got == 0 {
		t.Error("no commits reached the fleet registry")
	}
	if inst.Flight.Len() == 0 {
		t.Error("flight recorder is empty")
	}
	kinds := map[string]bool{}
	for _, e := range inst.Flight.Events() {
		kinds[e.Kind] = true
	}
	for _, want := range []string{obs.FKAdmission, obs.FKSync} {
		if !kinds[want] {
			t.Errorf("flight journal has no %q events (kinds: %v)", want, kinds)
		}
	}
	if inst.EngineTrace.Len() == 0 {
		t.Error("engine trace is empty")
	}

	var buf bytes.Buffer
	if err := obs.WriteFleetTrace(&buf, inst.EngineTrace, inst.Scopes...); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("fleet trace is not valid JSON: %v", err)
	}
	var handlerSpans, sessionSpans int
	for _, e := range doc.TraceEvents {
		if e.Pid == 2 && e.Name == "handle" {
			handlerSpans++
		}
		if e.Pid == 1 && e.Ph == "X" {
			sessionSpans++
		}
	}
	if handlerSpans == 0 {
		t.Error("no per-handler engine spans in the export")
	}
	if sessionSpans == 0 {
		t.Error("no per-session spans in the export")
	}

	// A bare drill reports no observability state at all.
	if bare.Fleet != nil || bare.Flight != nil || bare.EngineTrace != nil || bare.Scopes != nil {
		t.Error("bare drill populated observability fields")
	}
}

// TestFleetDrillWarmStart checks the fleet-shared speculation seeding: a
// warm-started drill speculates strictly more than a cold one, and the
// seeded state stays deterministic — identical seals across repeated runs
// and across the serial and parallel engines, because every session gets
// its own private copy of the snapshot.
func TestFleetDrillWarmStart(t *testing.T) {
	img := cloud.DefaultImage()
	hist := shim.NewHistory(3)
	_, err := record.RunContext(context.Background(), record.Config{
		Model: mlfw.MNIST(), SKU: mali.G71MP8, Network: netsim.Loopback,
		History:               hist,
		SessionKey:            SessionKey(99, 0),
		ClientSeed:            7,
		InjectMispredictionAt: -1,
		SessionID:             "warm-donor",
	})
	if err != nil {
		t.Fatal(err)
	}
	ready := hist.ExportReady()
	if len(ready) == 0 {
		t.Fatal("donor session validated no signatures")
	}
	warm := map[shim.HistoryKey]map[string]shim.Outcome{
		{SKU: mali.G71MP8.Name, Stack: img.Stack, Workload: mlfw.MNIST().Name}: ready,
	}

	async := func(res *DrillResult) int {
		total := 0
		for _, r := range res.Results {
			total += r.Stats.Shim.AsyncCommits
		}
		return total
	}
	cold, err := Drill(context.Background(), drillOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	warmOpts := drillOpts(4)
	warmOpts.WarmStart = warm
	warmed, err := Drill(context.Background(), warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if async(warmed) <= async(cold) {
		t.Fatalf("warm-started drill speculated %d commits, cold %d — want strictly more",
			async(warmed), async(cold))
	}

	// Determinism: the seeded drill reproduces its seals exactly, on either
	// engine — the snapshot is import-only and per-session private, so
	// neither repetition nor host parallelism can perturb the recordings.
	again, err := Drill(context.Background(), warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Drill(context.Background(), onParallel(warmOpts))
	if err != nil {
		t.Fatal(err)
	}
	for i := range warmed.Seals {
		if warmed.Seals[i] != again.Seals[i] {
			t.Fatalf("session %d: warm drill seals differ across runs", i)
		}
		if warmed.Seals[i] != par.Seals[i] {
			t.Fatalf("session %d: warm drill seals differ across engines", i)
		}
	}
}

// goldenDrill is one drill's seals, in session (or workload) order.
type goldenDrill struct {
	name  string
	seals [][32]byte
}

// goldenDrillSeals runs the three small drills TestDrillSealGolden pins:
// a plain per-GPU drill, a cache-first drill, and a degraded drill.
func goldenDrillSeals(t *testing.T) []goldenDrill {
	t.Helper()
	ctx := context.Background()
	plain, err := Drill(ctx, drillOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := Drill(ctx, shardOpts(200, 10))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultsim.ParsePlan("dying-gpu")
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := Drill(ctx, DrillOptions{
		Sessions: 4, Model: mlfw.MNIST(), SKU: mali.G71MP8, Seed: 7,
		HealthPlan: plan, FaultEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []goldenDrill{
		{"plain", plain.Seals},
		{"cache", cache.Seals},
		{"degraded", degraded.Seals},
	}
}
