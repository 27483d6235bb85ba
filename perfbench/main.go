// Command perfbench is the repository benchmark. It runs one workload of the
// gpurelay root API in this process and prints its metrics, one per line,
// then a JSON summary as the last line of standard output:
//
//	go run . --workload record-paper --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced timed window.
// --trace 1 runs an untraced window and then a traced one (telemetry
// scopes, benchmark spans, CPU profile) and reports the per-layer metrics,
// including the tracing overhead between the two windows. See README.md
// for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

type workload struct {
	setupReps int
	setup     func(seed int64) (instance, error)
}

// workloads by name. Set-up repeats setupReps times and setup_s is the
// median. replay-paper's set-up records six models and runs them natively,
// most of a run's time, so it runs once.
var workloads = map[string]workload{
	"record-paper":    {setupReps: 3, setup: setupRecordPaper},
	"replay-paper":    {setupReps: 1, setup: setupReplayPaper},
	"fleet-coldstart": {setupReps: 3, setup: setupFleetColdstart},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// extra is printed beside the metrics but kept out of the JSON line.
	extra map[string]metric
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload: record-paper, replay-paper or fleet-coldstart")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 15, "length of one timed window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced window")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, seconds %v, trace %d\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	s, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("workload %s seed %d: %d ops, %d failed\n", *name, *seed, s.Attempted, s.Failed)
	for _, ms := range []map[string]metric{s.Metrics, s.extra} {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	out, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(w workload, seed int64, d time.Duration, traced bool, start time.Time) (*summary, error) {
	var inst instance
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = start
		}
		var err error
		if inst, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i+1 < w.setupReps {
			inst = nil
			runtime.GC()
		}
	}

	log := inst.measure(d, nil)
	s := &summary{Attempted: log.attempted, Failed: log.failed}
	reportErrs(log)
	if traced {
		var ms0, ms1 runtime.MemStats
		var prof bytes.Buffer
		tr := newTracer()
		runtime.ReadMemStats(&ms0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		tlog := inst.measure(d, tr)
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
		cpu, err := cpuByLayer(prof.Bytes())
		if err != nil {
			return nil, err
		}
		reportErrs(tlog)
		s.Attempted += tlog.attempted
		s.Failed += tlog.failed
		s.Metrics = perLayer(log, tlog, tr, cpu, &ms0, &ms1)
	}
	vm, vfailed, err := inst.virtual()
	if err != nil {
		return nil, err
	}
	s.Failed += vfailed
	s.Correct = s.Failed == 0
	if !traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		s.Metrics = map[string]metric{
			"setup_s":          {median(setups), "s"},
			"ops_per_s":        {log.opsPerSec(), "ops/s"},
			"op_ms_p50":        {log.quantileMS(0.50), "ms"},
			"op_ms_p99":        {log.quantileMS(0.99), "ms"},
			"peak_rss_mb":      {rss, "MB"},
			"record_vdelay_s":  {vm.recordS, "s"},
			"memsync_mb":       {vm.memsyncMB, "MB"},
			"replay_vdelay_ms": {vm.replayMS, "ms"},
		}
	}
	s.extra = map[string]metric{
		"fail_rate":  {float64(s.Failed) / float64(s.Attempted), "ratio"},
		"op_samples": {float64(len(log.lat)), "count"},
	}
	for k, m := range s.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			s.Metrics[k] = metric{0, m.Unit}
			s.Correct = false
		}
	}
	return s, nil
}

// perLayer derives the per-layer metrics of the traced window tlog; log is
// the untraced window that precedes it, for the tracing overhead.
func perLayer(log, tlog *opLog, tr *tracer, cpu map[string]int64, ms0, ms1 *runtime.MemStats) map[string]metric {
	ops := float64(tlog.attempted)
	c := tr.counts
	sessions, runs := c["sessions"], c["replay.runs"]
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	spanMean := func(name string, unit time.Duration) float64 {
		a := tr.spans[name]
		if a == nil || a.n == 0 {
			return 0
		}
		return float64(a.sum) / float64(a.n) / float64(unit)
	}

	// CPU split: every row is CPU ms per op; with idle they sum to the CPU
	// capacity per op, GOMAXPROCS × the window's wall time ÷ ops.
	capacity := float64(runtime.GOMAXPROCS(0)) * float64(tlog.wall) / 1e6 / ops
	var used, layered float64
	for _, l := range layers {
		v := float64(cpu[l]) / 1e6 / ops
		put(l+".cpu_ms", v, "ms")
		used += v
		if l != "runtime" && l != "other" {
			layered += v
		}
	}
	put("idle.cpu_ms", capacity-used, "ms")
	put("cpu.capacity_ms", capacity, "ms")
	put("cpu.layer_share", div(layered, used), "ratio")

	put("span.record_ms", spanMean("record", time.Millisecond), "ms")
	put("span.cache_hit_us", spanMean("cache_hit", time.Microsecond), "us")
	put("span.cache_miss_ms", spanMean("cache_miss", time.Millisecond), "ms")
	put("span.open_ms", spanMean("open", time.Millisecond), "ms")
	put("span.run_ms", spanMean("run", time.Millisecond), "ms")
	put("span.io_ms", spanMean("io", time.Millisecond), "ms")

	// Per recorded session.
	put("netsim.blocking_rtts", div(c["netsim.blocking_rtts"], sessions), "count")
	put("netsim.async_rtts", div(c["netsim.async_rtts"], sessions), "count")
	put("netsim.wire_mb", div(c["netsim.wire_bytes"], sessions)/1e6, "MB")
	put("netsim.stall_s", div(c["netsim.stall_s"], sessions), "s")
	put("shim.commits", div(c["shim.commits"], sessions), "count")
	put("shim.spec_hit_ratio", div(c["shim.async_commits"], c["shim.commits"]), "ratio")
	put("shim.mispredictions", div(c["shim.mispredictions"], sessions), "count")
	put("shim.recovery_s", div(c["shim.recovery_s"], sessions), "s")
	put("shim.poll_rtts_saved", div(c["shim.poll_rtts_saved"], sessions), "count")
	put("shim.reg_per_commit", div(c["shim.reg_accesses"], c["shim.commits"]), "ratio")
	put("memsync.dumps", div(c["memsync.dumps"], sessions), "count")
	put("memsync.raw_mb", div(c["memsync.raw_bytes"], sessions)/1e6, "MB")
	put("memsync.compress_ratio", div(c["memsync.raw_bytes"], c["memsync.wire_bytes"]), "ratio")
	put("record.sessions_per_op", sessions/ops, "count/op")

	// Per op, recording and replay together.
	put("mali.gpu_busy_s", c["mali.gpu_busy_s"]/ops, "s")
	put("mali.jobs", c["mali.jobs"]/ops, "count/op")

	// Per replay run.
	put("replay.events", div(c["replay.events"], runs), "count")
	put("replay.verified_reads", div(c["replay.verified_reads"], runs), "count")
	put("replay.restore_mb", div(c["replay.restore_bytes"], runs)/1e6, "MB")
	put("replay.mismatches", div(c["replay.mismatches"], runs), "count")

	put("castore.hit_ratio", div(c["castore.hits"], c["castore.lookups"]), "ratio")
	put("castore.fills", c["castore.fills"]/ops, "count/op")
	put("castore.evictions", c["castore.evictions"]/ops, "count/op")
	put("castore.coalesced", c["castore.coalesced"]/ops, "count/op")
	put("cloud.admissions_queued", c["cloud.queued"]/ops, "count/op")
	put("cloud.shed", c["cloud.shed"]/ops, "count/op")

	put("go.alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/ops, "MB")
	put("go.gc_cycles_per_op", float64(ms1.NumGC-ms0.NumGC)/ops, "count")

	untraced, traced := log.opsPerSec(), tlog.opsPerSec()
	put("tracing.ops_per_s_untraced", untraced, "ops/s")
	put("tracing.ops_per_s_traced", traced, "ops/s")
	put("tracing.overhead_pct", (untraced/traced-1)*100, "%")
	return out
}

// reportErrs prints the first failures of a window to standard error.
func reportErrs(l *opLog) {
	for _, e := range l.errs {
		fmt.Fprintf(os.Stderr, "perfbench: failed op: %s\n", e)
	}
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
