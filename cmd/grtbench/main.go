// grtbench regenerates every table and figure of the paper's evaluation
// (§7): Figure 7(a)/(b), Table 1, Table 2, Figure 8, Figure 9, and the §7.3
// validation experiments. Everything runs on the virtual clock, so the full
// matrix (six networks x four recorders x two network conditions, plus
// replays and native baselines) completes in a few minutes of real time.
//
// Usage:
//
//	grtbench            # the full paper evaluation
//	grtbench -fast      # MNIST + AlexNet only
//	grtbench -perf -ckpt-gate 0.5
//	                    # memory-sync micro-benchmarks -> BENCH_PR4.json, then
//	                    # checkpoint capture, epoch vs whole-checkpoint
//	                    # reference, plus the fleet speculation warm start
//	                    # -> BENCH_PR9.json
//	grtbench -fleet -sessions 16
//	                    # drill: serial then parallel engine, seal identity -> BENCH_PR6.json
//	grtbench -fleet -clients 10000 -sessions 100 -shards 4 -fleetout BENCH_PR8.json
//	                    # cache-first sharded drill, amplification gate
//	grtbench -fleet -health-plan dying-gpu -sessions 100 -fleetout BENCH_PR10.json
//	                    # degraded drill: device faults, cross-VM migration,
//	                    # byte-identity gate
//
// Every -fleet drill runs twice (platform.Drill) and fails (exit 1) on the
// first drill gate that does not hold (platform.CheckGates).
//
// Inconsistent flag combinations (e.g. -clients without -fleet, or an
// explicit -shards 0) are rejected with exit code 2 and a single-line JSON
// report on stderr ({"rejected":true,"stage":"flags","reason":...}), so
// pipelines can triage misconfiguration without parsing error prose.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"gpurelay/internal/experiments"
	"gpurelay/internal/faultsim"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/platform"
)

// flagRejection is the machine-readable report grtbench emits when the flag
// surface is combined inconsistently. Mirrors grtreplay's rejection schema.
type flagRejection struct {
	Rejected bool   `json:"rejected"`
	Stage    string `json:"stage"`  // "flags" or "fault-plan"
	Reason   string `json:"reason"` // stable token: needs_fleet|bad_shards|...
	Error    string `json:"error"`
}

// rejectFlags reports an inconsistent flag combination.
func rejectFlags(reason, msg string) { reject("flags", reason, msg) }

// rejectPlan reports an unparsable -health-plan the same way grtrecord's
// -faults path does, with the parser's stable reason token.
func rejectPlan(err error) {
	reason := "bad_plan"
	var pe *faultsim.PlanError
	if errors.As(err, &pe) {
		reason = pe.Reason
	}
	reject("fault-plan", reason, err.Error())
}

// reject prints one JSON line to stderr and exits 2: the invocation, not
// the environment, is at fault.
func reject(stage, reason, msg string) {
	line, _ := json.Marshal(flagRejection{Rejected: true, Stage: stage, Reason: reason, Error: msg})
	fmt.Fprintln(os.Stderr, string(line))
	os.Exit(2)
}

func main() {
	fast := flag.Bool("fast", false, "run only MNIST and AlexNet")
	perf := flag.Bool("perf", false, "run the memory-sync micro-benchmarks and the checkpoint benchmark and write their artifacts")
	perfOut := flag.String("perfout", "BENCH_PR4.json", "perf artifact output path (with -perf)")
	fleet := flag.Bool("fleet", false, "run the record-session drill twice on the discrete-event engine, gate it, and write a grt-drill/1 artifact")
	fleetOut := flag.String("fleetout", "BENCH_PR6.json", "drill artifact output path (with -fleet)")
	traceOut := flag.String("trace-out", "", "with -fleet: write the instrumented run's combined Chrome trace (per-session spans + engine handler spans) to this file")
	healthOut := flag.String("health-out", "", "with -fleet: write the instrumented run's fleet health report (grt-health/1 JSON, for grtdiag health) to this file")
	sessions := flag.Int("sessions", 0, "with -fleet: record sessions, or distinct workloads with -clients (omitted -> the drill's default)")
	clients := flag.Int("clients", 0, "with -fleet: client arrivals at a cache-first sharded front over -sessions workloads (selects the cache drill)")
	shards := flag.Int("shards", 0, "with -fleet -clients: admission partitions under consistent hashing on the cache key (omitted -> the drill's default)")
	healthPlan := flag.String("health-plan", "", "with -fleet: afflict every fourth session with this device-health fault plan (preset name or spec, e.g. dying-gpu) and gate on migration and byte identity")
	ckptOut := flag.String("ckptout", "BENCH_PR9.json", "checkpoint artifact output path (with -perf)")
	ckptGate := flag.Float64("ckpt-gate", 0, "with -perf: fail (exit 1) when the epoch/whole-checkpoint capture-time ratio reaches this ceiling on any footprint (0 = no gate)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// The checkpoint benchmark's flag surface is validated before anything
	// runs.
	if (set["ckptout"] || set["ckpt-gate"]) && !*perf {
		rejectFlags("needs_perf", "-ckptout/-ckpt-gate configure the checkpoint benchmark and need -perf")
	}
	if *ckptGate < 0 {
		rejectFlags("bad_ckpt_gate", fmt.Sprintf("-ckpt-gate %v: the capture-ratio ceiling cannot be negative", *ckptGate))
	}
	// The drill flags only forward values: platform.Drill owns the
	// defaults and rejects inconsistent combinations as a
	// *platform.OptionError before anything runs.
	for _, name := range []string{"sessions", "clients", "shards", "health-plan", "fleetout", "trace-out", "health-out"} {
		if set[name] && !*fleet {
			rejectFlags("needs_fleet", fmt.Sprintf("-%s configures the drill and needs -fleet", name))
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"sessions", *sessions}, {"clients", *clients}, {"shards", *shards}} {
		if set[f.name] && f.v <= 0 {
			rejectFlags("bad_"+f.name, fmt.Sprintf("-%s %d: need at least one (omit the flag for the drill's default)", f.name, f.v))
		}
	}
	var plan *faultsim.Plan
	if set["health-plan"] {
		var err error
		if plan, err = faultsim.ParsePlan(*healthPlan); err != nil {
			rejectPlan(err)
		}
	}
	if *perf {
		if err := runPerf(*perfOut); err != nil {
			log.Fatal(err)
		}
		if err := runCkptBench(*ckptOut, *ckptGate); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *fleet {
		opts := drillOptions(*sessions, *clients, *shards, plan)
		if err := runDrill(opts, *healthPlan, *fleetOut, *traceOut, *healthOut); err != nil {
			var oe *platform.OptionError
			if errors.As(err, &oe) {
				rejectFlags(oe.Reason, oe.Error())
			}
			log.Fatal(err)
		}
		return
	}

	var suite *experiments.Suite
	if *fast {
		suite = experiments.NewSuite(mlfw.MNIST(), mlfw.AlexNet())
	} else {
		suite = experiments.NewSuite()
	}

	fmt.Println("=== GR-T evaluation reproduction (all delays are virtual time) ===")

	f7w, err := suite.Figure7(netsim.WiFi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(experiments.RenderFigure7("Figure 7(a): recording delays, WiFi (RTT 20ms, BW 80Mbps)", f7w))

	f7c, err := suite.Figure7(netsim.Cellular)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(experiments.RenderFigure7("Figure 7(b): recording delays, cellular (RTT 50ms, BW 40Mbps)", f7c))

	t1, err := suite.Table1()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(experiments.RenderTable1(t1))

	t2, err := suite.Table2()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(experiments.RenderTable2(t2))

	f8, err := suite.Figure8()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(experiments.RenderFigure8(f8))

	f9, err := suite.Figure9()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(experiments.RenderFigure9(f9))

	def, err := suite.DeferralEfficacy(netsim.WiFi)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := suite.SpeculationEfficacy(netsim.WiFi)
	if err != nil {
		log.Fatal(err)
	}
	misModels := []string{"MNIST"}
	if !*fast {
		misModels = []string{"MNIST", "VGG16"}
	}
	mis, err := suite.MispredictionCost(misModels...)
	if err != nil {
		log.Fatal(err)
	}
	poll, err := suite.PollingOffload()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("=== §7.3 validation of key designs ===")
	fmt.Print(experiments.RenderValidation(def, spec, mis, poll))

	abl, err := suite.HistoryAblation()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("Ablation: cross-workload speculation history (warm vs cold)")
	fmt.Printf("%-12s %10s %10s %10s\n", "NN", "warm", "cold", "penalty")
	for _, r := range abl {
		fmt.Printf("%-12s %9.1fs %9.1fs %+9.1f%%\n", r.Model,
			r.FullDelay.Seconds(), r.NoHistoryDelay.Seconds(), r.ColdHistoryCost)
	}

	ks, err := suite.KSweep("MNIST")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(experiments.RenderKSweep("MNIST", ks))

	rtt, err := suite.RTTSweep("MNIST")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(experiments.RenderRTTSweep("MNIST", rtt))

	seg, err := suite.SegmentationTradeoff()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(experiments.RenderSegmentation(seg))
}
