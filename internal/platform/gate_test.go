package platform

import (
	"context"
	"errors"
	"testing"
	"time"

	"gpurelay/internal/castore"
	"gpurelay/internal/cloud"
	"gpurelay/internal/faultsim"
)

// TestCheckGates drives every gate branch on synthetic drill results.
func TestCheckGates(t *testing.T) {
	plain := func() *DrillResult {
		return &DrillResult{Seals: [][32]byte{{1}, {2}}, VirtualTime: time.Second, Events: 10}
	}
	with := func(f func(*DrillResult)) *DrillResult {
		r := plain()
		f(r)
		return r
	}
	cache := func(amp float64) *DrillResult {
		return with(func(r *DrillResult) {
			// Distinct inspection handles per run must not trip the witness.
			r.Cache = &CacheStats{Records: 2, RecordAmplification: amp,
				Store: &castore.Store{}, Service: &cloud.ShardedService{}}
		})
	}
	health := func(fs FaultStats) *DrillResult {
		return with(func(r *DrillResult) { r.Faults = &fs })
	}
	survived := FaultStats{Interrupted: 1, MigrationSuccessRate: 1}
	cases := []struct {
		name string
		a, b *DrillResult
		gate string // "" → passes
	}{
		{"plain", plain(), plain(), ""},
		{"cache", cache(1), cache(1), ""},
		{"health", health(survived), health(survived), ""},
		{"seal count", plain(), with(func(r *DrillResult) { r.Seals = r.Seals[:1] }), "witness"},
		{"seal", plain(), with(func(r *DrillResult) { r.Seals[1][0] = 9 }), "witness"},
		{"virtual time", plain(), with(func(r *DrillResult) { r.VirtualTime++ }), "witness"},
		{"events", plain(), with(func(r *DrillResult) { r.Events++ }), "witness"},
		{"one cache front", cache(1), plain(), "witness"},
		{"cache counters", cache(1), with(func(r *DrillResult) { r.Cache = &CacheStats{Records: 3, RecordAmplification: 1} }), "witness"},
		{"amplification", cache(1.2), cache(1.2), "amplification"},
		{"no interruptions", health(FaultStats{MigrationSuccessRate: 1}), health(FaultStats{MigrationSuccessRate: 1}), "no_interruptions"},
		{"migration rate", health(FaultStats{Interrupted: 2, MigrationSuccessRate: 0.5}), health(survived), "migration_rate"},
		{"non identical", health(FaultStats{Interrupted: 1, MigrationSuccessRate: 1, NonIdentical: 1}), health(survived), "non_identical"},
	}
	for _, tc := range cases {
		err := CheckGates(tc.a, tc.b)
		var ge *GateError
		switch {
		case tc.gate == "" && err != nil:
			t.Errorf("%s: %v, want pass", tc.name, err)
		case tc.gate != "" && (!errors.As(err, &ge) || ge.Gate != tc.gate):
			t.Errorf("%s: %v, want gate %q", tc.name, err, tc.gate)
		}
	}
}

// TestDrillGatesPass runs two small cache drills and checks real results
// pass the gates.
func TestDrillGatesPass(t *testing.T) {
	a, err := Drill(context.Background(), shardOpts(200, 10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Drill(context.Background(), shardOpts(200, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGates(a, b); err != nil {
		t.Fatal(err)
	}
}

// TestDrillOptionReasons checks inconsistent options are rejected with
// their stable reason before anything runs.
func TestDrillOptionReasons(t *testing.T) {
	dying, err := faultsim.ParsePlan("dying-gpu")
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := faultsim.ParsePlan("flaky")
	if err != nil {
		t.Fatal(err)
	}
	with := func(f func(*DrillOptions)) DrillOptions {
		o := drillOpts(2)
		f(&o)
		return o
	}
	cases := []struct {
		opts   DrillOptions
		reason string
	}{
		{DrillOptions{}, "needs_model"},
		{with(func(o *DrillOptions) { o.Sessions = -1 }), "bad_sessions"},
		{with(func(o *DrillOptions) { o.Shards = 2 }), "needs_clients"},
		{with(func(o *DrillOptions) { o.FaultEvery = 2 }), "needs_health_plan"},
		{with(func(o *DrillOptions) { o.HealthPlan = flaky }), "no_health_faults"},
		{with(func(o *DrillOptions) { o.HealthPlan, o.Clients = dying, 10 }), "shard_conflict"},
		{onParallel(with(func(o *DrillOptions) { o.HealthPlan = dying })), "engine_conflict"},
		{onParallel(shardOpts(10, 2)), "engine_conflict"},
		{shardOpts(10, 20), "sessions_exceed_clients"},
	}
	for i, tc := range cases {
		_, err := Drill(context.Background(), tc.opts)
		var oe *OptionError
		if !errors.As(err, &oe) || oe.Reason != tc.reason {
			t.Errorf("case %d: %v, want reason %q", i, err, tc.reason)
		}
	}
}
