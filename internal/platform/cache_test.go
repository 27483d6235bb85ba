package platform

import (
	"context"
	"testing"

	"gpurelay/internal/cloud"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/obs"
)

func shardOpts(clients, workloads int) DrillOptions {
	return DrillOptions{
		Clients:  clients,
		Sessions: workloads,
		Model:    mlfw.Micro(),
		SKU:      mali.G71MP8,
		Seed:     42,
	}
}

func TestCacheDrillRuns(t *testing.T) {
	res, err := Drill(context.Background(), shardOpts(200, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Records != 10 {
		t.Fatalf("%d records for 10 workloads", res.Cache.Records)
	}
	if res.Cache.RecordAmplification != 1.0 {
		t.Fatalf("record amplification %v, want 1.0", res.Cache.RecordAmplification)
	}
	if res.Cache.Shed != 0 {
		t.Fatalf("%d admissions shed on an unsaturated drill", res.Cache.Shed)
	}
	if res.Cache.Hits+res.Cache.Misses != int64(res.Cache.Clients) {
		t.Fatalf("hits %d + misses %d != clients %d", res.Cache.Hits, res.Cache.Misses, res.Cache.Clients)
	}
	if res.Cache.Misses != res.Cache.Records+res.Cache.Coalesced {
		t.Fatalf("misses %d != records %d + coalesced %d", res.Cache.Misses, res.Cache.Records, res.Cache.Coalesced)
	}
	if res.Cache.Store.Len() != 10 || res.Cache.Store.KeysSeen() != 10 {
		t.Fatalf("store holds %d entries / %d keys, want 10/10", res.Cache.Store.Len(), res.Cache.Store.KeysSeen())
	}
	for w, seal := range res.Seals {
		if seal == ([32]byte{}) {
			t.Fatalf("workload %d has no seal", w)
		}
	}
	if res.Health == nil || res.Health.Window.CacheHitRate != res.Cache.CacheHitRate {
		t.Fatalf("health rollup cache hit rate disagrees with the drill's")
	}
	if res.Health.Window.RecordAmplification != res.Cache.RecordAmplification {
		t.Fatalf("health rollup amplification %v, drill %v",
			res.Health.Window.RecordAmplification, res.Cache.RecordAmplification)
	}
}

// TestCacheDrillDeterminism is the cache mode's acceptance test: the full
// 10k-client / 100-workload sharded drill, run twice, must report identical
// metrics and byte-identical recording seals — and cache hits must consume
// zero VM time (the fleet admits exactly one session per record, never one
// per hit).
func TestCacheDrillDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-admission drill, twice")
	}
	clients, workloads := 10000, 100
	if raceDetectorEnabled {
		// Race runs prove the drill race-clean at reduced scale; the full
		// 10k/100 plan runs without -race (and in the CI bench job).
		clients, workloads = 2000, 50
	}
	opts := shardOpts(clients, workloads)
	a, err := Drill(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cache.Records != int64(workloads) || a.Cache.RecordAmplification != 1.0 {
		t.Fatalf("amplification %v (%d records / %d workloads), want exactly 1.0",
			a.Cache.RecordAmplification, a.Cache.Records, workloads)
	}
	if a.Cache.Shed != 0 {
		t.Fatalf("%d admissions shed", a.Cache.Shed)
	}
	if a.Cache.CacheHitRate < 0.9 {
		t.Fatalf("cache hit rate %v over %d admissions of %d workloads", a.Cache.CacheHitRate, clients, workloads)
	}

	// Zero VM time for cache hits: every admission the session managers ever
	// granted corresponds to a record session, never to a hit.
	snap := a.Fleet.Snapshot()
	admitted := snap.Counter(obs.MFleetAdmissions, obs.L("outcome", "immediate")) +
		snap.Counter(obs.MFleetAdmissions, obs.L("outcome", "queued"))
	if admitted != a.Cache.Records {
		t.Fatalf("%d VM admissions for %d records — cache hits consumed VM time", admitted, a.Cache.Records)
	}
	if sessions := snap.Counter(obs.MFleetSessions); sessions != a.Cache.Records {
		t.Fatalf("%d completed VM sessions for %d records", sessions, a.Cache.Records)
	}
	if a.Cache.Service.ActiveVMs() != 0 || a.Cache.Service.Queued() != 0 {
		t.Fatalf("drill left %d VMs live, %d queued", a.Cache.Service.ActiveVMs(), a.Cache.Service.Queued())
	}

	b, err := Drill(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cache.Hits != b.Cache.Hits || a.Cache.Misses != b.Cache.Misses || a.Cache.Coalesced != b.Cache.Coalesced ||
		a.Cache.Shed != b.Cache.Shed || a.Cache.Records != b.Cache.Records {
		t.Fatalf("run metrics diverged: %d/%d/%d/%d/%d vs %d/%d/%d/%d/%d",
			a.Cache.Hits, a.Cache.Misses, a.Cache.Coalesced, a.Cache.Shed, a.Cache.Records,
			b.Cache.Hits, b.Cache.Misses, b.Cache.Coalesced, b.Cache.Shed, b.Cache.Records)
	}
	if a.Cache.CacheHitRate != b.Cache.CacheHitRate || a.Cache.RecordAmplification != b.Cache.RecordAmplification {
		t.Fatal("derived rates diverged between runs")
	}
	if a.Cache.P99AdmissionWait != b.Cache.P99AdmissionWait {
		t.Fatalf("p99 admission wait diverged: %v vs %v", a.Cache.P99AdmissionWait, b.Cache.P99AdmissionWait)
	}
	if a.VirtualTime != b.VirtualTime || a.Events != b.Events {
		t.Fatalf("timeline diverged: %v/%d events vs %v/%d events",
			a.VirtualTime, a.Events, b.VirtualTime, b.Events)
	}
	for w := range a.Seals {
		if a.Seals[w] != b.Seals[w] {
			t.Fatalf("workload %d seal diverged between runs", w)
		}
	}
}

// TestCacheDrillSheds saturates a one-slot, no-queue shard and checks
// the drill sheds (and counts) the overflow instead of deadlocking, and that
// shed workloads are re-led and eventually recorded by later arrivals.
func TestCacheDrillSheds(t *testing.T) {
	opts := shardOpts(300, 20)
	opts.Shards = 1
	opts.ShardCapacity = 1
	opts.ShardQueueLimit = -1
	res, err := Drill(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Shed == 0 {
		t.Fatal("one-slot no-queue drill shed nothing")
	}
	if res.Cache.MaxShardQueue != 0 {
		t.Fatalf("queue depth %d with queueing disabled", res.Cache.MaxShardQueue)
	}
	snap := res.Fleet.Snapshot()
	if got := snap.Counter(obs.MShardShed, obs.L("shard", "0")); got != res.Cache.Shed {
		t.Fatalf("shard shed counter %d, drill counted %d", got, res.Cache.Shed)
	}
	// Shedding degrades health; the report must say so.
	if res.Health.State == cloud.Healthy {
		t.Fatal("health rollup ignored shed admissions")
	}
	if len(res.Health.Reasons) == 0 {
		t.Fatal("degraded report carries no reasons")
	}
	// Everything that wasn't shed was served.
	if res.Cache.Hits+res.Cache.Coalesced+res.Cache.Records+res.Cache.Shed != int64(res.Cache.Clients) {
		t.Fatalf("hits %d + coalesced %d + records %d + shed %d != %d clients",
			res.Cache.Hits, res.Cache.Coalesced, res.Cache.Records, res.Cache.Shed, res.Cache.Clients)
	}
}

func TestCacheDrillValidation(t *testing.T) {
	if _, err := Drill(context.Background(), DrillOptions{}); err == nil {
		t.Fatal("drill without model/SKU accepted")
	}
	bad := shardOpts(10, 20)
	if _, err := Drill(context.Background(), bad); err == nil {
		t.Fatal("more workloads than clients accepted")
	}
	neg := shardOpts(10, 2)
	neg.Shards = -1
	if _, err := Drill(context.Background(), neg); err == nil {
		t.Fatal("negative shard count accepted")
	}
	uncat := shardOpts(10, 2)
	uncat.SKU = &mali.SKU{Name: "bogus"}
	if _, err := Drill(context.Background(), uncat); err == nil {
		t.Fatal("uncataloged SKU accepted")
	}
}
