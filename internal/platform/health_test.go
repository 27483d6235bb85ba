package platform

import (
	"context"
	"testing"

	"gpurelay/internal/cloud"
	"gpurelay/internal/faultsim"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/obs"
)

// TestHealthDrill drills a small fleet through the dying-gpu plan:
// every afflicted session must migrate off its dead silicon and still
// produce a byte-identical recording.
func TestHealthDrill(t *testing.T) {
	plan, err := faultsim.ParsePlan("dying-gpu")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drill(context.Background(), DrillOptions{
		Sessions:   8,
		Model:      mlfw.MNIST(),
		SKU:        mali.G71MP8,
		Seed:       42,
		HealthPlan: plan,
		FaultEvery: 4, // sessions 0 and 4
		Instrument: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Faulted != 2 {
		t.Fatalf("faulted sessions = %d, want 2", res.Faults.Faulted)
	}
	if res.Faults.Interrupted != res.Faults.Faulted {
		t.Fatalf("interrupted = %d, want %d (every afflicted session must lose its device)",
			res.Faults.Interrupted, res.Faults.Faulted)
	}
	// dying-gpu kills twice per session (fall-off, then ECC-DBE on the
	// replacement), so each afflicted session migrates twice.
	if want := 2 * res.Faults.Faulted; res.Faults.Migrated != want {
		t.Fatalf("migrations = %d, want %d", res.Faults.Migrated, want)
	}
	if res.Faults.NonIdentical != 0 {
		t.Fatalf("%d recording(s) differ from baseline", res.Faults.NonIdentical)
	}
	var dead, degraded int
	for _, d := range res.Faults.Devices {
		switch d.State {
		case "dead":
			dead++
			if d.FallOffs == 0 {
				t.Fatalf("dead device %s has no fall-offs booked", d.ID)
			}
		case "degraded":
			degraded++
			if d.ECCDBE == 0 {
				t.Fatalf("degraded device %s has no DBE booked", d.ID)
			}
		}
		if d.Migrations > 0 && d.State == "healthy" {
			t.Fatalf("device %s has migrations but is healthy", d.ID)
		}
	}
	if dead != res.Faults.Faulted || degraded != res.Faults.Faulted {
		t.Fatalf("device states: %d dead, %d degraded, want %d of each",
			dead, degraded, res.Faults.Faulted)
	}
	// The fleet grew replacements: n originals + one per migration.
	if want := len(res.Seals) + res.Faults.Migrated; len(res.Faults.Devices) != want {
		t.Fatalf("device inventory = %d, want %d", len(res.Faults.Devices), want)
	}
	if res.Health == nil {
		t.Fatal("instrumented drill produced no health report")
	}
	st := res.Health.Window
	if st.DeviceFallOffs != int64(res.Faults.Faulted) || st.DeviceECCDBE != int64(res.Faults.Faulted) {
		t.Fatalf("health window: falloffs=%d dbe=%d, want %d of each",
			st.DeviceFallOffs, st.DeviceECCDBE, res.Faults.Faulted)
	}
	if st.DeviceMigrations != int64(res.Faults.Migrated) {
		t.Fatalf("health window migrations = %d, want %d", st.DeviceMigrations, res.Faults.Migrated)
	}
	if st.DeviceThrottledNS <= 0 {
		t.Fatal("thermal windows stretched no virtual time")
	}
	if res.Health.State != cloud.Degraded {
		t.Fatalf("fleet state = %s, want degraded (GPUs died)", res.Health.State)
	}
	if res.Fleet.Snapshot().CounterTotal(obs.MDeviceMigrations) != int64(res.Faults.Migrated) {
		t.Fatal("grt_device_migrations_total does not match drill count")
	}
}

// TestHealthDrillDeterministic runs the drill twice, expecting identical
// seals everywhere.
func TestHealthDrillDeterministic(t *testing.T) {
	plan, err := faultsim.ParsePlan("dying-gpu")
	if err != nil {
		t.Fatal(err)
	}
	base := DrillOptions{
		Sessions:   4,
		Model:      mlfw.MNIST(),
		SKU:        mali.G71MP8,
		Seed:       7,
		HealthPlan: plan,
		FaultEvery: 2,
	}
	a, err := Drill(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Drill(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Seals {
		if a.Seals[i] != b.Seals[i] {
			t.Fatalf("session %d: run-twice seals differ", i)
		}
		if a.Seals[i] != a.Faults.BaselineSeals[i] {
			t.Fatalf("session %d: seal differs from baseline", i)
		}
	}
	if a.Faults.NonIdentical != 0 || b.Faults.NonIdentical != 0 {
		t.Fatalf("non-identical recordings: %d, %d", a.Faults.NonIdentical, b.Faults.NonIdentical)
	}
	if a.Faults.Migrated == 0 || a.Faults.Migrated != b.Faults.Migrated {
		t.Fatalf("migrations: %d, %d", a.Faults.Migrated, b.Faults.Migrated)
	}
}
