package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"

	"gpurelay"
)

// The output checks must be able to fail: a perturbed replay output and a
// tampered bundle each raise the fail rate above zero, while the untouched
// runs pass.

func TestReplayCheckCatchesPerturbedOutput(t *testing.T) {
	w, err := newReplayPaper(7, []*gpurelay.Model{gpurelay.MNIST()})
	if err != nil {
		t.Fatal(err)
	}
	if log := w.measure(50*time.Millisecond, nil); log.failed != 0 {
		t.Fatalf("clean replay: %d of %d ops failed: %v", log.failed, log.attempted, log.errs)
	}
	w.perturb = func(out []float32) { out[len(out)-1] += 1e-4 }
	log := w.measure(50*time.Millisecond, nil)
	if log.failed == 0 || log.failed != log.attempted {
		t.Fatalf("perturbed replay: %d of %d ops failed, want all", log.failed, log.attempted)
	}
}

func TestFleetCheckCatchesTamperedBundle(t *testing.T) {
	inst, err := setupFleetColdstart(7)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*fleetColdstart)
	if log := w.measure(0, nil); log.failed != 0 {
		t.Fatalf("clean fleet: %d of %d ops failed: %v", log.failed, log.attempted, log.errs)
	}
	w.tamper = func(p []byte) []byte {
		p = append([]byte(nil), p...)
		p[len(p)/2] ^= 1
		return p
	}
	log := w.measure(0, nil)
	if log.failed == 0 {
		t.Fatalf("tampered bundles: 0 of %d ops failed", log.attempted)
	}
}

func TestCPUByLayerSplitsAProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	var sink []byte
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		sink = append(sink[:0], make([]byte, 1<<16)...)
	}
	pprof.StopCPUProfile()
	cpu, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cpu["other"]+cpu["runtime"] == 0 {
		t.Fatalf("no CPU attributed: %v", cpu)
	}
	if _, err := cpuByLayer([]byte("not a profile")); err == nil {
		t.Fatal("garbage accepted as a profile")
	}
	var trunc bytes.Buffer
	zw := gzip.NewWriter(&trunc)
	zw.Write([]byte{0x12, 0x05, 0x08})
	zw.Close()
	if _, err := cpuByLayer(trunc.Bytes()); err == nil {
		t.Fatal("truncated profile accepted")
	}
}

func TestLayerOf(t *testing.T) {
	for pkg, want := range map[string]string{
		"gpurelay/internal/gpumem":   "gpumem",
		"gpurelay/internal/mali/isa": "isa",
		"gpurelay/internal/obs":      "other",
		"gpurelay":                   "other",
		"crypto/sha256":              "crypto",
		"main":                       "other",
	} {
		if got, helper := layerOf(pkg); got != want || helper {
			t.Errorf("layerOf(%q) = %q, %v; want %q", pkg, got, helper, want)
		}
	}
	for _, pkg := range []string{"runtime", "internal/bytealg", "sync", "encoding/binary"} {
		if _, helper := layerOf(pkg); !helper {
			t.Errorf("layerOf(%q) is not a helper", pkg)
		}
	}
	if got := packageOf("gpurelay/internal/gpumem.(*Snapshot).Encode"); got != "gpurelay/internal/gpumem" {
		t.Errorf("packageOf = %q", got)
	}
}
