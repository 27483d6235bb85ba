package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/platform"
	"gpurelay/internal/record"
	"gpurelay/internal/trace"
)

// TestMain re-executes the test binary as grtreplay itself when
// GRTREPLAY_RUN_MAIN is set, so the tests can drive main end to end.
func TestMain(m *testing.M) {
	if os.Getenv("GRTREPLAY_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var (
	fleetOnce sync.Once
	fleetRecs []*record.Result
	fleetErr  error
)

// twoGPUFleet records MNIST once per GPU of a two-GPU platform bundle, each
// session under its own platform session key.
func twoGPUFleet(t *testing.T) []*record.Result {
	t.Helper()
	fleetOnce.Do(func() {
		for i := 0; i < 2; i++ {
			res, err := record.Run(record.Config{
				Model: mlfw.MNIST(), SKU: mali.G71MP8, Network: netsim.WiFi,
				SessionKey: platform.SessionKey(1, i), ClientSeed: uint64(i) + 1,
				InjectMispredictionAt: -1,
			})
			if err != nil {
				fleetErr = err
				return
			}
			fleetRecs = append(fleetRecs, res)
		}
	})
	if fleetErr != nil {
		t.Fatal(fleetErr)
	}
	return fleetRecs
}

// writePlatformBundle writes the two-GPU fleet as a GRTP bundle, each
// recording passed through mutate and re-signed under its bundled key.
func writePlatformBundle(t *testing.T, mutate func(*trace.Recording)) string {
	t.Helper()
	var entries []platform.Entry
	for i, res := range twoGPUFleet(t) {
		key := platform.SessionKey(1, i)
		rec, err := trace.Verify(res.Signed, key)
		if err != nil {
			t.Fatal(err)
		}
		mutate(rec)
		signed, err := trace.Sign(rec, key)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, platform.Entry{Payload: signed.Payload, MAC: signed.MAC[:], Key: key})
	}
	path := filepath.Join(t.TempDir(), "fleet.grt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := platform.WriteBundle(f, entries); err != nil {
		t.Fatal(err)
	}
	return path
}

// runGrtreplay runs grtreplay with args and returns its exit status and
// output streams.
func runGrtreplay(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GRTREPLAY_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		status = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return status, out.String(), errOut.String()
}

// TestOpenPlatformBundleReplays checks the platform path end to end: a
// well-formed two-GPU bundle verifies and replays on both GPUs.
func TestOpenPlatformBundleReplays(t *testing.T) {
	path := writePlatformBundle(t, func(*trace.Recording) {})
	status, stdout, stderr := runGrtreplay(t, "-recording", path)
	if status != 0 {
		t.Fatalf("exit %d; stderr:\n%s", status, stderr)
	}
	for _, want := range []string{"gpu  0: verified and replayed", "gpu  1: verified and replayed"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

// TestOpenPlatformBundleRejectsHostilePoolSize checks that the platform path
// fails closed: entries re-signed under their bundled keys with PoolSize 0
// are rejected by the audit (exit 2, one JSON rejection) before any pool is
// sized, instead of panicking inside an engine process.
func TestOpenPlatformBundleRejectsHostilePoolSize(t *testing.T) {
	path := writePlatformBundle(t, func(r *trace.Recording) { r.PoolSize = 0 })
	status, _, stderr := runGrtreplay(t, "-recording", path)
	if status != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", status, stderr)
	}
	if strings.Contains(stderr, "panic") {
		t.Fatalf("stderr mentions a panic:\n%s", stderr)
	}
	var rej rejection
	if err := json.Unmarshal([]byte(strings.TrimSpace(stderr)), &rej); err != nil {
		t.Fatalf("stderr is not one JSON rejection: %v\n%s", err, stderr)
	}
	if !rej.Rejected || rej.Reason != "audit" || rej.File != path {
		t.Fatalf("rejection %+v, want reason audit for %s", rej, path)
	}
}
