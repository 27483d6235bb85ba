package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gpurelay/internal/platform"
)

// TestMain re-executes the test binary as grtrecord itself when
// GRTRECORD_RUN_MAIN is set, so the tests can drive main end to end.
func TestMain(m *testing.M) {
	if os.Getenv("GRTRECORD_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// grtrecord runs main in dir with args and returns its exit code and
// stderr.
func grtrecord(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GRTRECORD_RUN_MAIN=1")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatalf("running grtrecord %v: %v", args, err)
	}
	return 0, stderr.String()
}

// payload reads the signed recording payload of a single-GPU bundle.
func payload(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := platform.ReadBundle(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(entries) != 1 {
		t.Fatalf("%s holds %d recordings, want 1", path, len(entries))
	}
	return entries[0].Payload
}

// TestCrashCheckpointResume is the -ckpt/-resume flow end to end: a session
// killed at job 8 with resumes disabled exits non-zero and leaves its job-8
// checkpoint behind, and a later process resumed from that file writes the
// recording payload an uninterrupted run writes.
func TestCrashCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	code, stderr := grtrecord(t, dir, "-faults", "vm-crash", "-max-resumes", "-1", "-ckpt", "c.grtc")
	if code == 0 {
		t.Fatalf("crashed session exited 0; stderr:\n%s", stderr)
	}
	cp, err := readCheckpoint(filepath.Join(dir, "c.grtc"))
	if err != nil {
		t.Fatalf("saved checkpoint: %v", err)
	}
	if cp.Job() != 8 {
		t.Fatalf("saved checkpoint at job %d, want 8 (the crash job)", cp.Job())
	}

	if code, stderr := grtrecord(t, dir, "-resume", "c.grtc", "-o", "r.grt"); code != 0 {
		t.Fatalf("resume exited %d; stderr:\n%s", code, stderr)
	}
	if code, stderr := grtrecord(t, dir, "-o", "base.grt"); code != 0 {
		t.Fatalf("plain record exited %d; stderr:\n%s", code, stderr)
	}
	if !bytes.Equal(payload(t, filepath.Join(dir, "r.grt")), payload(t, filepath.Join(dir, "base.grt"))) {
		t.Fatal("resumed recording payload differs from an uninterrupted run's")
	}
}

// TestFlagMisuse checks the checkpoint-tuning flags are rejected before
// anything runs: exit 2 and one JSON line on stderr naming the reason.
func TestFlagMisuse(t *testing.T) {
	cases := []struct {
		args   []string
		reason string
	}{
		{[]string{"-ckpt-cadence", "2"}, "needs_ckpt"},
		{[]string{"-ckpt", "c.grtc", "-ckpt-cadence", "-1"}, "bad_ckpt_cadence"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, stderr := grtrecord(t, t.TempDir(), tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
			}
			var rej struct {
				Rejected bool   `json:"rejected"`
				Stage    string `json:"stage"`
				Reason   string `json:"reason"`
			}
			if err := json.Unmarshal([]byte(strings.TrimSpace(stderr)), &rej); err != nil {
				t.Fatalf("stderr is not one JSON rejection: %v\n%s", err, stderr)
			}
			if !rej.Rejected || rej.Stage != "flags" || rej.Reason != tc.reason {
				t.Fatalf("rejection %+v, want stage flags reason %q", rej, tc.reason)
			}
		})
	}
}

// TestReadCheckpointBoundsChunks feeds readCheckpoint a GRTC file whose
// first chunk declares one byte more than the bundle chunk limit: it must
// fail naming the limit instead of allocating what the file claims.
func TestReadCheckpointBoundsChunks(t *testing.T) {
	const limit = 1 << 30
	path := filepath.Join(t.TempDir(), "hostile.grtc")
	blob := binary.LittleEndian.AppendUint32([]byte("GRTC"), limit+1)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := readCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(limit)) {
		t.Fatalf("err = %v, want a rejection naming the %d-byte limit", err, limit)
	}
}
