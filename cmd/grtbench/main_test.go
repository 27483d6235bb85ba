package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain re-executes the test binary as grtbench itself when
// GRTBENCH_RUN_MAIN is set, so the tests can drive main end to end.
func TestMain(m *testing.M) {
	if os.Getenv("GRTBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagMisuse runs grtbench on each flag misuse: every one must exit 2
// before running anything and print one JSON line on stderr carrying its
// stage and stable reason token.
func TestFlagMisuse(t *testing.T) {
	cases := []struct {
		args          []string
		stage, reason string
	}{
		{[]string{"-sessions", "4"}, "flags", "needs_fleet"},
		{[]string{"-health-out", "h.json"}, "flags", "needs_fleet"},
		{[]string{"-fleet", "-shards", "0"}, "flags", "bad_shards"},
		{[]string{"-fleet", "-clients", "-3"}, "flags", "bad_clients"},
		{[]string{"-fleet", "-sessions", "0"}, "flags", "bad_sessions"},
		{[]string{"-fleet", "-shards", "4"}, "flags", "needs_clients"},
		{[]string{"-fleet", "-clients", "10", "-sessions", "20"}, "flags", "sessions_exceed_clients"},
		{[]string{"-fleet", "-health-plan", "flaky"}, "flags", "no_health_faults"},
		{[]string{"-fleet", "-health-plan", "dying-gpu", "-clients", "100"}, "flags", "shard_conflict"},
		{[]string{"-fleet", "-health-plan", "bogus"}, "fault-plan", "unknown_kind"},
		{[]string{"-ckptout", "c.json"}, "flags", "needs_perf"},
		{[]string{"-perf", "-ckpt-gate", "-1"}, "flags", "bad_ckpt_gate"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "GRTBENCH_RUN_MAIN=1")
			cmd.Dir = t.TempDir()
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit %v, want status 2; stderr:\n%s", err, stderr.String())
			}
			var rej flagRejection
			if err := json.Unmarshal(bytes.TrimSpace(stderr.Bytes()), &rej); err != nil {
				t.Fatalf("stderr is not one JSON rejection: %v\n%s", err, stderr.String())
			}
			if !rej.Rejected || rej.Stage != tc.stage || rej.Reason != tc.reason {
				t.Fatalf("rejection %+v, want stage %q reason %q", rej, tc.stage, tc.reason)
			}
		})
	}
}
