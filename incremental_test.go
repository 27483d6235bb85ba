package gpurelay

// Epoch-chain checkpoint and fleet warm-start acceptance tests: the chaos
// matrix at GOMAXPROCS 1 and 8 (crash mid-chain, resume from the stitched
// chain, byte-identical recording), checkpointing under an injected
// misprediction rollback, the shed-aware admission retry, and the
// validated-commit history exchange between services.

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpurelay/internal/mali"
	"gpurelay/internal/obs"
	"gpurelay/internal/timesim"
)

// TestChaosIncrementalCheckpoint is the chaos matrix's incremental variant:
// every fault plan kills the session mid-epoch, the resume stitches the
// epoch chain back into a full checkpoint, and the final recording must be
// byte-identical to an undisturbed run — at GOMAXPROCS 1 and 8, since host
// scheduling must not leak into the chain.
func TestChaosIncrementalCheckpoint(t *testing.T) {
	base, _, err := NewClient("epoch-base", MaliG71MP8).Record(NewService(), MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	basePayload, _, _ := base.Bundle()

	for _, procs := range []int{1, 8} {
		for _, planName := range chaosPlans {
			planName := planName
			t.Run(planName+"/procs="+string(rune('0'+procs)), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				plan, err := ParseFaultPlan(planName)
				if err != nil {
					t.Fatal(err)
				}
				svc := NewService()
				rec, stats, err := NewClient("epoch-chaos", MaliG71MP8).RecordResumable(
					context.Background(), svc, MNIST(), ResilienceOptions{
						Faults: plan,
					})
				if err != nil {
					t.Fatalf("chaos record: %v", err)
				}
				if stats.Resumes < 1 {
					t.Fatalf("plan %q never killed the session (resumes = %d)", planName, stats.Resumes)
				}
				if stats.CkptEpochs == 0 {
					t.Fatal("incremental mode committed no epochs")
				}
				payload, mac, key := rec.Bundle()
				if !bytes.Equal(basePayload, payload) {
					t.Fatalf("chain-resumed recording differs from undisturbed baseline: %d vs %d bytes",
						len(payload), len(basePayload))
				}
				if _, err := RecordingFromBundle(payload, mac, key); err != nil {
					t.Fatalf("chain-resumed recording fails verification: %v", err)
				}
				if got := svc.Metrics().Counter(obs.MCkptEpochs); got == 0 {
					t.Error("fleet epoch counter is zero after an incremental session")
				}
			})
		}
	}
}

// TestIncrementalConflictRollback checkpoints a session through a §4.2
// misprediction rollback: an injected misprediction replays the log between
// two job boundaries, and the recording must still come out identical to a
// run of the same session without checkpointing.
func TestIncrementalConflictRollback(t *testing.T) {
	// Commit 200 lands between two job boundaries, after the session's first
	// epochs were captured.
	const inject = 200
	base, _, err := NewClient("conflict-base", MaliG71MP8).Record(NewService(), MNIST(),
		RecordOptions{InjectMispredictionAt: inject})
	if err != nil {
		t.Fatal(err)
	}
	rec, stats, err := NewClient("conflict", MaliG71MP8).RecordResumable(
		context.Background(), NewService(), MNIST(), ResilienceOptions{
			RecordOptions: RecordOptions{InjectMispredictionAt: inject},
		})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shim.Mispredictions < 1 {
		t.Fatalf("injected misprediction did not fire (%d mispredictions)", stats.Shim.Mispredictions)
	}
	if stats.CkptEpochs == 0 {
		t.Fatal("checkpointing captured no epochs")
	}
	basePayload, _, _ := base.Bundle()
	payload, _, _ := rec.Bundle()
	if !bytes.Equal(basePayload, payload) {
		t.Fatal("checkpointing across the rollback perturbed the recording")
	}
}

// TestIncrementalExternalResume is the grtrecord -ckpt flow: the
// OnCheckpoint consumer receives full checkpoints stitched from the epoch
// chain, and the last one (written out and reloaded as if by
// a new process) resumes the session to a recording identical to an
// uninterrupted run.
func TestIncrementalExternalResume(t *testing.T) {
	plan, err := ParseFaultPlan("vm-crash")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var last *Checkpoint
	checkpoints := 0
	_, _, err = NewClient("epoch-mortal", MaliG71MP8).RecordResumable(
		context.Background(), NewService(), MNIST(), ResilienceOptions{
			Faults:     plan,
			MaxResumes: -1,
			OnCheckpoint: func(cp *Checkpoint) {
				mu.Lock()
				last = cp
				checkpoints++
				mu.Unlock()
			},
		})
	if !errors.Is(err, ErrSessionLost) {
		t.Fatalf("err = %v, want ErrSessionLost", err)
	}
	if last == nil {
		t.Fatal("no stitched checkpoint delivered before the crash")
	}
	// One epoch per job boundary: the consumer has seen several stitched
	// checkpoints by job 8.
	if checkpoints < 2 {
		t.Fatalf("only %d stitched checkpoints delivered", checkpoints)
	}

	payload, mac, key := last.Bundle()
	cp, err := CheckpointFromBundle(payload, mac, key)
	if err != nil {
		t.Fatalf("stitched checkpoint bundle round-trip: %v", err)
	}
	rec, stats, err := NewClient("epoch-heir", MaliG71MP8).RecordResumable(
		context.Background(), NewService(), MNIST(), ResilienceOptions{Resume: cp})
	if err != nil {
		t.Fatalf("resume from stitched checkpoint: %v", err)
	}
	if stats.Shim.ResyncEvents == 0 {
		t.Fatal("resumed session replayed no checkpointed events")
	}
	base, _, err := NewClient("epoch-mortal-base", MaliG71MP8).Record(NewService(), MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	basePayload, _, _ := base.Bundle()
	stitched, _, _ := rec.Bundle()
	if !bytes.Equal(basePayload, stitched) {
		t.Fatal("recording resumed from a stitched epoch chain differs from an uninterrupted run")
	}
}

// TestShedRetryHonorsHint pins the shed-aware admission retry: every wait
// lands at the shard's retry-after hint plus at most hint/8 of deterministic
// jitter on the client's virtual clock, the retries are counted, and the
// whole schedule is a pure function of the jitter seed.
func TestShedRetryHonorsHint(t *testing.T) {
	newShedService := func() (*Service, [32]byte, string, []byte) {
		svc := NewServiceWith(ServiceConfig{Shards: 2, Capacity: 1, QueueLimit: -1})
		key := svc.cacheKeyFor(MaliG71MP8, MNIST()).Hash()
		compat, err := mali.Compatible(MaliG71MP8)
		if err != nil {
			t.Fatal(err)
		}
		nonce := []byte("shed-test-nonce!")
		// Saturate the key's shard: capacity 1, queueing disabled, so the
		// next acquire for this key sheds with a retry-after hint.
		if _, err := svc.acquireVM(context.Background(), key, "blocker", compat, nonce); err != nil {
			t.Fatalf("saturating the shard: %v", err)
		}
		return svc, key, compat, nonce
	}

	run := func(seed uint64) (time.Duration, int64) {
		svc, key, compat, nonce := newShedService()
		clock := timesim.NewClock()
		scope := NewScope("shed-retry")
		_, err := svc.acquireVMShedAware(context.Background(), clock, scope,
			seed, key, "shed-client", compat, nonce)
		var shed *SheddingError
		if !errors.As(err, &shed) {
			t.Fatalf("held shard: err = %v, want *SheddingError", err)
		}
		return clock.Now(), scope.Snapshot().Counter(obs.MShedRetries)
	}

	waited, retries := run(7)
	if retries != maxShedRetries {
		t.Fatalf("shed retries = %d, want %d", retries, maxShedRetries)
	}
	// Each retry waits hint + jitter with jitter in [0, hint/8]; with the
	// queue empty the hint is the shard's base (250ms), so the total for
	// maxShedRetries waits is bounded both ways.
	hint := 250 * time.Millisecond
	lo := time.Duration(maxShedRetries) * hint
	hi := time.Duration(maxShedRetries) * (hint + hint/8)
	if waited < lo || waited > hi {
		t.Fatalf("total shed wait %v outside [%v, %v]", waited, lo, hi)
	}

	// Deterministic: the same jitter seed reproduces the schedule exactly;
	// a different seed still lands in the hint window.
	again, _ := run(7)
	if again != waited {
		t.Fatalf("same seed waited %v then %v; jitter must be deterministic", waited, again)
	}
	other, _ := run(8)
	if other < lo || other > hi {
		t.Fatalf("seed 8 waited %v outside [%v, %v]", other, lo, hi)
	}

	// A free shard admits immediately: no retries, no virtual wait.
	svc := NewServiceWith(ServiceConfig{Shards: 2, Capacity: 1, QueueLimit: -1})
	key := svc.cacheKeyFor(MaliG71MP8, MNIST()).Hash()
	compat, err := mali.Compatible(MaliG71MP8)
	if err != nil {
		t.Fatal(err)
	}
	clock := timesim.NewClock()
	vm, err := svc.acquireVMShedAware(context.Background(), clock, nil, 7, key,
		"free-client", compat, []byte("shed-test-nonce!"))
	if err != nil {
		t.Fatalf("free shard: %v", err)
	}
	defer svc.releaseVM(vm)
	if clock.Now() != 0 {
		t.Fatalf("free shard advanced the clock by %v", clock.Now())
	}
}

// TestSpecWarmStartExchange checks the fleet-shared speculation warm start:
// a cold service seeded from a peer's validated-commit export speculates
// strictly more on its first session than an unseeded cold service, and a
// second import of the same snapshot seeds nothing (local truth outranks
// imports, so the exchange is idempotent and order-independent).
func TestSpecWarmStartExchange(t *testing.T) {
	model := MNIST()
	donor := NewService()
	for i := 0; i < 2; i++ {
		if _, _, err := NewClient("warm-donor", MaliG71MP8).Record(donor, model, RecordOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	snap := donor.ExportSpecHistory()
	if snap.Keys() == 0 {
		t.Fatal("donor exported no histories after two sessions")
	}

	cold := NewService()
	_, coldStats, err := NewClient("warm-cold", MaliG71MP8).Record(cold, model, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}

	warm := NewService()
	seeded := warm.ImportSpecHistory(snap)
	if seeded == 0 {
		t.Fatal("import seeded no signatures")
	}
	_, warmStats, err := NewClient("warm-warm", MaliG71MP8).Record(warm, model, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}

	coldRate := float64(coldStats.Shim.AsyncCommits) / float64(coldStats.Shim.Commits)
	warmRate := float64(warmStats.Shim.AsyncCommits) / float64(warmStats.Shim.Commits)
	t.Logf("cold hit rate %.3f (%d/%d), warm %.3f (%d/%d), %d sigs seeded",
		coldRate, coldStats.Shim.AsyncCommits, coldStats.Shim.Commits,
		warmRate, warmStats.Shim.AsyncCommits, warmStats.Shim.Commits, seeded)
	if warmRate <= coldRate {
		t.Fatalf("warm-start hit rate %.3f does not beat cold %.3f", warmRate, coldRate)
	}

	if again := warm.ImportSpecHistory(snap); again != 0 {
		t.Fatalf("second import of the same snapshot seeded %d signatures, want 0", again)
	}

	// Warm starting must not perturb recording content: the warm session's
	// payload matches the cold one's (speculation hides latency, never
	// changes what is recorded).
	if coldStats.Jobs != warmStats.Jobs || coldStats.Shim.Commits != warmStats.Shim.Commits {
		t.Fatalf("warm session shape differs: %d/%d jobs, %d/%d commits",
			warmStats.Jobs, coldStats.Jobs, warmStats.Shim.Commits, coldStats.Shim.Commits)
	}
	if warmStats.RecordingDelay >= coldStats.RecordingDelay {
		t.Errorf("warm session (%v) not faster than cold (%v)",
			warmStats.RecordingDelay, coldStats.RecordingDelay)
	}
}
