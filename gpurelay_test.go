package gpurelay

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestPublicAPIRecordReplayFlow(t *testing.T) {
	client := NewClient("phone-1", MaliG71MP8)
	svc := NewService()
	rec, stats, err := client.Record(svc, MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workload != "MNIST" {
		t.Fatalf("workload %q", rec.Workload)
	}
	if stats.Jobs != 23 || stats.RecordingDelay <= 0 {
		t.Fatalf("stats: %+v", stats)
	}

	sess, err := client.NewReplaySession(rec)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float32, 28*28)
	for i := range in {
		in[i] = float32(i % 17)
	}
	if err := sess.SetInput(in); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay <= 0 {
		t.Fatalf("replay result: %+v", res)
	}
	out, err := sess.Output()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("output sums to %v", sum)
	}
}

func TestPublicAPIWeightInjection(t *testing.T) {
	client := NewClient("phone-2", MaliG71MP8)
	svc := NewService()
	rec, _, err := client.Record(svc, MNIST(), RecordOptions{Variant: OursMDS})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewReplaySession(rec)
	if err != nil {
		t.Fatal(err)
	}
	regions := sess.WeightRegions()
	if len(regions) == 0 {
		t.Fatal("no weight regions listed")
	}
	// Baseline: all-zero parameters yield the degenerate uniform softmax.
	in := make([]float32, 28*28)
	for i := range in {
		in[i] = 1
	}
	if err := sess.SetInput(in); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	zeroOut, _ := sess.Output()

	// Inject real parameters into every region: the TEE-held model.
	for _, r := range regions {
		w := make([]float32, r.Elems)
		for i := range w {
			w[i] = 0.01 * float32(i%13-6)
		}
		if err := sess.SetWeights(r.Name, w); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	out, _ := sess.Output()
	same := true
	for i := range out {
		if out[i] != zeroOut[i] {
			same = false
		}
	}
	if same {
		t.Fatal("injected weights had no effect on replay output")
	}
}

func TestPublicAPIVariantsAndNetworks(t *testing.T) {
	client := NewClient("phone-3", MaliG71MP8)
	svc := NewService()
	_, wifi, err := client.Record(svc, MNIST(), RecordOptions{Variant: OursMD, Network: WiFi})
	if err != nil {
		t.Fatal(err)
	}
	_, cell, err := client.Record(svc, MNIST(), RecordOptions{Variant: OursMD, Network: Cellular})
	if err != nil {
		t.Fatal(err)
	}
	if cell.RecordingDelay <= wifi.RecordingDelay {
		t.Fatalf("cellular %v not slower than wifi %v", cell.RecordingDelay, wifi.RecordingDelay)
	}
}

func TestPublicAPISharedHistory(t *testing.T) {
	client := NewClient("phone-4", MaliG71MP8)
	svc := NewService()
	hist := NewSpeculationHistory()
	_, cold, err := client.Record(svc, MNIST(), RecordOptions{History: hist})
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := client.Record(svc, MNIST(), RecordOptions{History: hist})
	if err != nil {
		t.Fatal(err)
	}
	if warm.RecordingDelay >= cold.RecordingDelay {
		t.Fatalf("warm history (%v) not faster than cold (%v)", warm.RecordingDelay, cold.RecordingDelay)
	}
	if warm.Shim.AsyncCommits <= cold.Shim.AsyncCommits {
		t.Fatal("warm history did not increase speculation")
	}
}

func TestPublicAPICrossSKURejected(t *testing.T) {
	g71 := NewClient("phone-5", MaliG71MP8)
	svc := NewService()
	rec, _, err := g71.Record(svc, MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g52 := NewClient("phone-6", MaliG52MP2)
	if _, err := g52.NewReplaySession(rec); err == nil {
		t.Fatal("G71 recording accepted on a G52 device")
	}
}

func TestPublicAPIClockAdvances(t *testing.T) {
	client := NewClient("phone-7", MaliG71MP8)
	svc := NewService()
	if _, _, err := client.Record(svc, MNIST(), RecordOptions{}); err != nil {
		t.Fatal(err)
	}
	if client.Elapsed() <= 0 {
		t.Fatal("client clock did not advance across the recording")
	}
}

func TestSealUnsealRecording(t *testing.T) {
	client := NewClient("seal-phone", MaliG71MP8)
	svc := NewService()
	rec, _, err := client.Record(svc, MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := client.SealRecording(rec)
	if err != nil {
		t.Fatal(err)
	}
	// The sealed blob unseals only on this device, under the right label.
	got, err := client.UnsealRecording("MNIST", blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "MNIST" || got.ProductID != rec.ProductID {
		t.Fatalf("unsealed header: %+v", got)
	}
	// And the unsealed recording replays.
	sess, err := client.NewReplaySession(got)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetInput(make([]float32, 28*28)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	// Wrong label fails.
	if _, err := client.UnsealRecording("VGG16", blob); err == nil {
		t.Fatal("unsealed under wrong workload label")
	}
	// A different device fails.
	other := NewClient("other-phone", MaliG71MP8)
	if _, err := other.UnsealRecording("MNIST", blob); err == nil {
		t.Fatal("sealed blob unsealed on another device")
	}
}

// TestAttestationRejectsUnexpectedImage boots a cloud image other than the
// one the client expects (the service's image copy carries a changed Stack,
// so the expected measurement no longer matches the booted VM's). Every
// record entry point must refuse the VM with ErrAttestation and release it,
// on an unsharded and a sharded service alike.
func TestAttestationRejectsUnexpectedImage(t *testing.T) {
	entryPoints := []struct {
		name   string
		record func(*Client, *Service) error
	}{
		{"Record", func(c *Client, svc *Service) error {
			_, _, err := c.Record(svc, MNIST(), RecordOptions{})
			return err
		}},
		{"RecordSegmented", func(c *Client, svc *Service) error {
			_, _, err := c.RecordSegmented(svc, MNIST(), RecordOptions{})
			return err
		}},
		{"RecordCached", func(c *Client, svc *Service) error {
			_, _, _, err := c.RecordCached(svc, MNIST(), RecordOptions{})
			return err
		}},
		{"RecordResumable", func(c *Client, svc *Service) error {
			_, _, err := c.RecordResumable(context.Background(), svc, MNIST(), ResilienceOptions{})
			return err
		}},
	}
	for _, shards := range []int{1, 2} {
		for _, ep := range entryPoints {
			t.Run(fmt.Sprintf("%s/shards=%d", ep.name, shards), func(t *testing.T) {
				svc := NewServiceWith(ServiceConfig{Shards: shards})
				img := *svc.image
				img.Stack += "+unexpected"
				svc.image = &img
				err := ep.record(NewClient("attest", MaliG71MP8), svc)
				if !errors.Is(err, ErrAttestation) {
					t.Fatalf("err %v, want ErrAttestation", err)
				}
				if n := svc.ActiveVMs(); n != 0 {
					t.Fatalf("%d VMs left active after the attestation failure", n)
				}
			})
		}
	}
}
