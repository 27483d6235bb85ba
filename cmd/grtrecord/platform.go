package main

import (
	"context"
	"fmt"
	"io"

	"gpurelay"
	"gpurelay/internal/platform"
	"gpurelay/internal/record"
)

// platformOpts is the engine-hosted recording configuration: -gpus sessions
// built by the platform builder, run on the -engine discrete-event engine.
type platformOpts struct {
	engine  string // "serial" | "parallel"
	gpus    int
	seed    uint64
	model   *gpurelay.Model
	sku     *gpurelay.SKU
	network gpurelay.Network
	variant gpurelay.Variant
	out     string
}

// runPlatform records opts.gpus sessions, one GPU each, on one discrete-event
// engine, and writes the per-GPU recordings as one bundle. For one GPU the
// bundle is wire-identical to the classic grtrecord layout; for N it is the
// "GRTP" container grtreplay replays per GPU. Session keys are derived from
// -seed (deterministically, so a rerun re-creates the identical bundle); as
// with the classic path, bundling keys is a demo-CLI convenience only.
func runPlatform(opts platformOpts) error {
	b := platform.NewBuilder().WithNumGPU(opts.gpus)
	if opts.engine == "parallel" {
		b = b.WithParallelEngine()
	} else {
		b = b.WithSerialEngine()
	}
	p := b.Build()

	cfgs := make([]record.Config, opts.gpus)
	for i := range cfgs {
		cfgs[i] = record.Config{
			Variant: opts.variant, Model: opts.model, SKU: opts.sku,
			Network:               opts.network,
			SessionKey:            platform.SessionKey(opts.seed, i),
			ClientSeed:            opts.seed*1_000_003 + uint64(i)*7 + 1,
			InjectMispredictionAt: -1,
			SessionID:             fmt.Sprintf("gpu-%02d", i),
		}
	}
	fmt.Printf("recording %s on %d× %s over %s with %v (%s engine)...\n",
		opts.model.Name, opts.gpus, opts.sku.Name, opts.network.Name, opts.variant, opts.engine)
	results, err := p.RecordAll(context.Background(), cfgs)
	if err != nil {
		return err
	}
	for i, res := range results {
		fmt.Printf("gpu %2d: %.1f s recording delay (virtual), %d GPU jobs, %.2f MB memory sync\n",
			i, res.Stats.RecordingDelay.Seconds(), res.Stats.Jobs,
			float64(res.Stats.MemSyncBytes)/1e6)
	}
	fmt.Printf("engine: %d events over %.1f s of virtual time\n",
		p.Engine().Events(), p.Engine().Now().Seconds())

	if opts.out == "" {
		return nil
	}
	entries := make([]platform.Entry, len(results))
	for i, res := range results {
		entries[i] = platform.Entry{
			Payload: res.Signed.Payload,
			MAC:     res.Signed.MAC[:],
			Key:     platform.SessionKey(opts.seed, i),
		}
	}
	if err := writeFile(opts.out, func(w io.Writer) error { return platform.WriteBundle(w, entries) }); err != nil {
		return err
	}
	fmt.Printf("wrote %d-GPU recording bundle to %s\n", len(entries), opts.out)
	return nil
}
