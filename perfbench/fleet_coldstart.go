package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"gpurelay"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
)

const (
	// fleetCallers is the closed loop's caller count (= nproc of the
	// reference box).
	fleetCallers = 2
	// fleetCacheEntries bounds the store's memory tier below the 14-key
	// space, so the LRU evicts.
	fleetCacheEntries = 8
	// fleetZipf is the exponent of the key popularity distribution.
	fleetZipf = 1.1
	// fleetWarmup is the number of untimed ops each caller runs in set-up
	// to fill the cache and the process's lazy state.
	fleetWarmup = 100
	// fleetWindow is the per-caller virtual window: the first 300 timed
	// ops of each caller's seeded key stream.
	fleetWindow = 300
	// fleetBlock is the length of one block of a caller's key stream. Each
	// block holds every key in proportion to its Zipf popularity, in seeded
	// order, so the key mix of a window does not drift with the seed.
	fleetBlock = 200
	// fleetBlockSteps is the number of lockstep steps per throughput block.
	fleetBlockSteps = 50
)

// fleetSKUs is the seven-SKU catalog in a fixed order; caller c owns the
// SKUs at indices i with i%fleetCallers == c.
var fleetSKUs = []*gpurelay.SKU{
	mali.G71MP8, mali.G72MP12, mali.G52MP2, mali.G76MP10, mali.G31MP2, mali.G51MP4, mali.G77MP11,
}

// fleetKey is one cache key, a SKU × model pair, with its Zipf weight.
type fleetKey struct {
	client *gpurelay.Client
	model  *gpurelay.Model
	weight float64
}

// fleetColdstart is the cache-first cold start of a device fleet: callers
// each own clients on disjoint SKUs and repeatedly ask one sharded Service
// for a verified recording (RecordCached) and open a replay session on it.
type fleetColdstart struct {
	svc     *gpurelay.Service
	callers []*fleetCaller
	// tamper, when set, alters each returned bundle's payload before the
	// check; the self-test uses it to prove the check can fail.
	tamper func([]byte) []byte
}

// fleetCaller is one closed-loop caller. Within a step only its own
// goroutine touches it.
type fleetCaller struct {
	keys   []*fleetKey
	block  []int // this block's key indices, consumed from the front
	rng    *rand.Rand
	ops    int
	window []int // key index of each virtual-window op
	// bundles holds the first bundle returned per key; cold holds the
	// stats of each key's first (cold-history) recording.
	bundles map[int][3][]byte
	cold    map[int]gpurelay.RecordStats
}

func setupFleetColdstart(seed int64) (instance, error) {
	w := &fleetColdstart{svc: gpurelay.NewServiceWith(gpurelay.ServiceConfig{
		Shards:       2,
		CacheEntries: fleetCacheEntries,
	})}
	models := []*gpurelay.Model{mlfw.Micro(), gpurelay.MNIST()}
	for c := 0; c < fleetCallers; c++ {
		w.callers = append(w.callers, &fleetCaller{
			rng:     rand.New(rand.NewSource(seed*fleetCallers + int64(c))),
			bundles: map[int][3][]byte{},
			cold:    map[int]gpurelay.RecordStats{},
		})
	}
	// Popularity ranks interleave SKUs and models, so both callers serve
	// popular and rare keys.
	rank := 0
	for m, model := range models {
		for i, sku := range fleetSKUs {
			c := w.callers[i%fleetCallers]
			k := &fleetKey{
				client: gpurelay.NewClient(fmt.Sprintf("bench-fleet-%s-%d", sku.Name, m), sku),
				model:  model,
				weight: 1 / math.Pow(float64(rank+1), fleetZipf),
			}
			rank++
			c.keys = append(c.keys, k)
		}
	}
	log := w.run(func(step int) bool { return step < fleetWarmup }, nil)
	if log.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %v", log.failed, log.attempted, log.errs)
	}
	for _, c := range w.callers {
		c.ops, c.window = 0, nil
	}
	return w, nil
}

func (w *fleetColdstart) measure(d time.Duration, tr *tracer) *opLog {
	endService := tr.serviceWindow(w.svc)
	start := time.Now()
	log := w.run(func(step int) bool { return time.Since(start) < d || step < fleetWindow }, tr)
	endService()
	return log
}

// run drives the callers in lockstep until more reports false: in each
// step every caller runs one op, concurrently with the others, and the
// step ends when all have finished. Lockstep makes the store see the same
// access order on every run of a seed; free-running callers let one
// caller's hits crowd the other's keys out of the LRU while it records,
// and the miss rate then swings several-fold between runs.
func (w *fleetColdstart) run(more func(step int) bool, tr *tracer) *opLog {
	start := time.Now()
	logs := make([]*opLog, len(w.callers))
	for i := range logs {
		logs[i] = newOpLog(start, fleetBlockSteps)
	}
	for step := 0; more(step); step++ {
		var wg sync.WaitGroup
		for i, c := range w.callers {
			wg.Add(1)
			go func(c *fleetCaller, log *opLog) {
				defer wg.Done()
				k := c.next()
				t0 := time.Now()
				err := w.op(c, k, tr)
				log.done(time.Since(t0), err)
				if c.ops < fleetWindow {
					c.window = append(c.window, k)
				}
				c.ops++
			}(c, logs[i])
		}
		wg.Wait()
	}
	return merge(logs, time.Since(start))
}

// next returns the caller's next key, refilling the block when it runs out:
// every key appears in proportion to its popularity (at least once), in
// seeded order.
func (c *fleetCaller) next() int {
	if len(c.block) == 0 {
		total := 0.0
		for _, k := range c.keys {
			total += k.weight
		}
		for i, k := range c.keys {
			n := max(1, int(math.Round(fleetBlock*k.weight/total)))
			for j := 0; j < n; j++ {
				c.block = append(c.block, i)
			}
		}
		c.rng.Shuffle(len(c.block), func(i, j int) { c.block[i], c.block[j] = c.block[j], c.block[i] })
	}
	i := c.block[0]
	c.block = c.block[1:]
	return i
}

// op is one cold start: fetch a verified recording cache-first and open a
// ready-to-run replay session on it. The check requires the session to
// open and every bundle returned for a key to be byte-identical.
func (w *fleetColdstart) op(c *fleetCaller, i int, tr *tracer) error {
	k := c.keys[i]
	t0 := time.Now()
	rec, outcome, st, err := k.client.RecordCached(w.svc, k.model, gpurelay.RecordOptions{Obs: tr.scope(k.model.Name)})
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("%s/%s: record cached: %w", k.client.SKU.Name, k.model.Name, err)
	}
	_, err = k.client.NewReplaySession(rec)
	t2 := time.Now()
	if outcome == gpurelay.CacheHit {
		tr.span("cache_hit", t1.Sub(t0))
	} else {
		tr.span("cache_miss", t1.Sub(t0))
	}
	tr.span("open", t2.Sub(t1))
	if err != nil {
		return fmt.Errorf("%s/%s: open replay session: %w", k.client.SKU.Name, k.model.Name, err)
	}
	if outcome == gpurelay.CacheRecorded {
		tr.recorded(st)
		if _, ok := c.cold[i]; !ok {
			c.cold[i] = st
		}
	}
	payload, mac, key := rec.Bundle()
	if w.tamper != nil {
		payload = w.tamper(payload)
	}
	first, ok := c.bundles[i]
	if !ok {
		c.bundles[i] = [3][]byte{payload, mac, key}
		return nil
	}
	if !bytes.Equal(first[0], payload) || !bytes.Equal(first[1], mac) || !bytes.Equal(first[2], key) {
		return fmt.Errorf("%s/%s: bundle differs from the first one returned for its key", k.client.SKU.Name, k.model.Name)
	}
	return nil
}

// virtual charges each window op the costs of its key's first recording
// (recorded with a cold speculation history, so fixed per key) and one
// replay from the key's current recording.
func (w *fleetColdstart) virtual() (virtualMetrics, int, error) {
	var ch charge
	failed := 0
	for _, c := range w.callers {
		replays := map[int]time.Duration{}
		for _, i := range c.window {
			st, ok := c.cold[i]
			if !ok {
				continue // the op's own record failed, and counted
			}
			if _, ok := replays[i]; !ok {
				k := c.keys[i]
				rec, _, _, err := k.client.RecordCached(w.svc, k.model, gpurelay.RecordOptions{})
				if err == nil {
					replays[i], err = replayDelay(k.client, rec)
				}
				if err != nil {
					failed++
					continue
				}
			}
			ch.add(st, replays[i])
		}
	}
	vm, err := ch.metrics()
	return vm, failed, err
}
