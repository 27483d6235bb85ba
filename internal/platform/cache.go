// The cache mode's admission front: the target benchmark of the
// content-addressed recording store. Clients request workloads against a
// cache-first, sharded admission path on the drill's timeline — cache hit →
// served instantly with zero VM time and no queue slot; miss → exactly one
// leader records per workload while followers coalesce; leader overflow →
// per-shard FIFO queue on the virtual clock; queue overflow → shed. It is
// the proof for the ROADMAP's record-amplification → 1.0 target at 10k
// clients / 100 workloads.
package platform

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"gpurelay/internal/audit"
	"gpurelay/internal/castore"
	"gpurelay/internal/cloud"
	"gpurelay/internal/obs"
	"gpurelay/internal/record"
	"gpurelay/internal/timesim"
)

// CacheStats reports a cache-mode drill's admissions.
type CacheStats struct {
	Clients int `json:"clients"`
	Shards  int `json:"shards"`
	// Hits counts admissions served from the store (zero VM time, no
	// queue slot). Misses counts store misses — leaders plus followers.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Coalesced counts admissions that waited on another's in-flight
	// record instead of recording themselves.
	Coalesced int64 `json:"coalesced"`
	// Shed counts admissions rejected because their shard's pool and
	// leader queue were both full.
	Shed int64 `json:"shed"`
	// Records counts record sessions actually run — the amplification
	// numerator.
	Records int64 `json:"records"`
	// CacheHitRate is Hits over all store lookups.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// RecordAmplification is Records per unique workload admitted to the
	// store (the ROADMAP's → 1.0 target).
	RecordAmplification float64 `json:"record_amplification"`
	// P99AdmissionWait is the nearest-rank p99 of leader admission waits
	// on the virtual clock. Cache hits never wait — they are excluded by
	// construction, not by filtering.
	P99AdmissionWait time.Duration `json:"p99_admission_wait_ns"`
	// MaxShardQueue is the deepest any shard's leader queue got.
	MaxShardQueue int `json:"max_shard_queue"`

	// Store and Service expose the drill's cache and sharded admission
	// layers for inspection.
	Store   *castore.Store        `json:"-"`
	Service *cloud.ShardedService `json:"-"`
}

// queuedLeader is one leader waiting for a shard slot on the virtual clock.
type queuedLeader struct {
	w        int
	client   int
	enqueued time.Duration
}

// cacheFront is the cache mode's admission state.
type cacheFront struct {
	*CacheStats
	d     *drill
	ckeys []castore.Key
	khash [][32]byte

	free     []int
	queued   [][]queuedLeader
	labels   []obs.Label
	inflight []bool
	pending  []int64 // followers awaiting each workload's publication
	waits    []time.Duration
	served   int64
}

// startCache builds the front and schedules every client's arrival.
func (d *drill) startCache() error {
	o := d.opts
	store, err := castore.New(castore.Config{
		MaxEntries: 2 * o.Sessions,
		MaxBytes:   1 << 40, // the drill bounds by entries; never evict by bytes
	})
	if err != nil {
		return err
	}
	store.SetQuarantine(audit.New(0))
	sharded := cloud.NewShardedService(d.img, cloud.ShardedConfig{
		Shards: o.Shards,
		Shard:  cloud.SessionConfig{Capacity: o.ShardCapacity},
	})
	c := &cacheFront{
		CacheStats: &CacheStats{Clients: o.Clients, Shards: o.Shards, Store: store, Service: sharded},
		d:          d,
		free:       make([]int, o.Shards),
		queued:     make([][]queuedLeader, o.Shards),
		inflight:   make([]bool, o.Sessions),
		pending:    make([]int64, o.Sessions),
	}
	d.cache, d.res.Cache = c, c.CacheStats
	store.Instrument(d.reg)
	sharded.Instrument(d.reg)
	sharded.InstrumentFlight(d.flight)
	sharded.SetTimeSource(o.Engine)
	for i := range c.free {
		c.free[i] = o.ShardCapacity
		c.labels = append(c.labels, obs.L("shard", strconv.Itoa(i)))
	}
	for _, m := range d.models {
		ck := castore.KeyForModel(o.SKU.Name, d.img.Stack, m)
		c.ckeys = append(c.ckeys, ck)
		c.khash = append(c.khash, ck.Hash())
	}
	for i := 0; i < o.Clients; i++ {
		o.Engine.Schedule(&timesim.FuncEvent{
			At: drillArrivalGap * time.Duration(i+1),
			K:  uint64(i),
			Fn: func() error { return c.arrive(i) },
		})
	}
	return nil
}

// finish derives the rates once the engine has drained.
func (c *cacheFront) finish() error {
	if c.served != c.Coalesced {
		return fmt.Errorf("platform: %d coalesced admissions but %d served", c.Coalesced, c.served)
	}
	if lookups := c.Hits + c.Misses; lookups > 0 {
		c.CacheHitRate = float64(c.Hits) / float64(lookups)
	}
	if keys := c.Store.KeysSeen(); keys > 0 {
		c.RecordAmplification = float64(c.Records) / float64(keys)
	}
	c.P99AdmissionWait = quantileWait(c.waits, 0.99)
	return nil
}

// quantileWait is the nearest-rank quantile of the exact wait samples —
// unlike the registry histogram this is not bucketed, so the drill artifact
// carries the precise virtual duration.
func quantileWait(waits []time.Duration, q float64) time.Duration {
	if len(waits) == 0 {
		return 0
	}
	ws := slices.Clone(waits)
	slices.Sort(ws)
	return ws[min(max(int(float64(len(ws))*q+0.9999999)-1, 0), len(ws)-1)]
}

// arrive handles one client's admission at its virtual arrival time.
func (c *cacheFront) arrive(client int) error {
	w := client % len(c.ckeys)
	now := c.d.opts.Engine.Now()
	id := fmt.Sprintf("client-%05d", client)
	if _, ok := c.Store.Get(c.ckeys[w]); ok {
		// Cache hit: served sealed bytes, zero VM time, no queue slot.
		c.Hits++
		c.d.flight.Emit(now, id, obs.FKCacheHit, c.ckeys[w].Workload)
		return nil
	}
	c.Misses++
	c.d.flight.Emit(now, id, obs.FKCacheMiss, c.ckeys[w].Workload)
	if c.inflight[w] {
		// Coalesce onto the in-flight leader; served at publication.
		c.Coalesced++
		c.pending[w]++
		c.d.reg.Add(obs.MCacheCoalesced, 1)
		c.d.flight.Emit(now, id, obs.FKCacheCoalesce, c.ckeys[w].Workload)
		return nil
	}
	// This client leads the workload's record.
	c.inflight[w] = true
	shard := c.Service.Shard(c.khash[w])
	switch {
	case c.free[shard] > 0:
		c.free[shard]--
		return c.startLeader(w, shard, client, 0)
	case len(c.queued[shard]) < c.d.opts.ShardQueueLimit:
		c.queued[shard] = append(c.queued[shard], queuedLeader{w: w, client: client, enqueued: now})
		if len(c.queued[shard]) > c.MaxShardQueue {
			c.MaxShardQueue = len(c.queued[shard])
		}
		return nil
	default:
		// Pool and queue full: shed. The workload loses its leader; the
		// next miss for it leads a fresh attempt.
		c.inflight[w] = false
		c.Shed++
		c.d.reg.Add(obs.MShardShed, 1, c.labels[shard])
		c.d.flight.Emit(now, id, obs.FKShardShed, c.ckeys[w].Workload, obs.A("shard", int64(shard)))
		return nil
	}
}

// startLeader launches workload w's record session on shard's pool through
// the drill's session runner. The front's slot accounting mirrors the
// shard managers' exactly, so the Acquire always takes the immediate
// (non-blocking) path — a channel wait inside an engine process would
// stall the timeline.
func (c *cacheFront) startLeader(w, shard, client int, waited time.Duration) error {
	c.waits = append(c.waits, waited)
	vm, err := c.d.acquire(w, fmt.Sprintf("client-%05d", client))
	if err != nil {
		return fmt.Errorf("platform: shard %d leader for workload %d: %w", shard, w, err)
	}
	c.d.vms[w] = vm
	c.d.goSession(w, uint64(1_000_000+w), func(res *record.Result) error {
		c.Records++
		if err := c.Store.Put(&castore.Entry{
			Key:        c.ckeys[w],
			Payload:    res.Signed.Payload,
			MAC:        res.Signed.MAC,
			SessionKey: SessionKey(c.d.opts.Seed, w),
			ProductID:  res.Recording.ProductID,
		}); err != nil {
			return fmt.Errorf("platform: publishing workload %d: %w", w, err)
		}
		// Publication serves every coalesced follower the sealed bytes.
		c.served += c.pending[w]
		c.pending[w] = 0
		c.inflight[w] = false
		c.Service.Release(vm)
		c.d.vms[w] = nil
		return c.grantSlot(shard)
	})
	return nil
}

// grantSlot hands a freed shard slot to the oldest queued leader, FIFO, or
// returns it to the free pool.
func (c *cacheFront) grantSlot(shard int) error {
	if len(c.queued[shard]) == 0 {
		c.free[shard]++
		return nil
	}
	head := c.queued[shard][0]
	c.queued[shard] = c.queued[shard][1:]
	return c.startLeader(head.w, shard, head.client, c.d.opts.Engine.Now()-head.enqueued)
}
