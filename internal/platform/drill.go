// The drill: GR-T's evaluation (§7) as one experiment run at fleet scale —
// N record sessions of one model on one SKU, sharing one discrete-event
// engine, each signed with a key derived from one seed. Every mode (plain,
// cache-first, degraded) derives its sessions, runs them, instruments them
// and assembles its result through the same code; only the cache mode's
// arrival handlers (cache.go) are mode-specific.
package platform

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"gpurelay/internal/cloud"
	"gpurelay/internal/faultsim"
	"gpurelay/internal/gpumem"
	"gpurelay/internal/grterr"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/obs"
	"gpurelay/internal/record"
	"gpurelay/internal/shim"
	"gpurelay/internal/timesim"
)

// DrillOptions configures a drill. The inputs pick the mode; there is no
// mode flag:
//
//   - Clients > 0 puts a cache-first, sharded admission front on Sessions
//     distinct workloads (renamed copies of Model, recorded over loopback):
//     client i requests workload i mod Sessions, 50µs after client i−1; a
//     cache hit is served with zero VM time, one leader records per
//     workload while followers coalesce, and leader overflow queues per
//     shard on the virtual clock or sheds.
//   - HealthPlan != nil afflicts every FaultEvery-th session with device
//     faults over WiFi (the link the plans' fault instants are tuned to). A
//     lost session is re-admitted on a different GPU — the failed one is
//     marked degraded or dead — and resumes from its last checkpoint, up
//     to three times. The drill self-witnesses against a plan-free
//     baseline on the same link.
//   - Otherwise every session is admitted up front and records once over
//     loopback: the drill measures scheduling, not the network.
type DrillOptions struct {
	// Model and SKU describe every session's workload; both required.
	Model *mlfw.Model
	SKU   *mali.SKU
	// Seed derives every session's key and client seed. Identical seeds
	// give byte-identical drills — on either engine, at any GOMAXPROCS.
	Seed uint64
	// Sessions is the number of record sessions, or of distinct workloads
	// in cache mode (0 → 16; 100 in cache mode).
	Sessions int
	// Engine runs the drill (nil → a fresh serial engine). On a parallel
	// engine, sessions' same-timestamp events run on all host cores and
	// the seals stay byte-identical to a serial drill's. Cache and health
	// modes reject a parallel engine: their handlers share state, and
	// same-timestamp handlers mutating it would be nondeterministic.
	Engine timesim.Engine
	// Instrument attaches per-session telemetry scopes, a shared flight
	// recorder and an engine execution trace (for Chrome trace export).
	// Instrumentation only ever reads the timeline, so an instrumented
	// drill's seals are byte-identical to a bare one's.
	Instrument bool
	// Compact drops each session's record.Result (sealed payload + parsed
	// event stream) once its seal is captured, so DrillResult.Results
	// stays nil. Thousand-session drills need this: the per-session
	// results, not the live sessions, dominate a big drill's memory.
	Compact bool
	// WarmStart pre-seeds each session's speculation history from a fleet
	// peer's validated-commit export (shim.HistoryStore.Export) for its
	// (SKU, stack, workload). Every session gets its own private copy —
	// concurrent sessions sharing a live History would make its mutation
	// order depend on the schedule — so the seeded state is a pure
	// function of the snapshot and seals stay deterministic.
	WarmStart map[shim.HistoryKey]map[string]shim.Outcome

	// HealthPlan is the device-health fault schedule; each afflicted
	// session gets its own seed-jittered faultsim.Session. It must
	// schedule at least one device-health fault.
	HealthPlan *faultsim.Plan
	// FaultEvery afflicts every k-th session (0 → 4; 1 afflicts all).
	FaultEvery int

	// Clients is the number of cache-mode arrivals; > 0 selects the mode.
	Clients int
	// Shards is the cache mode's admission partition count (0 → 4).
	Shards int
	// ShardCapacity is each shard's VM pool size (0 → 16).
	ShardCapacity int
	// ShardQueueLimit bounds each shard's leader queue (0 →
	// 4×ShardCapacity; negative → no queueing, overflow sheds instantly).
	ShardQueueLimit int
}

// Fixed drill parameters: no caller varies them.
const (
	// drillMaxResumes bounds a health-mode session's migrations.
	drillMaxResumes = 3
	// drillArrivalGap spaces cache-mode client arrivals.
	drillArrivalGap = 50 * time.Microsecond
)

// OptionError rejects inconsistent DrillOptions before anything runs.
// Reason is a stable token (e.g. "sessions_exceed_clients") that CLIs
// report machine-readably.
type OptionError struct {
	Reason string
	Detail string
}

func (e *OptionError) Error() string { return "platform: drill options: " + e.Detail }

// resolve validates o, fills its defaults, and returns the SKU's devicetree
// compatible string.
func (o DrillOptions) resolve() (DrillOptions, string, error) {
	reject := func(reason, format string, args ...any) (DrillOptions, string, error) {
		return o, "", &OptionError{Reason: reason, Detail: fmt.Sprintf(format, args...)}
	}
	if o.Model == nil || o.SKU == nil {
		return reject("needs_model", "a drill needs a model and a SKU")
	}
	compat, err := mali.Compatible(o.SKU)
	if err != nil {
		return reject("bad_sku", "%v", err)
	}
	_, serial := o.Engine.(*timesim.SerialEngine)
	cacheOpts := o.Shards != 0 || o.ShardCapacity != 0 || o.ShardQueueLimit != 0
	switch {
	case o.Sessions < 0 || o.Clients < 0 || o.FaultEvery < 0:
		return reject("bad_sessions", "negative sessions (%d), clients (%d) or fault stride (%d)",
			o.Sessions, o.Clients, o.FaultEvery)
	case o.Shards < 0 || o.ShardCapacity < 0:
		return reject("bad_shards", "%d shards of capacity %d", o.Shards, o.ShardCapacity)
	case o.Clients == 0 && cacheOpts:
		return reject("needs_clients", "shard options configure the cache mode, which needs clients")
	case o.HealthPlan == nil && o.FaultEvery != 0:
		return reject("needs_health_plan", "the fault stride needs a health plan")
	case o.Clients > 0 && o.HealthPlan != nil:
		return reject("shard_conflict", "the health mode admits one session per GPU; it cannot combine with the cache front")
	case o.Engine != nil && !serial && (o.Clients > 0 || o.HealthPlan != nil):
		return reject("engine_conflict", "cache and health handlers share state and need a serial engine")
	case o.HealthPlan != nil && !hasHealthFault(o.HealthPlan):
		return reject("no_health_faults",
			"plan %q schedules no device-health fault (thermal/sbe/dbe/falloff); it cannot degrade a GPU", o.HealthPlan.Name)
	}
	if o.Sessions == 0 {
		o.Sessions = 16
		if o.Clients > 0 {
			o.Sessions = 100
		}
	}
	if o.Clients > 0 && o.Sessions > o.Clients {
		return reject("sessions_exceed_clients", "%d workloads exceed %d clients: every workload needs an arrival",
			o.Sessions, o.Clients)
	}
	if o.Engine == nil {
		o.Engine = timesim.NewSerialEngine()
	}
	o.FaultEvery = cmp.Or(o.FaultEvery, 4)
	o.Shards = cmp.Or(o.Shards, 4)
	o.ShardCapacity = cmp.Or(o.ShardCapacity, 16)
	o.ShardQueueLimit = max(cmp.Or(o.ShardQueueLimit, 4*o.ShardCapacity), 0)
	return o, compat, nil
}

func hasHealthFault(p *faultsim.Plan) bool {
	return slices.ContainsFunc(p.Faults, func(f faultsim.Fault) bool { return f.Kind.Health() })
}

// DrillResult is what a drill reports: the determinism witnesses, the
// timeline, and the mode's own numbers.
type DrillResult struct {
	// Seals are the per-session recording HMACs in session order — the
	// byte-identity witness. In cache mode a workload whose every leader
	// was shed has a zero seal.
	Seals [][32]byte
	// Results are the per-session record results (nil when Compact).
	Results []*record.Result
	// Wall is the host wall-clock duration of the drill's Engine.Run (the
	// health mode's baseline pass excluded).
	Wall time.Duration
	// VirtualTime is the engine's final virtual time.
	VirtualTime time.Duration
	// Events is the number of engine events executed.
	Events int64
	// Batches is the engine's batch-width statistics: MaxWidth is the
	// drill's structural parallelism (how many sessions shared a
	// timestamp), independent of how many cores the host actually had.
	Batches timesim.BatchStats

	// Fleet is the drill-wide metrics registry, attached when instrumented
	// and always in cache and health modes, whose rollups read it. Health
	// is its rollup, with one row per session scope.
	Fleet  *obs.Registry
	Health *cloud.HealthReport
	// Scopes (per session, in session order), Flight (the shared journal)
	// and EngineTrace (every popped event, in deterministic pop order — the
	// input to obs.WriteFleetTrace) are set only when instrumented.
	Scopes      []*obs.Scope
	Flight      *obs.FlightRecorder
	EngineTrace *timesim.EngineTrace

	// Cache is set in cache mode, Faults in health mode.
	Cache  *CacheStats
	Faults *FaultStats
}

// FaultStats is a health drill's verdicts: survival, byte identity, and the
// device registry's scar tissue.
type FaultStats struct {
	// Faulted counts sessions the plan was injected into.
	Faulted int `json:"faulted"`
	// Interrupted counts sessions that lost at least one device.
	Interrupted int `json:"interrupted"`
	// Migrated counts cross-VM migrations fleet-wide.
	Migrated int `json:"migrated"`
	// MigrationSuccessRate is interrupted sessions that finished
	// byte-identical to their baseline over interrupted sessions.
	MigrationSuccessRate float64 `json:"migration_success_rate"`
	// NonIdentical counts sessions whose recording differs from baseline.
	NonIdentical int `json:"non_identical"`
	// PerSession are the per-session verdicts, in session order.
	PerSession []SessionFaults `json:"per_session"`
	// Devices is the fleet device inventory after the drill, including the
	// degraded and dead entries.
	Devices []cloud.DeviceInfo `json:"devices"`
	// BaselineSeals are the plan-free baseline's seals, in session order.
	BaselineSeals [][32]byte `json:"-"`
}

// SessionFaults is one health-drill session's outcome.
type SessionFaults struct {
	Session string `json:"session"`
	// Faulted reports whether the health plan was injected.
	Faulted bool `json:"faulted"`
	// Resumes is how many session losses the session survived.
	Resumes int `json:"resumes"`
	// Migrations is how many times the session moved off a lost device;
	// equal to Resumes when every loss was a device fault.
	Migrations int `json:"migrations"`
	// ByteIdentical reports whether the final (possibly stitched)
	// recording's seal matches the undisturbed baseline's.
	ByteIdentical bool `json:"byte_identical"`
}

// fleetPoolSize sizes one drill session's pool: the model's buffers with
// headroom for metastate and page tables, but without the record path's
// 64 MiB default slack — a 16-session fleet allocates 2 pools per session.
func fleetPoolSize(m *mlfw.Model) uint64 {
	size := m.TotalBytes()*3/2 + (8 << 20)
	return size &^ (gpumem.PageSize - 1)
}

func sessionID(i int) string { return fmt.Sprintf("drill-%04d", i) }

// drill is one drill pass's state. The cache and health modes touch it from
// engine handlers and processes on a serial engine, which serializes every
// access on the virtual timeline — no locks, fully deterministic.
type drill struct {
	ctx      context.Context
	opts     DrillOptions
	network  netsim.Condition
	poolSize uint64
	compat   string
	img      *cloud.Image
	models   []*mlfw.Model
	vms      []*cloud.VM
	mgr      *cloud.SessionManager // plain and health modes
	cache    *cacheFront           // cache mode
	reg      *obs.Registry
	flight   *obs.FlightRecorder
	scopes   []*obs.Scope // per session; nil entries when bare
	res      *DrillResult
}

// Drill runs opts.Sessions record sessions on one engine and reports their
// seals and the mode's numbers. A health-mode session that exhausts its
// resumes fails the drill with an error wrapping the device loss.
func Drill(ctx context.Context, opts DrillOptions) (*DrillResult, error) {
	o, compat, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	network := netsim.Loopback
	if o.HealthPlan != nil {
		network = netsim.WiFi
	}
	d := newDrill(ctx, o, compat, network)
	if o.HealthPlan != nil {
		// The self-witness: recording bytes depend only on (seed, model,
		// SKU, network), so the same sessions with no plan on the same
		// link seal what an undisturbed session i produces.
		base, err := newDrill(ctx, DrillOptions{
			Model: o.Model, SKU: o.SKU, Seed: o.Seed, Sessions: o.Sessions,
			Engine: timesim.NewSerialEngine(), Compact: true,
		}, compat, network).run()
		if err != nil {
			return nil, fmt.Errorf("platform: baseline pass: %w", err)
		}
		d.res.Faults = &FaultStats{
			BaselineSeals: base.Seals,
			PerSession:    make([]SessionFaults, o.Sessions),
		}
	}
	return d.run()
}

func newDrill(ctx context.Context, o DrillOptions, compat string, network netsim.Condition) *drill {
	d := &drill{
		ctx: ctx, opts: o, compat: compat, network: network,
		poolSize: fleetPoolSize(o.Model),
		img:      cloud.DefaultImage(),
		models:   make([]*mlfw.Model, o.Sessions),
		vms:      make([]*cloud.VM, o.Sessions),
		scopes:   make([]*obs.Scope, o.Sessions),
		res:      &DrillResult{Seals: make([][32]byte, o.Sessions)},
	}
	for i := range d.models {
		d.models[i] = o.Model
		if o.Clients > 0 {
			// Same compute, distinct cache keys.
			m := *o.Model
			m.Name = fmt.Sprintf("%s-wl-%03d", o.Model.Name, i)
			d.models[i] = &m
		}
	}
	if !o.Compact {
		d.res.Results = make([]*record.Result, o.Sessions)
	}
	return d
}

func (d *drill) run() (*DrillResult, error) {
	o, res, eng := d.opts, d.res, d.opts.Engine
	if o.Instrument || o.Clients > 0 || o.HealthPlan != nil {
		d.reg = obs.NewRegistry()
	}
	if o.Instrument {
		d.flight = obs.NewFlightRecorder(0)
		res.EngineTrace = timesim.NewEngineTrace(0)
		eng.SetTrace(res.EngineTrace)
		for i := range d.scopes {
			d.scopes[i] = obs.NewScope(sessionID(i), obs.Options{Fleet: d.reg, Flight: d.flight})
		}
		res.Scopes = d.scopes
	}
	if o.Clients > 0 {
		if err := d.startCache(); err != nil {
			return nil, err
		}
	} else {
		// Every VM is acquired before the engine runs: admission is a
		// host-side affair, and a session parked on an admission queue
		// inside the engine would stall the whole timeline.
		d.mgr = cloud.NewSessionManager(cloud.NewService(d.img), cloud.SessionConfig{Capacity: o.Sessions})
		d.mgr.SetTimeSource(eng)
		d.mgr.Instrument(d.reg)
		d.mgr.InstrumentFlight(d.flight)
		defer func() {
			for _, vm := range d.vms {
				d.mgr.Release(vm) // a no-op for a crashed session's nil
			}
		}()
		for i := range d.vms {
			vm, err := d.acquire(i, sessionID(i))
			if err != nil {
				return nil, fmt.Errorf("platform: admitting drill session %d: %w", i, err)
			}
			d.vms[i] = vm
			d.goSession(i, uint64(i), nil)
		}
	}

	wallStart := time.Now()
	if err := eng.Run(); err != nil {
		return nil, err
	}
	res.Wall = time.Since(wallStart)
	res.VirtualTime, res.Events, res.Batches = eng.Now(), eng.Events(), eng.Batches()
	res.Fleet, res.Flight = d.reg, d.flight
	if d.cache != nil {
		if err := d.cache.finish(); err != nil {
			return nil, err
		}
	}
	if fs := res.Faults; fs != nil {
		fs.tally(res.Seals)
		fs.Devices = d.mgr.Devices()
	}
	if d.reg != nil {
		res.Health = cloud.EvaluateHealth(d.reg.Snapshot(), nil, cloud.DefaultHealthThresholds())
		for _, sc := range res.Scopes {
			res.Health.Sessions = append(res.Health.Sessions, cloud.EvaluateSessionHealth(sc.ID(), sc.Snapshot()))
		}
	}
	return res, nil
}

// tally compares every session's seal with its baseline and sums the
// per-session verdicts.
func (fs *FaultStats) tally(seals [][32]byte) {
	recovered := 0
	for i := range fs.PerSession {
		ps := &fs.PerSession[i]
		ps.Session = sessionID(i)
		ps.ByteIdentical = seals[i] == fs.BaselineSeals[i]
		if ps.Faulted {
			fs.Faulted++
		}
		if ps.Resumes > 0 {
			fs.Interrupted++
			if ps.ByteIdentical {
				recovered++
			}
		}
		if !ps.ByteIdentical {
			fs.NonIdentical++
		}
		fs.Migrated += ps.Migrations
	}
	if fs.Interrupted > 0 {
		fs.MigrationSuccessRate = float64(recovered) / float64(fs.Interrupted)
	}
}

// acquire admits session i's VM for client: through its workload's shard in
// cache mode, through the session manager otherwise.
func (d *drill) acquire(i int, client string) (*cloud.VM, error) {
	nonce := SessionKey(d.opts.Seed, i)[:16]
	if d.cache != nil {
		return d.cache.Service.Acquire(d.ctx, d.cache.khash[i], client, d.compat, nonce)
	}
	return d.mgr.Acquire(d.ctx, client, d.img.Name, d.compat, nonce)
}

// goSession launches session i, whose VM is d.vms[i], as an engine process
// with ordering key key. done, when set, runs on the process once the
// session sealed.
func (d *drill) goSession(i int, key uint64, done func(*record.Result) error) {
	warm := d.opts.WarmStart[shim.HistoryKey{
		SKU: d.opts.SKU.Name, Stack: d.img.Stack, Workload: d.models[i].Name,
	}]
	var faults *faultsim.Session
	if fs := d.res.Faults; fs != nil && i%d.opts.FaultEvery == 0 {
		fs.PerSession[i].Faulted = true
		faults = d.opts.HealthPlan.Start(clientSeed(d.opts.Seed, i))
		if sc := d.scopes[i]; sc != nil {
			faults.Instrument(sc, nil) // the scope double-writes into the fleet
		} else {
			faults.Instrument(nil, d.reg)
		}
	}
	d.opts.Engine.Go(key, func(tm timesim.Time) error {
		res, err := d.session(tm, i, warm, faults)
		if err != nil {
			return err
		}
		d.res.Seals[i] = res.Signed.MAC
		if d.res.Results != nil {
			d.res.Results[i] = res
		}
		if done == nil {
			return nil
		}
		return done(res)
	})
}

func clientSeed(seed uint64, i int) uint64 { return seed*1_000_003 + uint64(i)*7 + 1 }

// session records session i on the process clock tm, seeding its
// speculation history from warm when set. Without a fault plan that is one
// attempt. Under one, every attempt checkpoints, and each device loss
// crashes the VM, marks the device, re-admits the session on different
// silicon and resumes it from the last checkpoint.
func (d *drill) session(tm timesim.Time, i int, warm map[string]shim.Outcome, faults *faultsim.Session) (*record.Result, error) {
	id := sessionID(i)
	cfg := record.Config{
		Obs: d.scopes[i], Model: d.models[i], SKU: d.opts.SKU, Network: d.network,
		Faults: faults,
		// The drill signs with deterministic derived keys, not the VMs'
		// attestation-derived ones: seals are the determinism witness, and
		// attestation nonces are (correctly) random.
		SessionKey:            SessionKey(d.opts.Seed, i),
		ClientSeed:            clientSeed(d.opts.Seed, i),
		InjectMispredictionAt: -1,
		PoolSize:              d.poolSize,
		SessionID:             id,
		Clock:                 tm,
	}
	books := cloud.DeviceBooks{Flight: d.flight, Session: id}
	var resume record.Resumer
	for attempt := 0; ; attempt++ {
		if warm != nil {
			// Each attempt seeds its own copy, as a fresh history would be.
			cfg.History = shim.NewHistory(3)
			cfg.History.WarmStart(warm)
		}
		if faults != nil {
			resume.Arm(&cfg, nil)
		}
		res, err := record.RunContext(d.ctx, cfg)
		vm := d.vms[i]
		books.Book(vm.Device, faults)
		if err == nil {
			if faults != nil {
				d.res.Faults.PerSession[i].Resumes = attempt
			}
			return res, nil
		}
		if faults == nil || !errors.Is(err, grterr.ErrSessionLost) {
			return nil, fmt.Errorf("platform: drill session %d: %w", i, err)
		}
		books.Lost(vm.Device, err, tm.Now(), attempt)
		d.mgr.Crash(vm)
		d.vms[i] = nil
		resume.Lost()
		if attempt >= drillMaxResumes {
			return nil, fmt.Errorf("platform: drill session %d lost after %d attempts: %w", i, attempt+1, err)
		}
		if d.vms[i], err = d.acquire(i, id); err != nil {
			return nil, fmt.Errorf("platform: re-admitting drill session %d: %w", i, err)
		}
		if books.Migrated(d.vms[i].Device, tm.Now(), attempt+1) != "" {
			d.res.Faults.PerSession[i].Migrations++
		}
	}
}
