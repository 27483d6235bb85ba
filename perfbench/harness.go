package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpurelay"
	"gpurelay/internal/obs"
)

// instance is one workload after set-up, ready to run timed ops.
type instance interface {
	// measure runs timed ops for at least d, ending on the workload's own
	// op boundary, and returns their log. tr is nil for an untraced window.
	measure(d time.Duration, tr *tracer) *opLog
	// virtual returns the paper-clock metrics over the workload's virtual
	// window, with the number of checks that failed while computing them.
	virtual() (virtualMetrics, int, error)
}

// virtualMetrics are the simulator's own clock and byte counts, charged per
// op of the virtual window: the recording the op produced or used, its
// virtual recording delay (Fig. 7) and MemSync bytes (Table 1), and the
// virtual delay of one inference replayed from it (Table 2).
type virtualMetrics struct {
	recordS, memsyncMB, replayMS float64
}

// charge accumulates virtual costs over the ops of a virtual window.
type charge struct {
	n                        int
	recordS, memsync, replay float64
}

func (c *charge) add(st gpurelay.RecordStats, replay time.Duration) {
	c.n++
	c.recordS += st.RecordingDelay.Seconds()
	c.memsync += float64(st.MemSyncBytes)
	c.replay += float64(replay) / float64(time.Millisecond)
}

func (c *charge) metrics() (virtualMetrics, error) {
	if c.n == 0 {
		return virtualMetrics{}, fmt.Errorf("virtual window is empty")
	}
	n := float64(c.n)
	return virtualMetrics{recordS: c.recordS / n, memsyncMB: c.memsync / n / 1e6, replayMS: c.replay / n}, nil
}

// opLog records the outcome and latency of every timed op of one window.
type opLog struct {
	start     time.Time
	block     int             // ops per block, for opsPerSec
	ends      []time.Duration // completion time of each op since start
	lat       []time.Duration
	attempted int
	failed    int
	errs      []string
	wall      time.Duration
}

// newOpLog starts a window whose throughput is measured per block of ops:
// a whole number of the workload's rounds, so every block has the same mix.
func newOpLog(start time.Time, block int) *opLog {
	return &opLog{start: start, block: block}
}

// done logs one op: err is the op's error or its failed output check.
func (l *opLog) done(d time.Duration, err error) {
	l.ends = append(l.ends, time.Since(l.start))
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err.Error())
		}
		return
	}
	l.lat = append(l.lat, d)
}

// merge folds per-caller logs that share a start into one whose blocks
// span every caller.
func merge(logs []*opLog, wall time.Duration) *opLog {
	out := &opLog{start: logs[0].start, wall: wall}
	for _, l := range logs {
		out.block += l.block
		out.ends = append(out.ends, l.ends...)
		out.lat = append(out.lat, l.lat...)
		out.attempted += l.attempted
		out.failed += l.failed
		out.errs = append(out.errs, l.errs...)
	}
	sort.Slice(out.ends, func(i, j int) bool { return out.ends[i] < out.ends[j] })
	return out
}

// quantileMS is the nearest-rank q-quantile of the op latencies, in ms.
func (l *opLog) quantileMS(q float64) float64 {
	if len(l.lat) == 0 {
		return math.NaN()
	}
	s := append([]time.Duration(nil), l.lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(time.Millisecond)
}

// opsPerSec is the median over the window's whole blocks of ops per second
// of wall time, so a burst of host noise moves one block, not the figure.
func (l *opLog) opsPerSec() float64 {
	var rates []float64
	prev := time.Duration(0)
	for i := l.block - 1; l.block > 0 && i < len(l.ends); i += l.block {
		rates = append(rates, float64(l.block)/(l.ends[i]-prev).Seconds())
		prev = l.ends[i]
	}
	if len(rates) == 0 {
		return float64(l.attempted) / l.wall.Seconds()
	}
	return median(rates)
}

// tracer collects the traced window's spans and counts. The benchmark
// records them around its calls into the gpurelay API; the program itself
// is not instrumented beyond the telemetry scopes it already offers. All
// methods are safe on a nil tracer (an untraced window) and for concurrent
// callers.
type tracer struct {
	mu     sync.Mutex
	spans  map[string]*spanAgg
	counts map[string]float64
}

type spanAgg struct {
	sum time.Duration
	n   int
}

func newTracer() *tracer {
	return &tracer{spans: map[string]*spanAgg{}, counts: map[string]float64{}}
}

func (t *tracer) span(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.spans[name]
	if a == nil {
		a = &spanAgg{}
		t.spans[name] = a
	}
	a.sum += d
	a.n++
}

func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += v
}

// scope returns a fresh telemetry scope for one traced call, nil when
// untraced (the program then records nothing).
func (t *tracer) scope(id string) *gpurelay.Scope {
	if t == nil {
		return nil
	}
	return gpurelay.NewScope(id)
}

// recorded counts one recorded session's layer statistics.
func (t *tracer) recorded(st gpurelay.RecordStats) {
	if t == nil {
		return
	}
	t.add("sessions", 1)
	t.add("netsim.blocking_rtts", float64(st.Link.BlockingRTTs))
	t.add("netsim.async_rtts", float64(st.Link.AsyncRTTs))
	t.add("netsim.wire_bytes", float64(st.Link.TotalBytes()))
	t.add("shim.commits", float64(st.Shim.Commits))
	t.add("shim.async_commits", float64(st.Shim.AsyncCommits))
	t.add("shim.mispredictions", float64(st.Shim.Mispredictions))
	t.add("shim.recovery_s", st.Shim.RecoveryTime.Seconds())
	t.add("shim.poll_rtts_saved", float64(st.Shim.PollRTTsSaved))
	t.add("shim.reg_accesses", float64(st.Shim.RegAccesses))
	t.add("memsync.wire_bytes", float64(st.MemSyncBytes))
	t.add("mali.gpu_busy_s", st.GPUBusy.Seconds())
	t.add("mali.jobs", float64(st.Jobs))
	if s := st.Obs; s != nil {
		t.add("netsim.stall_s", float64(s.CounterTotal(obs.MNetStallNS))/1e9)
		t.add("memsync.dumps", float64(s.CounterTotal(obs.MSyncDumps)))
		t.add("memsync.raw_bytes", float64(s.CounterTotal(obs.MSyncRawBytes)))
	}
}

// replayed counts one replay run's layer statistics; jobs is the model's
// GPU job count, which every replay runs once.
func (t *tracer) replayed(rr gpurelay.ReplayResult, jobs int) {
	if t == nil {
		return
	}
	t.add("replay.runs", 1)
	t.add("replay.events", float64(rr.Events))
	t.add("replay.verified_reads", float64(rr.VerifiedReads))
	t.add("mali.gpu_busy_s", rr.GPUBusy.Seconds())
	t.add("mali.jobs", float64(jobs))
}

// replayScope counts the replay telemetry a session's scope gathered over
// the traced window.
func (t *tracer) replayScope(s *gpurelay.Scope) {
	if t == nil || s == nil {
		return
	}
	snap := s.Snapshot()
	t.add("replay.restore_bytes", float64(snap.CounterTotal(obs.MReplayRestoreBytes)))
	t.add("replay.mismatches", float64(snap.CounterTotal(obs.MReplayMismatches)))
}

// serviceCounts reads the fleet counters the traced window moves.
func serviceCounts(svc *gpurelay.Service) map[string]float64 {
	s := svc.Metrics()
	lookups := s.CounterBy(obs.MCacheLookups, "result")
	return map[string]float64{
		"castore.hits":      float64(lookups["hit"]),
		"castore.lookups":   float64(lookups["hit"] + lookups["miss"]),
		"castore.fills":     float64(s.CounterTotal(obs.MCacheFills)),
		"castore.evictions": float64(s.CounterTotal(obs.MCacheEvictions)),
		"castore.coalesced": float64(s.CounterTotal(obs.MCacheCoalesced)),
		"cloud.queued":      float64(s.CounterBy(obs.MFleetAdmissions, "outcome")["queued"]),
		"cloud.shed":        float64(s.CounterTotal(obs.MShardShed)),
	}
}

// serviceWindow returns a func that, called at the end of the traced
// window, adds the service counters' deltas over the window.
func (t *tracer) serviceWindow(svc *gpurelay.Service) func() {
	if t == nil {
		return func() {}
	}
	before := serviceCounts(svc)
	return func() {
		for k, v := range serviceCounts(svc) {
			t.add(k, v-before[k])
		}
	}
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
