package main

import (
	"fmt"
	"math/rand"
	"time"

	"gpurelay"
)

// recordWindow is the record-paper virtual window: the first 23 timed
// sessions, three rounds plus all but the last model of the fourth. Which
// model is left out, and so the virtual metrics, move with the seeded
// order; a fixed seed repeats them exactly.
const recordWindow = 23

// recordPaper records the six paper models (OursMDS over WiFi) in a seeded
// order each round, on one MaliG71MP8 client against one Service whose
// shared speculation history carries across rounds.
type recordPaper struct {
	client *gpurelay.Client
	svc    *gpurelay.Service
	rng    *rand.Rand
	ops    int
	// window holds the virtual window's sessions; first keeps each model's
	// first recording in it, for its replay delay. Every recording of a
	// model replays in the same virtual time, and keeping one per model
	// keeps the benchmark's own memory out of peak_rss_mb.
	window []recorded
	first  map[string]*gpurelay.Recording
}

type recorded struct {
	model string
	stats gpurelay.RecordStats
}

func setupRecordPaper(seed int64) (instance, error) {
	client := gpurelay.NewClient("bench-record", gpurelay.MaliG71MP8)
	// Warm-up on a scratch service fills the process's lazy state (codec
	// buffers, pools) without warming the timed service's history.
	if _, _, err := client.Record(gpurelay.NewService(), gpurelay.MNIST(), gpurelay.RecordOptions{}); err != nil {
		return nil, fmt.Errorf("warm-up record: %w", err)
	}
	return &recordPaper{
		client: client,
		svc:    gpurelay.NewService(),
		rng:    rand.New(rand.NewSource(seed)),
		first:  map[string]*gpurelay.Recording{},
	}, nil
}

// measure records whole rounds until d has passed and the virtual window
// is full.
func (w *recordPaper) measure(d time.Duration, tr *tracer) *opLog {
	endService := tr.serviceWindow(w.svc)
	start := time.Now()
	log := newOpLog(start, len(gpurelay.Benchmarks()))
	for time.Since(start) < d || w.ops < recordWindow {
		models := gpurelay.Benchmarks()
		w.rng.Shuffle(len(models), func(i, j int) { models[i], models[j] = models[j], models[i] })
		for _, m := range models {
			t0 := time.Now()
			rec, st, err := w.client.Record(w.svc, m, gpurelay.RecordOptions{Obs: tr.scope(m.Name)})
			dt := time.Since(t0)
			tr.span("record", dt)
			if err == nil {
				tr.recorded(st)
				err = w.check(rec)
			}
			log.done(dt, err)
			if err == nil && w.ops < recordWindow {
				w.window = append(w.window, recorded{m.Name, st})
				if w.first[m.Name] == nil {
					w.first[m.Name] = rec
				}
			}
			w.ops++
		}
	}
	log.wall = time.Since(start)
	endService()
	return log
}

// check is the per-op output check: the recording passes its structural
// audit and opens a replay session on the recording device.
func (w *recordPaper) check(rec *gpurelay.Recording) error {
	if err := rec.Audit(); err != nil {
		return fmt.Errorf("%s: audit: %w", rec.Workload, err)
	}
	if _, err := w.client.NewReplaySession(rec); err != nil {
		return fmt.Errorf("%s: open replay session: %w", rec.Workload, err)
	}
	return nil
}

// virtual replays each model's first window recording once and charges
// every window op its own recording's costs and its model's replay delay.
func (w *recordPaper) virtual() (virtualMetrics, int, error) {
	replays := map[string]time.Duration{}
	failed := 0
	for name, rec := range w.first {
		d, err := replayDelay(w.client, rec)
		if err != nil {
			failed++
			continue
		}
		replays[name] = d
	}
	var c charge
	for _, r := range w.window {
		if d, ok := replays[r.model]; ok {
			c.add(r.stats, d)
		}
	}
	vm, err := c.metrics()
	return vm, failed, err
}

// replayDelay opens a session on rec and returns one inference's virtual
// replay delay (the recording's zero weights and input suffice: replay
// timing does not depend on the data).
func replayDelay(client *gpurelay.Client, rec *gpurelay.Recording) (time.Duration, error) {
	sess, err := client.NewReplaySession(rec)
	if err != nil {
		return 0, err
	}
	rr, err := sess.Run()
	if err != nil {
		return 0, err
	}
	return rr.Delay, nil
}
