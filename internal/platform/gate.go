package platform

import "fmt"

// MaxRecordAmplification is the cache mode's gate: records per unique
// workload may exceed the dedup target of 1.0 only by headroom for
// shed-induced re-leads.
const MaxRecordAmplification = 1.1

// GateError is a drill gate that failed. Gate is a stable token:
// "witness", "amplification", "no_interruptions", "migration_rate" or
// "non_identical".
type GateError struct {
	Gate   string
	Detail string
}

func (e *GateError) Error() string { return "platform: drill gate " + e.Gate + ": " + e.Detail }

// CheckGates applies the drill gates to two runs a and b of one drill's
// options and returns the first that fails as a *GateError: the run-twice
// witness (seals, virtual time, events and cache counters must match),
// then a's mode gates — amplification ≤ MaxRecordAmplification in cache
// mode; at least one interrupted session, a migration success rate of 1.0
// and no non-identical recording in health mode.
func CheckGates(a, b *DrillResult) error {
	fail := func(gate, format string, args ...any) error {
		return &GateError{Gate: gate, Detail: fmt.Sprintf(format, args...)}
	}
	switch {
	case len(a.Seals) != len(b.Seals):
		return fail("witness", "%d seals vs %d", len(a.Seals), len(b.Seals))
	case a.VirtualTime != b.VirtualTime || a.Events != b.Events:
		return fail("witness", "timeline %v/%d events vs %v/%d events",
			a.VirtualTime, a.Events, b.VirtualTime, b.Events)
	case (a.Cache == nil) != (b.Cache == nil):
		return fail("witness", "only one run has a cache front")
	}
	for i := range a.Seals {
		if a.Seals[i] != b.Seals[i] {
			return fail("witness", "session %d seal diverged", i)
		}
	}
	if a.Cache != nil {
		ca, cb := *a.Cache, *b.Cache
		ca.Store, ca.Service = cb.Store, cb.Service
		if ca != cb {
			return fail("witness", "cache counters diverged: %+v vs %+v", ca, cb)
		}
		if amp := a.Cache.RecordAmplification; amp > MaxRecordAmplification {
			return fail("amplification", "record amplification %.3f > %.1f", amp, MaxRecordAmplification)
		}
	}
	if f := a.Faults; f != nil {
		switch {
		case f.Interrupted == 0:
			return fail("no_interruptions", "the plan interrupted no session — nothing was drilled")
		case f.MigrationSuccessRate < 1:
			return fail("migration_rate", "migration success rate %.2f < 1.0", f.MigrationSuccessRate)
		case f.NonIdentical != 0:
			return fail("non_identical", "%d recording(s) differ from baseline", f.NonIdentical)
		}
	}
	return nil
}
