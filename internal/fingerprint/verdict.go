package fingerprint

import (
	"probablecause/internal/bitset"
	"probablecause/internal/obs"
	"probablecause/internal/pool"
)

// Verdict is the full outcome of one identification decision: the
// best-matching entry, its distance, and how many database entries sat under
// the threshold. It subsumes Identify (OK ⇔ Matches ≥ 1), carries the
// margin (Name/Index/Distance, regardless of threshold), and adds the
// ambiguity verdict the serving layer and the pcause CLI surface: Matches ≥
// 2 means the error string matched more than one registered fingerprint, so
// the name returned is a guess between colliding devices (Table 2's
// false-positive regime), not an identification.
type Verdict struct {
	// Name and Index locate the minimum-distance entry. Index is -1 when the
	// database is empty; for ShardedDB it is the entry's stable add-order id
	// rather than a dense slice index (see ShardedDB).
	Name  string
	Index int
	// Distance is the modified Jaccard distance (Algorithm 3) to the best
	// entry; 2 (above any real distance) when the database is empty.
	Distance float64
	// Matches counts entries under the identification threshold.
	Matches int
}

// OK reports whether the best entry is under the threshold — Algorithm 2's
// accept decision.
func (v Verdict) OK() bool { return v.Matches >= 1 }

// Ambiguous reports whether more than one entry matched.
func (v Verdict) Ambiguous() bool { return v.Matches >= 2 }

// recordVerdict updates the shared identify hit/miss/ambiguous counters for
// one decision. Callers that compose several raw scans (ShardedDB) record
// exactly once per query.
func recordVerdict(v Verdict) {
	if !obs.On() {
		return
	}
	switch {
	case v.Matches == 0:
		cIdentifyMiss.Inc()
	case v.Matches == 1:
		cIdentifyHit.Inc()
	default:
		cIdentifyHit.Inc()
		cIdentifyAmbig.Inc()
	}
}

// observe folds one entry into a running verdict in scan order: a strictly
// smaller distance takes the lead, so ties keep the earlier index. Index is
// whatever position the caller scans by; the caller resolves the name.
func (v *Verdict) observe(i int, d, threshold float64) {
	if d < threshold {
		v.Matches++
	}
	if d < v.Distance {
		v.Index, v.Distance = i, d
	}
}

// Decide runs the full identification decision against the database: one
// dense scan yielding the best entry, its distance, and the number of
// entries under the threshold.
func (db *DB) Decide(errorString *bitset.Set) Verdict {
	v := db.decideRaw(errorString)
	recordVerdict(v)
	return v
}

// decideRaw is Decide without the obs verdict counters, for callers that
// aggregate several scans into one decision.
func (db *DB) decideRaw(errorString *bitset.Set) Verdict {
	v := Verdict{Index: -1, Distance: 2} // above any possible distance
	for i, e := range db.entries {
		if db.alive(i) {
			v.observe(i, Distance(errorString, e.FP), db.threshold)
		}
	}
	if v.Index >= 0 {
		v.Name = db.entries[v.Index].Name
	}
	return v
}

// Identifier is the decision surface DB, SlicedDB, ShardedDB and the store
// backends share; ParallelDecide and the tests take it so the dense scan and
// the serving engines are swappable.
type Identifier interface {
	Decide(errorString *bitset.Set) Verdict
}

var (
	_ Identifier = (*DB)(nil)
	_ Identifier = (*SlicedDB)(nil)
	_ Identifier = (*ShardedDB)(nil)
)

// ParallelDecide runs db.Decide for every error string across a bounded
// worker pool (pool.Workers semantics: workers <= 0 means one per CPU) and
// returns the verdicts in input order. The database is only read, so slot i
// equals a serial db.Decide(errorStrings[i]): fan-out changes the
// wall-clock, never a decision.
func ParallelDecide(db Identifier, errorStrings []*bitset.Set, workers int) []Verdict {
	out := make([]Verdict, len(errorStrings))
	pool.Map(workers, len(errorStrings), func(i int) {
		out[i] = db.Decide(errorStrings[i])
	})
	return out
}
