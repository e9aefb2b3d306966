package fingerprint

import (
	"context"

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
	return db.named(v)
}

// named fills in the name of the verdict's entry.
func (db *DB) named(v Verdict) Verdict {
	if v.Index >= 0 {
		v.Name = db.entries[v.Index].Name
	}
	return v
}

// Decide is DB.Decide over the candidate buckets. When no candidate sits
// under the threshold, the verified full scan decides instead, so a reported miss carries the true global best and a
// sub-threshold match is never lost to index recall. As with Identify, the
// Matches count inspects candidates only on the indexed path; with multiple
// sub-threshold entries it can undercount relative to a dense scan if the
// index misses one of them.
func (x *IndexedDB) Decide(errorString *bitset.Set) Verdict {
	v := x.decideRaw(errorString)
	recordVerdict(v)
	return v
}

func (x *IndexedDB) decideRaw(errorString *bitset.Set) Verdict {
	v := Verdict{Index: -1, Distance: 2}
	for _, i := range x.candidates(NewQuery(errorString, x.cfg.Scheme)) {
		if x.db.alive(i) {
			v.observe(i, Distance(errorString, x.db.entries[i].FP), x.db.threshold)
		}
	}
	if v.Matches == 0 {
		if obs.On() {
			cIndexFallbacks.Inc()
		}
		return x.db.decideRaw(errorString)
	}
	return x.db.named(v)
}

// Match is one batch-identification outcome: the fields Identify returns,
// in struct form so a batch can be returned as a slice.
type Match struct {
	Name  string
	Index int
	OK    bool
}

// ParallelIdentify runs db.Identify for every error string across a bounded
// worker pool (pool.Workers semantics: workers <= 0 means one per CPU) and
// returns the matches in input order. The database is only read, so each
// slot equals exactly what a serial Identify call returns: fan-out changes
// the wall-clock, never a decision.
func ParallelIdentify(db Identifier, errorStrings []*bitset.Set, workers int) []Match {
	out := make([]Match, len(errorStrings))
	pool.Map(workers, len(errorStrings), func(i int) {
		name, idx, ok := db.Identify(errorStrings[i])
		out[i] = Match{Name: name, Index: idx, OK: ok}
	})
	return out
}

// ParallelDecide is ParallelIdentify for full verdicts: slot i equals a
// serial db.Decide(errorStrings[i]).
func ParallelDecide(db Identifier, errorStrings []*bitset.Set, workers int) []Verdict {
	out := make([]Verdict, len(errorStrings))
	pool.Map(workers, len(errorStrings), func(i int) {
		out[i] = db.Decide(errorStrings[i])
	})
	return out
}

// TracedDecider is a decision surface that records its fan-out under the
// request span a context carries (ShardedDB and the store backends).
type TracedDecider interface {
	DecideCtx(ctx context.Context, errorString *bitset.Set) Verdict
}

// ParallelDecideCtx is ParallelDecide with per-query trace contexts: slot i
// answers errorStrings[i] under ctxs[i] (nil or missing contexts run
// untraced), so a coalesced batch records each originating request's
// fan-out in that request's own span tree.
func ParallelDecideCtx(db TracedDecider, ctxs []context.Context, errorStrings []*bitset.Set, workers int) []Verdict {
	out := make([]Verdict, len(errorStrings))
	pool.Map(workers, len(errorStrings), func(i int) {
		ctx := context.Background()
		if i < len(ctxs) && ctxs[i] != nil {
			ctx = ctxs[i]
		}
		out[i] = db.DecideCtx(ctx, errorStrings[i])
	})
	return out
}
