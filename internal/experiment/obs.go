package experiment

import (
	"context"
	"time"

	"probablecause/internal/obs"
)

// track instruments one experiment run: call it at the top of a Run*
// function and invoke the returned func when done, passing the number of
// samples (trials, outputs, chips — whatever the experiment's unit of work
// is). It records per-experiment wall time, run and sample counters, and a
// span, all keyed by the experiment's name:
//
//	done := track("fig13")
//	defer func() { done(p.Samples) }()
//
// When observability is off the returned func is a no-op and nothing is
// measured.
func track(name string) func(samples int) {
	if !obs.On() {
		return func(int) {}
	}
	t0 := time.Now()
	_, sp := obs.Start(context.Background(), "experiment."+name)
	return func(samples int) {
		elapsed := time.Since(t0)
		obs.C("experiment." + name + ".runs").Inc()
		obs.C("experiment." + name + ".samples").Add(int64(samples))
		obs.H("experiment." + name + ".nanos").Observe(elapsed.Nanoseconds())
		sp.SetAttr("samples", samples)
		sp.End()
		obs.Debugf("experiment finished", "name", name, "samples", samples, "wall", elapsed)
	}
}
