// Package a seeds wallclock violations and the sanctioned timing-domain
// patterns.
package a

import (
	"fmt"
	"math/rand"
	"time"
)

type outcome struct {
	Runtime time.Duration
	Label   string
}

type phases struct {
	Route, Order time.Duration
}

// Sanctioned: wall-clock values that stay in the timing domain.
func timingDomain(o *outcome) {
	start := time.Now()
	work()
	o.Runtime = time.Since(start)

	tOrder := time.Now()
	work()
	orderDur := time.Since(tOrder)
	_ = phases{Route: o.Runtime, Order: orderDur}
}

// Sanctioned: a store into a declared time-typed local is an assignment
// into a time.Duration variable, not a read of it.
func storeIntoDeclaredLocal(o *outcome, refine bool) {
	var refineDur time.Duration
	if refine {
		tRefine := time.Now()
		work()
		refineDur = time.Since(tRefine)
	}
	_ = phases{Route: o.Runtime, Order: refineDur}
}

// Violations: the value escapes into output-shaped data.
func escapes(o *outcome) {
	// The inner time.Now stays in the timing domain (it only feeds
	// time.Since); the escape is flagged once, at the .Milliseconds()
	// conversion of the Since result.
	ms := time.Since(time.Now()).Milliseconds() // want `wall-clock value from time\.Since escapes the timing domain`
	o.Label = fmt.Sprint(ms)

	now := time.Now() // want `wall-clock value from time\.Now escapes`
	o.Label = now.String()

	var report []int64
	d := time.Since(now) // want `wall-clock value from time\.Since escapes`
	report = append(report, int64(d))
	_ = report
}

// Violation: a declared local stored in-domain, then read out of it.
func storeThenConvert(start time.Time) int64 {
	var late time.Duration
	late = time.Since(start) // want `wall-clock value from time\.Since escapes`
	return int64(late)
}

func seed() int64 {
	return time.Now().UnixNano() // want `wall-clock value from time\.Now escapes`
}

func globalRand(weights []float64) int {
	i := rand.Intn(len(weights))                // want `math/rand\.Intn draws from the global, nondeterministically seeded source`
	rand.Shuffle(len(weights), func(a, b int) { // want `math/rand\.Shuffle draws from the global`
		weights[a], weights[b] = weights[b], weights[a]
	})
	return i
}

// Sanctioned: explicitly seeded source, methods on *rand.Rand.
func seededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// Sanctioned: handing a time value to a time-typed parameter keeps it
// in the timing domain — the callee's own body is analyzed separately.
func passesToTimeTypedParam(o *outcome) {
	start := time.Now()
	work()
	finish(o, "route", start)
}

func finish(o *outcome, label string, start time.Time) {
	o.Runtime = time.Since(start)
	o.Label = label
}

// Violation: the parameter is int64, so the value leaves the domain at
// the call site.
func passesToUntypedParam() {
	start := time.Now() // want `wall-clock value from time\.Now escapes`
	record(start.UnixNano())
}

func record(int64) {}

func allowedTiming() int64 {
	return time.Now().UnixNano() //detcheck:allow wallclock trace-event timestamps are observational and never reach report bytes
}

func work() {}
