// Package obs is the pipeline's observability layer: a span/phase tracer
// exportable as Chrome trace-event JSON, the per-phase wall-clock split
// every flow records, a serialized console for concurrent progress
// output, and profiling hooks (net/http/pprof + expvar).
//
// Everything in this package lives off the result path. The determinism
// contract of PRs 1–5 — report bytes identical at any worker count — is
// extended to observability: a nil *Tracer, the one untraced state, costs
// no allocations on hot paths (guarded by TestDisabledSpanZeroAlloc and
// the engine's inner-loop guard), and tracing never changes a result byte,
// because spans only *read* timestamps and counters that already exist;
// they never feed back into any algorithm. See DESIGN.md §9.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Lane identifies one horizontal timeline in the exported trace (a Chrome
// "tid"). Lanes are cheap handles: allocate one per logical execution
// strand — a flow runner, an engine worker, a batch-scheduler runner — so
// concurrent spans never overlap on one lane. The zero Lane is the "main"
// lane every tracer starts with.
type Lane int32

// maxSpanArgs bounds the per-span inline argument storage. Spans carry
// their args by value so attaching them allocates nothing; args beyond the
// bound are dropped silently (observability must never panic a run).
const maxSpanArgs = 4

// Tracer records phase/span events. The zero value is not usable — call
// New — but a nil *Tracer is: every method no-ops, and nil is the one
// untraced state. A Tracer is safe for concurrent use; recording is a
// short critical section appending to an in-memory event buffer, and
// nothing is written anywhere until WriteJSON.
type Tracer struct {
	start time.Time

	mu     sync.Mutex
	lanes  []string // Lane -> display name; index is the exported tid
	events []event
}

type event struct {
	name, cat string
	lane      Lane
	ts, dur   time.Duration
	nargs     int8
	argk      [maxSpanArgs]string
	argv      [maxSpanArgs]int64
}

// New returns a recording tracer whose clock starts now. Lane 0 ("main")
// is pre-allocated.
func New() *Tracer {
	return &Tracer{start: time.Now(), lanes: []string{"main"}}
}

// Enabled reports whether t records, that is whether it is non-nil. It is
// the hot-path gate for work done only to name or annotate spans.
func (t *Tracer) Enabled() bool { return t != nil }

// Lane allocates a new timeline with a display name (exported as the
// Chrome thread name). Safe for concurrent use; returns the main lane on a
// nil tracer.
func (t *Tracer) Lane(name string) Lane {
	if !t.Enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lanes = append(t.lanes, name)
	return Lane(len(t.lanes) - 1)
}

// Span is an in-flight interval. It is a small value — starting and ending
// one performs no heap allocation — and the zero Span is valid and inert,
// so call sites never need nil checks. End must be called at most once,
// from any goroutine.
type Span struct {
	t         *Tracer
	name, cat string
	lane      Lane
	t0        time.Duration
	nargs     int8
	argk      [maxSpanArgs]string
	argv      [maxSpanArgs]int64
}

// Start opens a span on the given lane. On a nil tracer it returns the
// inert zero Span without reading the clock. The name should be a
// constant or pre-built string: Start is called on solver hot paths, where
// formatting would allocate even when the result is discarded — gate any
// fmt.Sprintf naming behind Enabled.
func (t *Tracer) Start(lane Lane, cat, name string) Span {
	if !t.Enabled() {
		return Span{}
	}
	return Span{t: t, name: name, cat: cat, lane: lane, t0: time.Since(t.start)}
}

// Arg attaches an integer attribute to the span (exported under Chrome's
// "args"). Returns the augmented span; inert on the zero Span. At most
// maxSpanArgs survive.
func (s Span) Arg(key string, v int64) Span {
	if s.t == nil || int(s.nargs) >= maxSpanArgs {
		return s
	}
	s.argk[s.nargs] = key
	s.argv[s.nargs] = v
	s.nargs++
	return s
}

// End closes the span and records it. Inert on the zero Span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	dur := time.Since(s.t.start) - s.t0
	s.t.mu.Lock()
	s.t.events = append(s.t.events, event{
		name: s.name, cat: s.cat, lane: s.lane,
		ts: s.t0, dur: dur,
		nargs: s.nargs, argk: s.argk, argv: s.argv,
	})
	s.t.mu.Unlock()
}

// traceEvent is one element of the Chrome trace-event JSON array
// (ph "X" = complete event, ph "M" = metadata).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

const tracePid = 1

// WriteJSON exports everything recorded so far as Chrome trace-event JSON
// (load it at chrome://tracing or https://ui.perfetto.dev). Complete
// events are sorted by start time, so timestamps are monotonically
// nondecreasing in array order; lane names are emitted as thread_name
// metadata. The tracer remains usable afterwards.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteJSON on nil tracer")
	}
	t.mu.Lock()
	lanes := append([]string(nil), t.lanes...)
	events := append([]event(nil), t.events...)
	t.mu.Unlock()

	sort.SliceStable(events, func(a, b int) bool { return events[a].ts < events[b].ts })

	out := traceFile{TraceEvents: make([]traceEvent, 0, len(events)+2*len(lanes)+1)}
	out.TraceEvents = append(out.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", Pid: tracePid,
		Args: map[string]any{"name": "gsino pipeline"},
	})
	for tid, name := range lanes {
		out.TraceEvents = append(out.TraceEvents,
			traceEvent{Name: "thread_name", Ph: "M", Pid: tracePid, Tid: tid,
				Args: map[string]any{"name": name}},
			traceEvent{Name: "thread_sort_index", Ph: "M", Pid: tracePid, Tid: tid,
				Args: map[string]any{"sort_index": tid}},
		)
	}
	for i := range events {
		e := &events[i]
		dur := micros(e.dur)
		te := traceEvent{
			Name: e.name, Cat: e.cat, Ph: "X",
			Ts: micros(e.ts), Dur: &dur,
			Pid: tracePid, Tid: int(e.lane),
		}
		if e.nargs > 0 {
			te.Args = make(map[string]any, e.nargs)
			for a := 0; a < int(e.nargs); a++ {
				te.Args[e.argk[a]] = e.argv[a]
			}
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
