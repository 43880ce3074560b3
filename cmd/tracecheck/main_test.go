package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// handTrace has two lanes. On "runner", a flow span [0, 100] holds two
// sibling phases, [10, 40] and [40, 90]; the second holds two overlapping
// children, [45, 60] and [50, 70], and a leaf [52, 55] inside both. A
// third "job" span on the runner lane, [95, 120], crosses the flow's end,
// so it is not nested in it. On "worker", two spans share the interval
// [20, 30]: the earlier in the file is the parent. The worker's spans
// overlap the runner's in time but not in lane, so neither lane's time is
// subtracted from the other's.
const handTrace = `{"traceEvents":[
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"runner"}},
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"worker"}},
{"name":"flow","ph":"X","ts":0,"dur":100,"pid":1,"tid":0},
{"name":"phase","ph":"X","ts":10,"dur":30,"pid":1,"tid":0},
{"name":"outer","ph":"X","ts":20,"dur":10,"pid":1,"tid":3},
{"name":"inner","ph":"X","ts":20,"dur":10,"pid":1,"tid":3},
{"name":"phase","ph":"X","ts":40,"dur":50,"pid":1,"tid":0},
{"name":"job","ph":"X","ts":45,"dur":15,"pid":1,"tid":0},
{"name":"job","ph":"X","ts":50,"dur":20,"pid":1,"tid":0},
{"name":"leaf","ph":"X","ts":52,"dur":3,"pid":1,"tid":0},
{"name":"job","ph":"X","ts":95,"dur":25,"pid":1,"tid":0}
]}`

// TestSummarizeSelfTime checks the fold on handTrace, in milliseconds.
func TestSummarizeSelfTime(t *testing.T) {
	rows, err := summarize([]byte(handTrace))
	if err != nil {
		t.Fatal(err)
	}
	want := []spanSelf{
		// The two phases: 30 µs and 50 − 25 (the union [45, 70]) µs.
		{Lane: "runner", Tid: 0, Span: "phase", Count: 2, SelfMs: 0.055, TotalMs: 0.080},
		// The leaf nests in both overlapping jobs, so each loses its 3 µs;
		// [95, 120] keeps all 25.
		{Lane: "runner", Tid: 0, Span: "job", Count: 3, SelfMs: 0.054, TotalMs: 0.060},
		// 100 µs less the union of its phases, [10, 90].
		{Lane: "runner", Tid: 0, Span: "flow", Count: 1, SelfMs: 0.020, TotalMs: 0.100},
		{Lane: "worker", Tid: 3, Span: "inner", Count: 1, SelfMs: 0.010, TotalMs: 0.010},
		{Lane: "runner", Tid: 0, Span: "leaf", Count: 1, SelfMs: 0.003, TotalMs: 0.003},
		{Lane: "worker", Tid: 3, Span: "outer", Count: 1, SelfMs: 0, TotalMs: 0.010},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for i := range want {
		g, w := rows[i], want[i]
		if g.Lane != w.Lane || g.Tid != w.Tid || g.Span != w.Span || g.Count != w.Count ||
			math.Abs(g.SelfMs-w.SelfMs) > 1e-12 || math.Abs(g.TotalMs-w.TotalMs) > 1e-12 {
			t.Errorf("row %d: got %+v, want %+v", i, g, w)
		}
	}

	// The table has a header and one line per row, in the same order; the
	// JSON form decodes back to the rows.
	var table bytes.Buffer
	if err := writeSummary(&table, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(table.String()), "\n")
	if len(lines) != len(rows)+1 || !strings.HasPrefix(strings.TrimSpace(lines[0]), "self ms") {
		t.Fatalf("table:\n%s", table.String())
	}
	for i, r := range rows {
		if f := strings.Fields(lines[i+1]); f[len(f)-1] != r.Span || f[3] != r.Lane {
			t.Errorf("table line %d %q, want lane %s span %s", i+1, lines[i+1], r.Lane, r.Span)
		}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var back []spanSelf
	if err := json.Unmarshal(data, &back); err != nil || len(back) != len(rows) || back[0] != rows[0] {
		t.Fatalf("JSON round trip: %v, %+v", err, back)
	}
}

// TestSummarizeRejectsGarbage: a file that does not parse is an error.
func TestSummarizeRejectsGarbage(t *testing.T) {
	if _, err := summarize([]byte(`{"traceEvents":[`)); err == nil {
		t.Error("truncated trace accepted")
	}
}
