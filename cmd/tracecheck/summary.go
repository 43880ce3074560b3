package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// spanSelf is one row of the -summary fold: the complete spans of one
// name on one lane, with their summed durations and self times.
type spanSelf struct {
	Lane    string  `json:"lane"`
	Tid     int     `json:"tid"`
	Span    string  `json:"span"`
	Count   int     `json:"count"`
	SelfMs  float64 `json:"self_ms"`
	TotalMs float64 `json:"total_ms"`
}

// summarize folds a Chrome trace into self time per (lane, span name),
// sorted by self time, largest first. A span's self time is its duration
// minus the union of the intervals of the spans nested inside it on the
// same lane; nested spans may overlap each other (concurrent children),
// so overlap is not subtracted twice. Of two spans with the same
// interval, the earlier in the file is the parent.
func summarize(data []byte) ([]spanSelf, error) {
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("trace does not parse: %w", err)
	}
	type span struct {
		lo, hi float64
		idx    int // position in the file, for same-interval ties
		name   string
	}
	laneNames := map[int]string{}
	lanes := map[int][]span{}
	for i, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			if name, ok := e.Args["name"].(string); ok && e.Name == "thread_name" {
				laneNames[e.Tid] = name
			}
		case "X":
			lanes[e.Tid] = append(lanes[e.Tid], span{e.Ts, e.Ts + e.Dur, i, e.Name})
		}
	}

	type key struct {
		tid  int
		name string
	}
	rows := map[key]*spanSelf{}
	for tid, spans := range lanes {
		// Every span nested in spans[k] sorts after it, and none starts
		// after spans[k] ends.
		slices.SortFunc(spans, func(a, b span) int {
			return cmp.Or(cmp.Compare(a.lo, b.lo), cmp.Compare(b.hi, a.hi), cmp.Compare(a.idx, b.idx))
		})
		for k, s := range spans {
			covered, runLo, runHi := 0.0, 0.0, 0.0
			open := false
			for _, c := range spans[k+1:] {
				if c.lo > s.hi {
					break
				}
				if c.hi > s.hi {
					continue // overlaps s without nesting in it
				}
				switch {
				case !open:
					runLo, runHi, open = c.lo, c.hi, true
				case c.lo > runHi:
					covered += runHi - runLo
					runLo, runHi = c.lo, c.hi
				default:
					runHi = max(runHi, c.hi)
				}
			}
			if open {
				covered += runHi - runLo
			}
			r := rows[key{tid, s.name}]
			if r == nil {
				lane, ok := laneNames[tid]
				if !ok {
					lane = fmt.Sprintf("lane %d", tid)
				}
				r = &spanSelf{Lane: lane, Tid: tid, Span: s.name}
				rows[key{tid, s.name}] = r
			}
			r.Count++
			r.SelfMs += (s.hi - s.lo - covered) / 1e3
			r.TotalMs += (s.hi - s.lo) / 1e3
		}
	}

	out := make([]spanSelf, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	slices.SortFunc(out, func(a, b spanSelf) int {
		return cmp.Or(cmp.Compare(b.SelfMs, a.SelfMs), cmp.Compare(a.Tid, b.Tid), cmp.Compare(a.Span, b.Span))
	})
	return out, nil
}

// writeSummary prints the fold as a table, one row per (lane, span name).
func writeSummary(w io.Writer, rows []spanSelf) error {
	width := len("lane")
	for _, r := range rows {
		width = max(width, len(r.Lane))
	}
	if _, err := fmt.Fprintf(w, "%10s %10s %7s  %-*s  %s\n", "self ms", "total ms", "count", width, "lane", "span"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%10.3f %10.3f %7d  %-*s  %s\n", r.SelfMs, r.TotalMs, r.Count, width, r.Lane, r.Span); err != nil {
			return err
		}
	}
	return nil
}
