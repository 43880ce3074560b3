// Command tracecheck validates a Chrome trace-event JSON file produced by
// gsino -trace or tables -trace: the file must parse, contain at least one
// complete ("X") span with timestamps nondecreasing in array order, and —
// when -need is given — contain a span matching every required name
// substring. CI runs it after the trace smoke to pin the span taxonomy.
//
// With -summary it then prints, in place of its one-line verdict, where
// the time went: self time per (lane, span name), largest first, as a
// table or, with -json, as a JSON array. A span's self time is its
// duration minus the union of the spans nested inside it on the same lane;
// its wait (wait ms, wait_ms) is the part of that self time during which a
// span on another lane is open, such as a flow span waiting for the worker
// lanes it dispatched to.
//
// Usage:
//
//	tracecheck trace.json
//	tracecheck -need 'phase I: route,phase II: order,phase III: refine' trace.json
//	tracecheck -summary [-json] trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracecheck: ")
	need := flag.String("need", "", "comma-separated span-name substrings that must each match some complete event")
	summary := flag.Bool("summary", false, "print self time and wait per (lane, span name), largest first, instead of the verdict line")
	asJSON := flag.Bool("json", false, "with -summary, print the fold as a JSON array")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: tracecheck [-need a,b,c] [-summary [-json]] trace.json")
	}
	if *asJSON && !*summary {
		log.Fatal("-json requires -summary")
	}
	path := flag.Arg(0)

	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := obs.ValidateTrace(data)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	if stats.Complete == 0 {
		log.Fatalf("%s: no complete spans recorded", path)
	}
	var missing []string
	if *need != "" {
		for _, want := range strings.Split(*need, ",") {
			want = strings.TrimSpace(want)
			if want != "" && !obs.TraceHasSpan(data, want) {
				missing = append(missing, want)
			}
		}
	}
	if len(missing) > 0 {
		log.Fatalf("%s: missing required spans: %s", path, strings.Join(missing, "; "))
	}
	if !*summary {
		fmt.Printf("%s: ok — %d events (%d spans, %d metadata) on %d lanes\n",
			path, stats.Events, stats.Complete, stats.Meta, stats.Lanes)
		return
	}
	rows, err := summarize(data)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	if *asJSON {
		err = json.NewEncoder(os.Stdout).Encode(rows)
	} else {
		err = writeSummary(os.Stdout, rows)
	}
	if err != nil {
		log.Fatal(err)
	}
}
