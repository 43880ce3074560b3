package obs

import (
	"expvar"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"sync"
)

// StartPprof serves net/http/pprof and expvar on addr (e.g. "localhost:6060",
// ":0" for an ephemeral port) in a background goroutine and returns the
// bound address. This is how the serial tails named in ROADMAP's Amdahl
// pass get profiled on real runs:
//
//	gsino -circuit ibm01 -scale 1 -pprof localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// Records published with PublishSnapshot appear at /debug/vars under
// "obs.snapshots". The server lives until the process exits; profiling is
// an operator tool, not a managed subsystem.
func StartPprof(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, nil) //nolint:errcheck — dies with the process
	return ln.Addr().String(), nil
}

var snapshots struct {
	once sync.Once
	mu   sync.Mutex
	list []any
}

// PublishSnapshot appends a finished flow's stats record (gsino publishes
// the *core.Outcome, tables the sched.Result) to the expvar-published
// "obs.snapshots" list, so a -pprof listener can watch per-phase progress
// of a long batch with plain curl; expvar renders each record with
// encoding/json. Safe for concurrent use; cheap enough to call
// unconditionally.
func PublishSnapshot(s any) {
	snapshots.once.Do(func() {
		expvar.Publish("obs.snapshots", expvar.Func(func() any {
			snapshots.mu.Lock()
			defer snapshots.mu.Unlock()
			return append([]any(nil), snapshots.list...)
		}))
	})
	snapshots.mu.Lock()
	snapshots.list = append(snapshots.list, s)
	snapshots.mu.Unlock()
}
