package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConsoleSerializes fires many goroutines through one Console and
// checks that every emitted line arrives intact — the exact failure mode
// (torn lines) raw concurrent Fprintf on a shared stderr produces.
func TestConsoleSerializes(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex // Builder is not concurrency-safe; serialize at the sink
	c := NewConsole(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}))
	var wg sync.WaitGroup
	const goroutines, lines = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				c.Printf("line g=%d i=%d end\n", g, i)
			}
		}(g)
	}
	wg.Wait()

	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	n := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if !strings.HasPrefix(line, "line g=") || !strings.HasSuffix(line, " end") {
			t.Fatalf("torn line: %q", line)
		}
	}
	if n != goroutines*lines {
		t.Errorf("got %d intact lines, want %d", n, goroutines*lines)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestConsoleNil: a nil Console and a nil writer both discard quietly.
func TestConsoleNil(t *testing.T) {
	var c *Console
	c.Printf("into the void %d\n", 1)
	NewConsole(nil).Printf("also the void\n")
}

// TestStartPprof boots the profiling listener on an ephemeral port and
// fetches an endpoint each subsystem registers: /debug/pprof/ (pprof) and
// /debug/vars (expvar), where a published record must appear as JSON
// under "obs.snapshots".
func TestStartPprof(t *testing.T) {
	addr, err := StartPprof("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	type record struct {
		Design string
		Phases PhaseTimes
	}
	PublishSnapshot(&record{Design: "pprof-probe", Phases: PhaseTimes{Route: 3}})
	client := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := client.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if path != "/debug/vars" {
			continue
		}
		var vars struct {
			Snapshots []record `json:"obs.snapshots"`
		}
		if err := json.Unmarshal(body, &vars); err != nil {
			t.Fatalf("/debug/vars is not JSON: %v", err)
		}
		if !slices.Contains(vars.Snapshots, record{Design: "pprof-probe", Phases: PhaseTimes{Route: 3}}) {
			t.Errorf("published record missing from obs.snapshots: %+v", vars.Snapshots)
		}
	}
}
