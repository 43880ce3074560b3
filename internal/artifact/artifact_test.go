package artifact

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/sino"
)

func testGrid(t testing.TB, cols, rows int) *grid.Grid {
	t.Helper()
	g, err := grid.New(cols, rows, 100, 100, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testNets() []route.Net {
	return []route.Net{
		{ID: 0, Pins: []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 2}}, Rate: 0.3},
		{ID: 1, Pins: []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 3}, {X: 4, Y: 0}}, Rate: 0.3},
	}
}

// TestKeySensitivity: the key must react to every hashed input — grid
// geometry, router config, net definitions — and to nothing
// observational.
func TestKeySensitivity(t *testing.T) {
	g := testGrid(t, 8, 8)
	nets := testNets()
	base := KeyFor(g, route.Config{}, route.ShardConfig{}, nets)

	if KeyFor(g, route.Config{}, route.ShardConfig{}, testNets()) != base {
		t.Fatal("identical problems produced different keys")
	}
	// The zero config resolves to the paper defaults, so spelling the
	// defaults out must produce the same key.
	if KeyFor(g, route.Config{Alpha: 2, Beta: 1, Gamma: 50}, route.ShardConfig{}, nets) != base {
		t.Fatal("resolved-default config keyed differently from zero config")
	}
	if KeyFor(g, route.Config{}, route.ShardConfig{Trace: obs.New()}, nets) != base {
		t.Fatal("tracing changed the key")
	}
	cells, err := grid.New(8, 8, 250, 40, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	capacity, err := grid.New(8, 8, 100, 100, 8, 3)
	if err != nil {
		t.Fatal(err)
	}

	diffs := map[string]Key{
		"grid":        KeyFor(testGrid(t, 10, 8), route.Config{}, route.ShardConfig{}, nets),
		"shieldAware": KeyFor(g, route.Config{ShieldAware: true}, route.ShardConfig{}, nets),
		"cells":       KeyFor(cells, route.Config{}, route.ShardConfig{}, nets),
		"capacity":    KeyFor(capacity, route.Config{}, route.ShardConfig{}, nets),
		"alpha":       KeyFor(g, route.Config{Alpha: 3, Beta: 1, Gamma: 50}, route.ShardConfig{}, nets),
	}
	moved := testNets()
	moved[0].Pins[1] = geom.Point{X: 3, Y: 3}
	diffs["pins"] = KeyFor(g, route.Config{}, route.ShardConfig{}, moved)
	rated := testNets()
	rated[1].Rate = 0.5
	diffs["rate"] = KeyFor(g, route.Config{}, route.ShardConfig{}, rated)
	diffs["fewer"] = KeyFor(g, route.Config{}, route.ShardConfig{}, nets[:1])

	seen := map[Key]string{base: "base"}
	for name, k := range diffs {
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s collides with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyVersionPinsShieldCoeffs: keys do not hash the router's Formula
// (3) coefficients, so refitting them must bump keyVersion, or a disk
// cache would serve routes taken under the old estimate.
func TestKeyVersionPinsShieldCoeffs(t *testing.T) {
	pinned := map[int]sino.ShieldCoeffs{
		3: {A1: -0.51642, A2: 6.0243, A3: 0.66728, A4: -3.891, A5: 0.037444, A6: -0.15031},
	}
	if c, ok := pinned[keyVersion]; !ok || c != sino.DefaultShieldCoeffs() {
		t.Fatalf("keyVersion %d does not pin the default shield coefficients %+v: bump keyVersion and pin them here",
			keyVersion, sino.DefaultShieldCoeffs())
	}
}

// testResult routes the test netlist on g, capturing its drain state.
func testResult(t *testing.T, g *grid.Grid) (*route.Result, *route.DrainState) {
	t.Helper()
	r, err := route.NewRouter(g, route.Config{}, testNets())
	if err != nil {
		t.Fatal(err)
	}
	res, ds, err := r.RunShardedState(context.Background(), nil, route.ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return res, ds
}

// TestSealDetectsMutation: an artifact whose Result is written after
// sealing must fail loudly on the next access, for an edge, a tree's
// edge count, and the stats alike.
func TestSealDetectsMutation(t *testing.T) {
	g := testGrid(t, 8, 8)
	key := KeyFor(g, route.Config{}, route.ShardConfig{}, testNets())

	mutations := map[string]func(*route.Result){
		"edge":  func(res *route.Result) { res.Trees[0].Edges[0].From.X++ },
		"edges": func(res *route.Result) { res.Trees[0].Edges = res.Trees[0].Edges[1:] },
		"stats": func(res *route.Result) { res.Stats.Reconciled++ },
	}
	for name, mutate := range mutations {
		res, ds := testResult(t, g)
		a := Seal(key, res, ds)
		if got, err := a.Result(); err != nil || got != res {
			t.Fatalf("%s: clean access failed: %v", name, err)
		}
		mutate(res)
		if _, err := a.Result(); err == nil {
			t.Fatalf("%s mutation went undetected", name)
		}
	}
}

// TestStoreLRU: the store honors its capacity, evicting least-recently
// used artifacts and counting the evictions.
func TestStoreLRU(t *testing.T) {
	g := testGrid(t, 8, 8)
	res, ds := testResult(t, g)
	s := NewStore(2)
	keys := make([]Key, 3)
	for i := range keys {
		nets := testNets()
		nets[0].Rate = float64(i+1) / 10
		keys[i] = KeyFor(g, route.Config{}, route.ShardConfig{}, nets)
	}
	put := func(k Key) {
		_, _, err := s.Do(context.Background(), k, func(context.Context) (*Artifact, error) {
			return Seal(k, res, ds), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	put(keys[0])
	put(keys[1])
	put(keys[0]) // touch 0 so 1 is LRU
	put(keys[2]) // evicts 1
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.Peek(keys[1]) != nil {
		t.Fatal("LRU key survived past capacity")
	}
	if s.Peek(keys[0]) == nil || s.Peek(keys[2]) == nil {
		t.Fatal("recently used keys evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Misses != 3 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 eviction, 3 misses, 1 hit", st)
	}
}

// TestStoreSingleFlight: N concurrent lookups of one key run compute
// exactly once; everyone gets the same sealed artifact and the per-key
// totals come out schedule-invariant (1 miss, N−1 hits).
func TestStoreSingleFlight(t *testing.T) {
	g := testGrid(t, 8, 8)
	res, ds := testResult(t, g)
	key := KeyFor(g, route.Config{}, route.ShardConfig{}, testNets())
	s := NewStore(0)

	const n = 16
	var computes atomic.Int64
	var wg sync.WaitGroup
	arts := make([]*Artifact, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, _, err := s.Do(context.Background(), key, func(context.Context) (*Artifact, error) {
				computes.Add(1)
				return Seal(key, res, ds), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			arts[i] = a
		}(i)
	}
	wg.Wait()
	if computes.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", computes.Load())
	}
	for i := 1; i < n; i++ {
		if arts[i] != arts[0] {
			t.Fatal("waiters received a different artifact than the leader")
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, n-1)
	}
}

// TestStoreLeaderError: a failing leader does not publish, and a waiter
// retries as the new leader rather than inheriting the failure.
func TestStoreLeaderError(t *testing.T) {
	g := testGrid(t, 8, 8)
	res, ds := testResult(t, g)
	key := KeyFor(g, route.Config{}, route.ShardConfig{}, testNets())
	s := NewStore(0)

	boom := errors.New("boom")
	if _, _, err := s.Do(context.Background(), key, func(context.Context) (*Artifact, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want boom", err)
	}
	if s.Len() != 0 {
		t.Fatal("failed computation was published")
	}
	a, cached, err := s.Do(context.Background(), key, func(context.Context) (*Artifact, error) {
		return Seal(key, res, ds), nil
	})
	if err != nil || cached || a == nil {
		t.Fatalf("retry after failure: art=%v cached=%v err=%v", a, cached, err)
	}
	// Sealing under the wrong key is caught at publish time.
	wrong := KeyFor(g, route.Config{ShieldAware: true}, route.ShardConfig{}, testNets())
	if _, _, err := s.Do(context.Background(), wrong, func(context.Context) (*Artifact, error) {
		return Seal(key, res, ds), nil
	}); err == nil {
		t.Fatal("key/seal mismatch accepted")
	}
}

func baseNetlist(n int) *netlist.Netlist {
	nl := &netlist.Netlist{Sensitivity: netlist.NewHashSensitivity(1, 0.3)}
	for i := 0; i < n; i++ {
		nl.Nets = append(nl.Nets, netlist.Net{
			ID: i, Name: fmt.Sprintf("n%d", i),
			Pins: []netlist.Pin{
				{Loc: geom.MicronPoint{X: geom.Micron(10 * i), Y: 0}},
				{Loc: geom.MicronPoint{X: geom.Micron(10*i + 40), Y: 70}},
			},
		})
	}
	return nl
}

// TestDeltaApply: removes become inert one-pin stubs (IDs stay
// contiguous), moves replace pins, adds append with the next IDs, and the
// base netlist is untouched.
func TestDeltaApply(t *testing.T) {
	base := baseNetlist(4)
	want := baseNetlist(4) // pristine copy for the no-mutation check
	d := Delta{
		Remove: []int{1},
		Move:   []Move{{ID: 2, Pins: []netlist.Pin{{Loc: geom.MicronPoint{X: 5, Y: 5}}}}},
		Add:    []netlist.Net{{Name: "eco0", Pins: []netlist.Pin{{Loc: geom.MicronPoint{X: 1, Y: 2}}}}},
	}
	out, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(out.Nets) != 5 {
		t.Fatalf("got %d nets, want 5", len(out.Nets))
	}
	if len(out.Nets[1].Pins) != 1 || out.Nets[1].Pins[0] != base.Nets[1].Pins[0] {
		t.Fatalf("removed net not stubbed at its driver: %+v", out.Nets[1].Pins)
	}
	if out.Nets[2].Pins[0].Loc != (geom.MicronPoint{X: 5, Y: 5}) {
		t.Fatal("moved net kept old pins")
	}
	if out.Nets[4].ID != 4 || out.Nets[4].Name != "eco0" {
		t.Fatalf("added net mis-assigned: %+v", out.Nets[4])
	}
	if !reflect.DeepEqual(base.Nets, want.Nets) {
		t.Fatal("Apply mutated the base netlist")
	}

	bad := []Delta{
		{Remove: []int{9}},
		{Remove: []int{1}, Move: []Move{{ID: 1, Pins: base.Nets[1].Pins}}},
		{Move: []Move{{ID: 0}}},
		{Add: []netlist.Net{{Name: "empty"}}},
	}
	for i, d := range bad {
		if _, err := d.Apply(base); err == nil {
			t.Fatalf("bad delta %d accepted", i)
		}
	}
}

// TestParseDelta: the JSON wire shape round-trips, normalizes ordering,
// and rejects malformed pins.
func TestParseDelta(t *testing.T) {
	d, err := ParseDelta([]byte(`{
		"remove": [3, 1],
		"move":   [{"id": 7, "pins": [[120, 80], [440, 360]]}, {"id": 2, "pins": [[0, 0]]}],
		"add":    [{"name": "eco0", "pins": [[60, 60], [220.5, 300]]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Remove, []int{1, 3}) {
		t.Fatalf("removes not sorted: %v", d.Remove)
	}
	if len(d.Move) != 2 || d.Move[0].ID != 2 || d.Move[1].ID != 7 {
		t.Fatalf("moves not sorted by ID: %+v", d.Move)
	}
	if d.Move[1].Pins[1].Loc != (geom.MicronPoint{X: 440, Y: 360}) {
		t.Fatalf("move pins mis-parsed: %+v", d.Move[1].Pins)
	}
	if len(d.Add) != 1 || d.Add[0].Pins[1].Loc != (geom.MicronPoint{X: 220.5, Y: 300}) {
		t.Fatalf("add mis-parsed: %+v", d.Add)
	}
	if _, err := ParseDelta([]byte(`{"move":[{"id":0,"pins":[[1,2,3]]}]}`)); err == nil {
		t.Fatal("3-coordinate pin accepted")
	}
	if _, err := ParseDelta([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// FuzzParseDelta: ParseDelta never panics; an accepted delta is
// normalized (removes ascending, moves by ID, add names strictly
// ascending); and applying it to a base netlist either errors or returns a
// netlist that validates and holds the base nets plus the adds.
func FuzzParseDelta(f *testing.F) {
	for _, seed := range []string{
		`{"move":[{"id":0,"pins":[[120,80],[440,360]]}],"remove":[1],"add":[{"name":"eco0","pins":[[60,60],[220,300]]}]}`,
		`{"remove":[3,1,3],"move":[{"id":2,"pins":[[0,0]]},{"id":0,"pins":[[5,5],[9,9]]}]}`,
		`{"add":[{"name":"b","pins":[[1,2]]},{"name":"a","pins":[[3,4],[5,6]]}]}`,
		`{"move":[{"id":-1,"pins":[[1,2,3]]}]}`,
		`{"add":[{"name":"a","pins":[]}]}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	base := baseNetlist(4)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDelta(data)
		if err != nil {
			return
		}
		if !sort.IntsAreSorted(d.Remove) {
			t.Fatalf("removes not ascending: %v", d.Remove)
		}
		for i := 1; i < len(d.Move); i++ {
			if d.Move[i-1].ID > d.Move[i].ID {
				t.Fatalf("moves not ordered by ID: %d before %d", d.Move[i-1].ID, d.Move[i].ID)
			}
		}
		for i := 1; i < len(d.Add); i++ {
			if d.Add[i-1].Name >= d.Add[i].Name {
				t.Fatalf("add names not strictly ascending: %q before %q", d.Add[i-1].Name, d.Add[i].Name)
			}
		}
		out, err := d.Apply(base)
		if err != nil {
			return
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("applied delta does not validate: %v", err)
		}
		if want := len(base.Nets) + len(d.Add); len(out.Nets) != want {
			t.Fatalf("applied delta has %d nets, want %d", len(out.Nets), want)
		}
	})
}

// TestParseDeltaAddOrderInvariance: adds are assigned IDs positionally by
// Apply, so ParseDelta must normalize their order — the same delta file
// with its add entries permuted must produce the identical netlist. A file
// that adds the same name twice is ambiguous under that normalization and
// is rejected.
func TestParseDeltaAddOrderInvariance(t *testing.T) {
	fwd := []byte(`{"add": [
		{"name": "eco_b", "pins": [[60, 60], [220, 300]]},
		{"name": "eco_a", "pins": [[10, 20], [30, 40]]}
	]}`)
	rev := []byte(`{"add": [
		{"name": "eco_a", "pins": [[10, 20], [30, 40]]},
		{"name": "eco_b", "pins": [[60, 60], [220, 300]]}
	]}`)
	df, err := ParseDelta(fwd)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := ParseDelta(rev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(df, dr) {
		t.Fatalf("permuted add files parsed differently:\n%+v\n%+v", df, dr)
	}
	base := baseNetlist(2)
	of, err := df.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	or, err := dr.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(of, or) {
		t.Fatal("permuted add files applied to different netlists")
	}
	if of.Nets[2].Name != "eco_a" || of.Nets[3].Name != "eco_b" {
		t.Fatalf("adds not in name order: %s, %s", of.Nets[2].Name, of.Nets[3].Name)
	}

	dup := []byte(`{"add": [
		{"name": "eco_a", "pins": [[1, 2]]},
		{"name": "eco_a", "pins": [[3, 4]]}
	]}`)
	if _, err := ParseDelta(dup); err == nil {
		t.Fatal("duplicate add name accepted")
	}
}
