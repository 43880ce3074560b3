// Package artifact is the content-addressed store for Phase I routing
// artifacts. A routing run is a pure function of (grid geometry, resolved
// router config, net list) — the grid fixes the tile decomposition — and
// the package derives a deterministic 128-bit key from exactly those
// inputs (KeyFor), maps it to an immutable sealed artifact — the
// route.Result plus the resumable DrainState — and shares the artifacts
// across runners through an in-process LRU (Store), the same way the
// batch scheduler shares one keff.PairCache.
//
// Validity argument: routeAll's output depends on the design only through
// the KeyFor inputs, and on nothing else — not the worker count, not
// tracing, not the other flows of the cell (DESIGN.md §11). The three
// evaluation flows route either shield-aware (GSINO) or not (ID+NO,
// iSINO), so a three-flow cell needs at most two distinct keys — the
// store collapses its Phase I work from three routes to two.
//
// Artifacts are sealed: Seal fingerprints the Result and every access
// through Result() re-verifies the fingerprint, so a consumer that
// mutates a shared artifact fails loudly on the next access instead of
// silently corrupting every later cache hit.
package artifact

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/keff"
	"repro/internal/route"
)

// keyVersion is folded into every key so a change to the hashed-field set
// can never collide with keys from an older layout.
const keyVersion = 3

// Key addresses one routing artifact: a 128-bit content hash of the
// routing problem.
type Key [2]uint64

// String renders the key as 32 hex digits.
func (k Key) String() string { return fmt.Sprintf("%016x%016x", k[0], k[1]) }

// KeyFor derives the content key of a routing problem. It hashes the grid
// scalars, the resolved router config (weights and shield-awareness), and
// every net's ID, rate, and raw pin list. The Formula (3) coefficients
// (sino.DefaultShieldCoeffs), the tile grid and the reconciliation bound
// are constants of the router and are not hashed: a change to any of them
// must bump keyVersion (TestKeyVersionPinsShieldCoeffs enforces it for the
// coefficients). The shard config carries only trace settings, which are
// observational and excluded. Two problems with equal keys route
// byte-identically.
func KeyFor(g *grid.Grid, cfg route.Config, _ route.ShardConfig, nets []route.Net) Key {
	cfg = cfg.Resolved()
	h := keff.NewHash()
	h.Int(keyVersion)
	h.Int(g.Cols)
	h.Int(g.Rows)
	h.F64(float64(g.CellW))
	h.F64(float64(g.CellH))
	h.Int(g.HC)
	h.Int(g.VC)
	h.F64(cfg.Alpha)
	h.F64(cfg.Beta)
	h.F64(cfg.Gamma)
	h.Bool(cfg.ShieldAware)
	h.Int(len(nets))
	for i := range nets {
		h.Int(nets[i].ID)
		h.F64(nets[i].Rate)
		h.Int(len(nets[i].Pins))
		for _, p := range nets[i].Pins {
			h.Int(p.X)
			h.Int(p.Y)
		}
	}
	return Key(h.Sum())
}

// Fingerprint hashes a Result's full content — every tree's net and
// edges, and the run stats — into a key. Seal records it; Result()
// re-verifies it, turning any mutation of a shared artifact into a loud
// error.
func Fingerprint(res *route.Result) Key {
	h := keff.NewHash()
	h.Int(len(res.Trees))
	for i := range res.Trees {
		t := &res.Trees[i]
		h.Int(t.Net)
		h.Int(len(t.Edges))
		for _, e := range t.Edges {
			h.Int(e.From.X)
			h.Int(e.From.Y)
			h.Int(e.To.X)
			h.Int(e.To.Y)
		}
	}
	h.Int(res.Stats.Shards)
	h.Int(res.Stats.LargestShard)
	h.Int(res.Stats.Reconciled)
	h.Int(res.Stats.ReconcileRounds)
	h.Int(res.Stats.SeedChunks)
	h.Int(res.Stats.ReconcileComponents)
	h.Int(res.Stats.LargestComponent)
	return Key(h.Sum())
}

// Artifact is one sealed routing outcome: the Result, the resumable
// DrainState, and the fingerprint taken at Seal time.
type Artifact struct {
	key   Key
	res   *route.Result
	drain *route.DrainState
	sum   Key
}

// Seal freezes a routing result and the drain state captured with it
// (route.Router.RunShardedState or route.RunShardedResume; never nil)
// under its problem key. From here on the Result is shared and must never
// be written; Result() enforces that.
func Seal(key Key, res *route.Result, drain *route.DrainState) *Artifact {
	return &Artifact{key: key, res: res, drain: drain, sum: Fingerprint(res)}
}

// Key returns the problem key the artifact was sealed under.
func (a *Artifact) Key() Key { return a.key }

// Result returns the sealed routing result after re-verifying its
// fingerprint. A mismatch means some consumer wrote into the shared
// artifact — a correctness bug that would otherwise poison every later
// cache hit — so it fails loudly instead of returning the data.
func (a *Artifact) Result() (*route.Result, error) {
	if got := Fingerprint(a.res); got != a.sum {
		return nil, fmt.Errorf("artifact %s: sealed result was mutated (fingerprint %s, sealed %s)", a.key, got, a.sum)
	}
	return a.res, nil
}

// Drain returns the artifact's resumable drain state. DrainState is
// immutable by construction (resumes clone what they touch), so no
// fingerprint check is needed.
func (a *Artifact) Drain() *route.DrainState { return a.drain }
