// Package a seeds sealedmut violations: writes through data obtained
// from the sealed artifact accessors, plus the sanctioned read/clone
// patterns.
package a

import (
	"repro/internal/artifact"
	"repro/internal/route"
)

func directFieldWrite(a *artifact.Artifact) {
	res, err := a.Result()
	if err != nil {
		return
	}
	res.Stats.Shards = 3 // want `write through sealed artifact data`
}

func sliceElementWrite(a *artifact.Artifact) {
	res, _ := a.Result()
	res.Trees[0].Edges[0] = route.Edge{} // want `write through sealed artifact data`
}

func derivedAliasWrite(a *artifact.Artifact) {
	res, _ := a.Result()
	trees := res.Trees
	trees[0].Net = 7 // want `write through sealed artifact data`
}

func pointerAliasWrite(a *artifact.Artifact) {
	res, _ := a.Result()
	t := &res.Trees[0]
	t.Net = 7 // want `write through sealed artifact data`
}

func drainOverwrite(a *artifact.Artifact) {
	d := a.Drain()
	*d = route.DrainState{} // want `write through sealed artifact data`
}

func incDecWrite(a *artifact.Artifact) {
	res, _ := a.Result()
	res.Stats.Reconciled++ // want `write through sealed artifact data`
}

func copyIntoSealed(a *artifact.Artifact, fresh []route.Edge) {
	res, _ := a.Result()
	copy(res.Trees[0].Edges, fresh) // want `write through sealed artifact data`
}

func appendRebindsSealedField(a *artifact.Artifact) {
	res, _ := a.Result()
	res.Trees = append(res.Trees, route.Tree{}) // want `write through sealed artifact data`
}

// Sanctioned: reads, scalar/struct copies, rebinds, and clones.
func readsAreFine(a *artifact.Artifact) int {
	res, err := a.Result()
	if err != nil {
		return 0
	}
	n := len(res.Trees)
	stats := res.Stats // struct copy: caller's own memory
	stats.Shards = 99
	res = nil // rebinding the variable is not a write through it
	return n + stats.Shards
}

func cloneThenMutate(a *artifact.Artifact) []route.Edge {
	res, _ := a.Result()
	edges := make([]route.Edge, len(res.Trees[0].Edges))
	copy(edges, res.Trees[0].Edges)
	edges[0] = route.Edge{}
	return edges
}

func allowedWrite(a *artifact.Artifact) {
	res, _ := a.Result()
	res.Stats.Shards = 1 //detcheck:allow sealedmut fixture-only probe of the runtime fingerprint check
}
