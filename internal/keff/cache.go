package keff

// The pair-coupling table that once memoized K_ij per geometry (2·48·12⁴
// atomic slots, 15.9 MB per cache) is gone: evaluating a pair from the
// model's per-wire terms and mutual row costs less than looking it up.
// These names remain because the benchmark harness still builds against
// them; each reports nothing.

// PairCache is empty. NewPairCacheFor and sino.Instance.Cache accept one
// and ignore it.
type PairCache struct{}

// NewPairCacheFor returns an empty PairCache.
func NewPairCacheFor(*Model) *PairCache { return &PairCache{} }

// CacheInfo is the coupling-cache section of a flow's outcome. Both fields
// read zero: there is no table to occupy and no evaluation outside one.
type CacheInfo struct {
	Dense    int
	Overflow int
}
