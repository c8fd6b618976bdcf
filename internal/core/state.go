package core

import (
	"mecache/internal/gap"
)

// EpochSolveState is the warm-start cache one market carries across
// re-optimization epochs: the GAP transport solve (gap.TransportState),
// which keeps an exact copy of the reduction it last solved. An unchanged
// reduction returns the cached assignment, a few changed provider rows are
// repaired incrementally from the cached flow (one augmenting path per
// change, kept only when certified the unique optimum), and anything else
// is solved cold into the retained arena. Every path is byte-identical to
// the cold solve it replaces. Only the transport solver reads the state;
// the Shmoys-Tardos path always solves cold.
//
// The zero value is ready to use. A state belongs to one logical market
// stream (e.g. one dynamic.Simulator, one daemon tenant); sharing it across
// markets is safe (the exact comparison misses) but pointless. It is not
// safe for concurrent use.
type EpochSolveState struct {
	transport gap.TransportState

	// LCFHits is always zero. It counted hits of a full-LCF result cache
	// that no longer exists, and stays because external benchmark drivers
	// still report it.
	LCFHits uint64
	// LastWarm reports whether the most recent solve reused cached work: a
	// transport exact hit or incremental repair.
	LastWarm bool
	// LastTier names the tier that served the most recent solve.
	LastTier WarmTier
}

// WarmTier names the cache tier that served one epoch solve.
type WarmTier string

// Warm tiers, from the cheapest hit to a full solve.
const (
	TierExact       WarmTier = "exact"       // unchanged GAP reduction: cached assignment
	TierIncremental WarmTier = "incremental" // transport solve repaired from the cached flow
	TierCold        WarmTier = "cold"        // the GAP reduction was solved from scratch
)

// WarmTiers lists every tier, for callers that pre-register per-tier series.
func WarmTiers() []WarmTier {
	return []WarmTier{TierExact, TierIncremental, TierCold}
}

// Invalidate drops the cached solution; the next solve runs fully cold.
func (st *EpochSolveState) Invalidate() {
	if st == nil {
		return
	}
	st.transport.Invalidate()
}

// TransportStats exposes the transport-layer counters for telemetry:
// exact hits, misses (solves that ran a flow), and the misses the
// incremental repair served.
func (st *EpochSolveState) TransportStats() (hits, misses, patched uint64) {
	return st.transport.Hits, st.transport.Misses, st.transport.Patched
}
