package gap

import (
	"fmt"
	"math"

	"mecache/internal/flow"
)

// This file is the warm-start layer of the epoch GAP solve. The transport
// state keeps an exact copy of the reduction it last solved; an identical
// reduction returns the cached assignment, and a reduction a few rows away
// is repaired incrementally (repair.go) and returned only when a
// certificate proves it is the unique optimum, which the cold solver
// therefore reproduces. The rounding state reuses the matching of untouched
// components. Every reuse path returns exactly what the cold solve returns;
// the differential suites enforce it.

// fp128 is a 128-bit incremental fingerprint (FNV-1a paired with a rotated
// multiply-accumulate) over 64-bit words. Two independent 64-bit mixes make
// an accidental collision — which would silently revive a stale solution —
// astronomically unlikely rather than merely improbable.
type fp128 struct{ a, b uint64 }

func newFP() fp128 {
	return fp128{a: 14695981039346656037, b: 0x9e3779b97f4a7c15}
}

func (h *fp128) word(w uint64) {
	h.a = (h.a ^ w) * 1099511628211
	h.b = ((h.b ^ w) << 29) | ((h.b ^ w) >> 35)
	h.b = h.b*0xbf58476d1ce4e5b9 + 1
}

func (h *fp128) float(f float64) { h.word(math.Float64bits(f)) }
func (h *fp128) int(v int)       { h.word(uint64(v)) }

// TransportState carries one congestion-transport solve across epochs: an
// exact copy of the reduction it solved, the optimal assignment, node
// potentials under which that assignment is reduced-cost optimal, and the
// flow network arena. The zero value is ready to use; a nil
// *TransportState selects the plain cold solve.
type TransportState struct {
	net     *flow.Network
	arcID   [][]int // arcID[j][i] = item j -> bin i arc, -1 when forbidden
	arcRow  []int   // backing array for arcID rows
	slotArc []int   // slotArc[i] = bin i's first slot arc; slot k+1 is slotArc[i]+2k

	rows          []float64 // solved base costs, n×m row-major
	chain, next   []float64 // marginal cost of every slot, bin-major: solved, incoming
	off, nextOff  []int     // bin i's slots are chain[off[i]:off[i+1]]
	n, m          int
	bin           []int
	cost          float64
	pot           []float64 // bins, then the sink (see ready)
	valid         bool      // bin and cost solve rows and chain
	ready         bool      // pot proves bin optimal, so a repair may start from it
	repairScratch           // repair.go

	// Counters, readable by callers for span attrs and tests.
	Hits     uint64 // solves skipped entirely (identical reduction)
	Misses   uint64 // solves that ran a flow: incremental or cold
	Patched  uint64 // misses served by the certified incremental repair
	LastWarm bool   // last call was a Hit
}

// Invalidate drops the cached solution, forcing the next solve cold.
// Scratch buffers are kept.
func (st *TransportState) Invalidate() {
	if st == nil {
		return
	}
	st.valid, st.ready = false, false
}

// SolveCongestionTransportWarm is SolveCongestionTransport with a reusable
// state: an unchanged reduction returns the cached assignment (warm=true);
// a reduction whose slot chains keep their common prefix and whose rows
// differ in at most a few places is repaired from the cached flow by one
// augmenting path per change, and kept only if certified the unique
// optimum; anything else is solved cold. All paths return the cold
// solver's assignment and cost bit for bit. st may be nil (always cold).
func SolveCongestionTransportWarm(base [][]float64, slots []int, marginal func(bin, k int) float64, st *TransportState) (*Assignment, bool, error) {
	n := len(base)
	m := len(slots)
	if n == 0 {
		return &Assignment{}, false, nil
	}
	if marginal == nil {
		marginal = func(int, int) float64 { return 0 }
	}
	for j, row := range base {
		if len(row) != m {
			return nil, false, fmt.Errorf("gap: item %d has %d costs, want %d", j, len(row), m)
		}
	}
	totalSlots := 0
	for i, s := range slots {
		if s < 0 {
			return nil, false, fmt.Errorf("gap: bin %d has negative slot count %d", i, s)
		}
		totalSlots += s
	}
	if totalSlots < n {
		return nil, false, fmt.Errorf("gap: %d items exceed %d total slots", n, totalSlots)
	}

	retain := st != nil
	if st == nil {
		st = &TransportState{}
	}
	// Read the incoming slot chains. Marginal costs must be non-decreasing
	// in k for the congestion decomposition to be exact; validate
	// defensively.
	scale := 1.0
	st.next, st.nextOff = st.next[:0], append(st.nextOff[:0], 0)
	for i := 0; i < m; i++ {
		prev := math.Inf(-1)
		for k := 1; k <= slots[i]; k++ {
			mc := marginal(i, k)
			if math.IsNaN(mc) || math.IsInf(mc, 0) {
				return nil, false, fmt.Errorf("gap: invalid marginal cost of bin %d at k=%d: %v", i, k, mc)
			}
			if mc < prev-1e-9 {
				return nil, false, fmt.Errorf("gap: marginal cost of bin %d decreases at k=%d (%v < %v)", i, k, mc, prev)
			}
			prev = mc
			scale = math.Max(scale, math.Abs(mc))
			st.next = append(st.next, mc)
		}
		st.nextOff = append(st.nextOff, len(st.next))
	}
	for j, row := range base {
		for i, c := range row {
			if math.IsInf(c, 1) {
				continue
			}
			if math.IsNaN(c) || math.IsInf(c, -1) {
				return nil, false, fmt.Errorf("gap: invalid base cost at item %d bin %d: %v", j, i, c)
			}
			scale = math.Max(scale, math.Abs(c))
		}
	}

	if st.valid && st.n == n && st.m == m && sameInts(st.off, st.nextOff) &&
		sameFloats(st.chain, st.next) && st.sameRows(base) {
		st.Hits++
		st.LastWarm = true
		return &Assignment{Bin: append([]int(nil), st.bin...), Cost: st.cost}, true, nil
	}
	st.Misses++
	st.LastWarm = false

	if retain && st.ready && st.m == m {
		if bin, ok := st.repair(base, scale); ok {
			st.Patched++
			return st.commit(base, bin), false, nil
		}
	}
	st.valid, st.ready = false, false
	bin, err := st.solveCold(base)
	if err != nil {
		return nil, false, err
	}
	a := st.commit(base, bin)
	if retain {
		st.ready, _ = st.settle(base, st.bin, st.chain, st.off, st.netPotentials(n, m), scale, false)
	}
	return a, false, nil
}

// netPotentials copies the flow network's bin and sink potentials into
// st.start, the starting point settle relaxes.
func (st *TransportState) netPotentials(n, m int) []float64 {
	pot := st.net.Potentials()
	st.start = append(append(st.start[:0], pot[n:n+m]...), pot[n+m+1])
	return st.start
}

// sameRows reports whether base equals the solved rows bit for bit.
func (st *TransportState) sameRows(base [][]float64) bool {
	for j, row := range base {
		if !sameFloats(row, st.row(j)) {
			return false
		}
	}
	return true
}

// row returns solved row j.
func (st *TransportState) row(j int) []float64 {
	return st.rows[j*st.m : (j+1)*st.m]
}

// sameFloats compares bit patterns, so a cached solution is never revived
// by values that merely compare equal (+0 and -0) or by a hash collision.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// build lays the incoming reduction out as a flow network in the state's
// arena. Node layout: [0,n) items, [n,n+m) bins, n+m source, n+m+1 sink.
// Without withSource the source stays isolated: the incremental repair
// treats each item as its own unit of supply.
func (st *TransportState) build(base [][]float64, withSource bool) error {
	n, m := len(base), len(st.nextOff)-1
	if st.net == nil {
		st.net = flow.NewNetwork(n + m + 2)
	} else {
		st.net.Reset(n + m + 2)
	}
	g := st.net
	src, sink := n+m, n+m+1
	if withSource {
		for j := 0; j < n; j++ {
			if _, err := g.AddArc(src, j, 1, 0); err != nil {
				return err
			}
		}
	}
	// Convex congestion chain: one unit arc per slot with the marginal
	// cost of that occupancy level.
	st.slotArc = st.slotArc[:0]
	for i := 0; i < m; i++ {
		st.slotArc = append(st.slotArc, -1)
		for _, mc := range st.next[st.nextOff[i]:st.nextOff[i+1]] {
			id, err := g.AddArc(n+i, sink, 1, mc)
			if err != nil {
				return err
			}
			if st.slotArc[i] < 0 {
				st.slotArc[i] = id
			}
		}
	}
	if cap(st.arcRow) < n*m {
		st.arcRow = make([]int, n*m)
	}
	if cap(st.arcID) < n {
		st.arcID = make([][]int, n)
	}
	st.arcID = st.arcID[:n]
	for j := 0; j < n; j++ {
		st.arcID[j] = st.arcRow[j*m : (j+1)*m : (j+1)*m]
		for i := 0; i < m; i++ {
			st.arcID[j][i] = -1
			c := base[j][i]
			if math.IsInf(c, 1) {
				continue
			}
			id, err := g.AddArc(j, n+i, 1, c)
			if err != nil {
				return err
			}
			st.arcID[j][i] = id
		}
	}
	return nil
}

// assignment reads each item's bin off the routed flow.
func (st *TransportState) assignment(n, m int) ([]int, error) {
	bin := make([]int, n)
	for j := 0; j < n; j++ {
		bin[j] = -1
		for i := 0; i < m; i++ {
			if st.arcID[j][i] >= 0 && st.net.ArcFlow(st.arcID[j][i]) > 0 {
				bin[j] = i
				break
			}
		}
		if bin[j] < 0 {
			return nil, fmt.Errorf("gap: item %d unassigned despite full flow", j)
		}
	}
	return bin, nil
}

// solveCold runs the full successive-shortest-path solve of the incoming
// reduction from an empty flow.
func (st *TransportState) solveCold(base [][]float64) ([]int, error) {
	n, m := len(base), len(st.nextOff)-1
	if err := st.build(base, true); err != nil {
		return nil, err
	}
	res, err := st.net.MinCostFlow(n+m, n+m+1, n)
	if err != nil {
		return nil, err
	}
	if res.Flow < n {
		return nil, fmt.Errorf("gap: only %d of %d items are placeable", res.Flow, n)
	}
	return st.assignment(n, m)
}

// commit caches bin as the solution of the incoming reduction and returns
// it with its cost, summed in one canonical order (item rows, then each
// bin's occupied slots) so every solve path yields the same bits.
func (st *TransportState) commit(base [][]float64, bin []int) *Assignment {
	n, m := len(base), len(st.nextOff)-1
	if cap(st.rows) < n*m {
		st.rows = make([]float64, n*m)
	}
	st.rows = st.rows[:n*m]
	for j, row := range base {
		copy(st.rows[j*m:], row)
	}
	st.chain, st.next = st.next, st.chain
	st.off, st.nextOff = st.nextOff, st.off
	st.n, st.m = n, m
	st.bin = append(st.bin[:0], bin...)
	st.load = countLoads(st.load, bin, m)
	cost := 0.0
	for j, b := range bin {
		cost += base[j][b]
	}
	for i := 0; i < m; i++ {
		for _, mc := range st.chain[st.off[i] : st.off[i]+st.load[i]] {
			cost += mc
		}
	}
	st.cost = cost
	st.valid = true
	return &Assignment{Bin: bin, Cost: cost}
}

// countLoads fills buf with the number of items assigned to each of m bins.
func countLoads(buf, bin []int, m int) []int {
	buf = buf[:0]
	for i := 0; i < m; i++ {
		buf = append(buf, 0)
	}
	for _, b := range bin {
		buf[b]++
	}
	return buf
}

// RoundingState caches one Shmoys-Tardos rounding across epochs: the whole
// instance's fingerprint (exact-hit skip) and, per matching component of
// the slot graph, the component's fingerprint and rounded bins, so a
// re-round only re-matches components whose items, slots, or costs changed.
// The zero value is ready; nil selects the cold path.
type RoundingState struct {
	fpA, fpB uint64
	n        int
	valid    bool
	bin      []int
	cost     float64

	compFP  map[int]uint64 // keyed by the component's smallest item index
	itemBin []int          // itemBin[j] = rounded bin of item j, last solve

	// Counters for span attrs and tests.
	Hits           uint64 // solves skipped entirely (identical instance)
	Misses         uint64
	LastWarm       bool
	LastCompReused int // components reused on the last miss
	LastCompTotal  int
}

// Invalidate drops the cached instance and component roundings.
func (st *RoundingState) Invalidate() {
	if st == nil {
		return
	}
	st.valid = false
	st.compFP = nil
}

// instanceFingerprint hashes everything a Shmoys-Tardos solve reads.
func instanceFingerprint(ins *Instance) (uint64, uint64) {
	h := newFP()
	h.int(ins.NumItems())
	h.int(ins.NumBins())
	for j := range ins.Cost {
		for i := range ins.Cost[j] {
			h.float(ins.Cost[j][i])
			h.float(ins.Weight[j][i])
		}
	}
	for _, c := range ins.Cap {
		h.float(c)
	}
	return h.a, h.b
}

// SolveShmoysTardosWarm is SolveShmoysTardos with incremental re-rounding:
// an unchanged instance returns the cached assignment (warm=true); a
// changed instance re-solves the LP but re-matches only the matching
// components whose fingerprint changed, keeping every untouched
// component's integral assignment pinned. Both paths are byte-identical to
// the cold solver (per-component matching provably equals the global
// matching; see DESIGN.md §5l). st may be nil (always cold).
func SolveShmoysTardosWarm(ins *Instance, st *RoundingState) (*Assignment, bool, error) {
	if err := ins.Validate(); err != nil {
		return nil, false, err
	}
	var fpA, fpB uint64
	if st != nil {
		fpA, fpB = instanceFingerprint(ins)
		if st.valid && st.n == ins.NumItems() && fpA == st.fpA && fpB == st.fpB {
			st.Hits++
			st.LastWarm = true
			return &Assignment{Bin: append([]int(nil), st.bin...), Cost: st.cost}, true, nil
		}
		st.Misses++
		st.LastWarm = false
		st.valid = false
	}
	sol, err := roundShmoysTardos(ins, st)
	if err != nil {
		return nil, false, err
	}
	if st != nil {
		st.n = ins.NumItems()
		st.fpA, st.fpB = fpA, fpB
		st.bin = append(st.bin[:0], sol.Bin...)
		st.cost = sol.Cost
		st.valid = true
	}
	return sol, false, nil
}
