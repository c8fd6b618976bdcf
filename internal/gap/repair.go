package gap

import "math"

// This file is the incremental tier of the transport warm state: it turns
// the cached optimal flow into the optimum of a reduction a few rows away
// with one augmenting path per change, then proves the result unique.
//
// Why uniqueness: the cold solver breaks ties between equal-cost
// assignments by its own search order, which an incremental solve cannot
// replay. When the optimum is unique by a margin above the cold solver's
// float tolerance, the cold solver must find that same optimum, so the
// repaired assignment is byte-identical to cold. When it is not (duplicate
// rows, exact ties), the caller falls back to the cold solve.
//
// The proof runs on the bin graph: the residual network with every item
// contracted into the arcs it offers between bins. Its nodes are the
// nonempty bins plus the sink (an item can only leave a bin it occupies);
// its arcs are
//
//   - u→v: move one item of bin u into bin v, at the cheapest such item's
//     cost difference; when v is empty the move continues into v's first
//     slot and the arc ends at the sink;
//   - u→sink: occupy u's next free slot, at its marginal cost;
//   - sink→u: free u's last occupied slot, at minus its marginal cost.
//
// Any other feasible flow differs from this one by residual cycles, and a
// flow that places some item elsewhere needs a cycle through an item move.
// Under feasible potentials every arc has a non-negative reduced cost and a
// cycle costs the sum of its reduced costs, so a cycle costing at most δ
// uses only arcs of reduced cost at most δ. The certificate is therefore:
// no item-move arc of reduced cost ≤ δ lies inside a strongly connected
// component of the arcs of reduced cost ≤ δ. Then every other assignment
// costs more than δ above this one.

// maxRepairPaths bounds the augmenting paths one incremental solve runs;
// past it the change is no longer small and the cold solve takes over.
const maxRepairPaths = 16

// coldArcTolerance is how far below zero a reduced cost may fall and still
// count as zero in the cold solver's Dijkstra (flow.Network.dijkstra).
const coldArcTolerance = 1e-9

// certMargin is the uniqueness margin δ for n items. The cold solver's
// shortest paths are exact to within coldArcTolerance per arc, so its flow
// costs at most that much per arc above any other; two assignments' flows
// differ on at most 4n unit arcs (an item arc dropped and one added, a
// slot freed and one taken, per moved item). δ is ten times that bound,
// plus a float rounding allowance of 1e-12 of the largest cost per item.
func certMargin(n int, scale float64) float64 {
	return float64(n) * (40*coldArcTolerance + 1e-12*scale)
}

// repairScratch is the incremental tier's reusable scratch.
type repairScratch struct {
	prev  []int     // prev[j] = solved index of incoming item j, -1 for an arrival
	load  []int     // per-bin occupancy
	in    []int     // per-bin kept items
	used  []int     // per-bin occupied slots of the preloaded flow
	start []float64 // bins then sink: potentials the flow solve left
	g     binGraph
}

// repair re-solves the incoming reduction from the cached optimal flow. It
// reports false when the change is not small, a step fails, or the result
// is not certified unique; the caller then solves cold.
func (st *TransportState) repair(base [][]float64, scale float64) ([]int, bool) {
	n, m, oldN := len(base), st.m, st.n
	// Every bin's slot chain must keep its common prefix: slots may be
	// added or removed at the end, never repriced.
	for i := 0; i < m; i++ {
		a := st.chain[st.off[i]:st.off[i+1]]
		b := st.next[st.nextOff[i]:st.nextOff[i+1]]
		k := min(len(a), len(b))
		if !sameFloats(a[:k], b[:k]) {
			return nil, false
		}
	}

	// Align the rows: keep the common prefix and suffix; of the middle,
	// rows at the same index match when the count is unchanged, and
	// otherwise every old middle row departs and every new one arrives.
	prev := growInts(&st.prev, n)
	p := 0
	for p < n && p < oldN && sameFloats(base[p], st.row(p)) {
		p++
	}
	s := 0
	for s < n-p && s < oldN-p && sameFloats(base[n-1-s], st.row(oldN-1-s)) {
		s++
	}
	kept := 0
	for j := 0; j < n; j++ {
		switch {
		case j < p:
			prev[j] = j
		case j >= n-s:
			prev[j] = j - n + oldN
		case n == oldN && sameFloats(base[j], st.row(j)):
			prev[j] = j
		default:
			prev[j] = -1
			continue
		}
		kept++
	}
	if (n-kept)+(oldN-kept) > maxRepairPaths {
		return nil, false
	}

	// Preload the kept items' flow. A bin keeps its old slot occupancy
	// (clipped to its new slot count), so a departure leaves its bin one
	// unit short and a removed slot leaves its bin one unit over.
	oldLoad := countLoads(st.load, st.bin, m)
	st.load = oldLoad
	in := growInts(&st.in, m)
	used := growInts(&st.used, m)
	clear(in)
	for _, o := range prev {
		if o >= 0 {
			in[st.bin[o]]++
		}
	}
	if err := st.build(base, false); err != nil {
		return nil, false
	}
	g, sink := st.net, n+m+1
	for j, o := range prev {
		if o >= 0 {
			if g.Push(st.arcID[j][st.bin[o]], 1) != nil {
				return nil, false
			}
		}
	}
	pot := g.Potentials()
	for i := 0; i < m; i++ {
		pot[n+i] = st.pot[i]
	}
	pot[n+m], pot[sink] = 0, st.pot[m]
	for j, o := range prev {
		if o >= 0 {
			b := st.bin[o]
			pot[j] = st.pot[b] - base[j][b]
			continue
		}
		// An arrival's potential makes each of its arcs' reduced cost
		// non-negative.
		pot[j] = math.Inf(-1)
		for i, c := range base[j] {
			if !math.IsInf(c, 1) {
				pot[j] = math.Max(pot[j], st.pot[i]-c)
			}
		}
		if math.IsInf(pot[j], -1) {
			return nil, false // fits no bin; the cold solve reports it
		}
	}
	for i := 0; i < m; i++ {
		slots := st.nextOff[i+1] - st.nextOff[i]
		used[i] = min(oldLoad[i], slots)
		for k := 0; k < used[i]; k++ {
			if g.Push(st.slotArc[i]+2*k, 1) != nil {
				return nil, false
			}
		}
		// A slot added to a full bin may be cheaper than the potentials
		// allow; occupy it, which turns it into a unit the repair below
		// routes back optimally.
		for used[i] < slots && st.next[st.nextOff[i]+used[i]]+pot[n+i]-pot[sink] < -1e-9 {
			if g.Push(st.slotArc[i]+2*used[i], 1) != nil {
				return nil, false
			}
			used[i]++
		}
	}

	// One shortest augmenting path per unit of imbalance: bins short of
	// items first (a departure frees its bin's dearest slot, or a cheaper
	// rerouting), then bins over their slots, then arrivals.
	paths := 0
	augment := func(from, to int) bool {
		paths++
		if paths > maxRepairPaths {
			return false
		}
		res, err := g.Augment(from, to, 1)
		return err == nil && res.Flow == 1
	}
	for i := 0; i < m; i++ {
		for k := in[i]; k < used[i]; k++ {
			if !augment(sink, n+i) {
				return nil, false
			}
		}
	}
	for i := 0; i < m; i++ {
		for k := used[i]; k < in[i]; k++ {
			if !augment(n+i, sink) {
				return nil, false
			}
		}
	}
	for j, o := range prev {
		if o < 0 && !augment(j, sink) {
			return nil, false
		}
	}

	bin, err := st.assignment(n, m)
	if err != nil {
		return nil, false
	}
	ok, unique := st.settle(base, bin, st.next, st.nextOff, st.netPotentials(n, m), scale, true)
	return bin, ok && unique
}

// binGraph is the dense bin graph of one assignment (see the file comment).
type binGraph struct {
	node  []int     // node[b] = graph node of bin b, -1 when b is empty
	bins  []int     // bins[u] = bin of node u; the sink is node len(bins)
	item  []float64 // V×V: cheapest item-move arc u→v, +Inf when absent
	arc   []float64 // V×V: cheapest arc u→v of either kind, +Inf when absent
	pi    []float64 // node potentials
	index []int     // Tarjan scratch
	low   []int
	comp  []int
	stack []int
	on    []bool
}

// settle relaxes start (bin potentials, then the sink's) into feasible
// potentials for assignment bin on the bin graph and stores them, extended
// to empty bins, in st.pot for the next repair. It reports whether that
// succeeded (no negative cycle: bin is optimal) and, when certify is set,
// whether bin is the unique optimum by the margin δ.
func (st *TransportState) settle(base [][]float64, bin []int, chain []float64, off []int, start []float64, scale float64, certify bool) (ok, unique bool) {
	n, m := len(base), len(off)-1
	gr := &st.g
	load := countLoads(st.load, bin, m)
	st.load = load
	node := growInts(&gr.node, m)
	gr.bins = gr.bins[:0]
	for b := 0; b < m; b++ {
		node[b] = -1
		if load[b] > 0 {
			node[b] = len(gr.bins)
			gr.bins = append(gr.bins, b)
		}
	}
	V := len(gr.bins) + 1
	sink := V - 1
	item := growFloats(&gr.item, V*V)
	arc := growFloats(&gr.arc, V*V)
	inf := math.Inf(1)
	for k := range item {
		item[k] = inf
	}
	for j := 0; j < n; j++ {
		b := bin[j]
		u, cb := node[b], base[j][b]
		for b2, c := range base[j] {
			if b2 == b || math.IsInf(c, 1) {
				continue
			}
			w, v := c-cb, node[b2]
			if v < 0 {
				if off[b2+1] == off[b2] {
					continue // empty bin without slots
				}
				w, v = w+chain[off[b2]], sink
			}
			if w < item[u*V+v] {
				item[u*V+v] = w
			}
		}
	}
	copy(arc, item)
	for u, b := range gr.bins {
		if l := load[b]; l < off[b+1]-off[b] {
			arc[u*V+sink] = math.Min(arc[u*V+sink], chain[off[b]+l])
		}
		arc[sink*V+u] = -chain[off[b]+load[b]-1]
	}

	// Bellman-Ford from the given potentials: at most V passes when the
	// graph has no negative cycle.
	pi := growFloats(&gr.pi, V)
	for u, b := range gr.bins {
		pi[u] = start[b]
	}
	pi[sink] = start[m]
	tol := 1e-12 * scale
	for pass := 0; ; pass++ {
		if pass > V {
			return false, false
		}
		changed := false
		for u := 0; u < V; u++ {
			for v, w := range arc[u*V : (u+1)*V] {
				if pi[u]+w < pi[v]-tol {
					pi[v] = pi[u] + w
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Store the potentials. An empty bin takes the cheapest potential an
	// item move into it allows (every arc into it stays non-negative, and
	// its slot arcs do too by the folded move arcs above).
	pot := growFloats(&st.pot, m+1)
	for b := 0; b < m; b++ {
		pot[b] = inf
		if u := node[b]; u >= 0 {
			pot[b] = pi[u]
		}
	}
	pot[m] = pi[sink]
	for j := 0; j < n; j++ {
		b := bin[j]
		for b2, c := range base[j] {
			if node[b2] < 0 && !math.IsInf(c, 1) {
				pot[b2] = math.Min(pot[b2], pi[node[b]]+c-base[j][b])
			}
		}
	}
	for b := 0; b < m; b++ {
		if math.IsInf(pot[b], 1) {
			pot[b] = pi[sink]
			if off[b+1] > off[b] {
				pot[b] -= chain[off[b]]
			}
		}
	}
	if !certify {
		return true, false
	}
	delta := certMargin(n, scale)
	tight := func(u, v int) bool {
		return arc[u*V+v]+pi[u]-pi[v] <= delta
	}
	comp := gr.components(V, tight)
	for u := 0; u < V; u++ {
		for v := 0; v < V; v++ {
			if comp[u] == comp[v] && item[u*V+v]+pi[u]-pi[v] <= delta {
				return true, false
			}
		}
	}
	return true, true
}

// components labels the strongly connected components of the dense graph
// on V nodes whose arcs are the pairs adj accepts (Tarjan).
func (gr *binGraph) components(V int, adj func(u, v int) bool) []int {
	index := growInts(&gr.index, V)
	low := growInts(&gr.low, V)
	comp := growInts(&gr.comp, V)
	if cap(gr.on) < V {
		gr.on = make([]bool, V)
	}
	on := gr.on[:V]
	for u := 0; u < V; u++ {
		index[u], comp[u], on[u] = -1, -1, false
	}
	gr.stack = gr.stack[:0]
	next, ncomp := 0, 0
	var visit func(u int)
	visit = func(u int) {
		index[u], low[u] = next, next
		next++
		gr.stack = append(gr.stack, u)
		on[u] = true
		for v := 0; v < V; v++ {
			if v == u || !adj(u, v) {
				continue
			}
			if index[v] < 0 {
				visit(v)
				low[u] = min(low[u], low[v])
			} else if on[v] {
				low[u] = min(low[u], index[v])
			}
		}
		if low[u] == index[u] {
			for {
				w := gr.stack[len(gr.stack)-1]
				gr.stack = gr.stack[:len(gr.stack)-1]
				on[w] = false
				comp[w] = ncomp
				if w == u {
					break
				}
			}
			ncomp++
		}
	}
	for u := 0; u < V; u++ {
		if index[u] < 0 {
			visit(u)
		}
	}
	return comp
}

func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
