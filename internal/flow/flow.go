// Package flow implements integer-capacity min-cost max-flow via successive
// shortest paths with Johnson potentials (Bellman-Ford initialization, then
// Dijkstra per augmentation).
//
// It serves two roles in the mecache build: the exact fast path for the
// transportation-shaped LPs that the paper's virtual-cloudlet reduction
// produces (unit-size items into unit-slot bins), and the engine behind
// min-cost bipartite matching used by the Shmoys-Tardos rounding step.
package flow

import (
	"fmt"
	"math"
)

// arc is half of a residual arc pair; arc i and i^1 are mutual reverses.
type arc struct {
	to   int
	cap  int // residual capacity
	cost float64
}

// Network is a flow network with integer capacities and float64 costs.
// Nodes are dense integers [0, n).
//
// A Network owns its solver scratch (potentials, distances, predecessor
// arcs, and the Dijkstra frontier heap), so repeated MinCostFlow runs on
// the same Network — the epoch-solve warm path rebuilds the transport
// network in place every epoch via Reset — allocate nothing once the
// buffers have grown to size.
type Network struct {
	n     int
	arcs  []arc
	heads [][]int // heads[v] = indices into arcs leaving v

	// Solver scratch, reused across MinCostFlow calls.
	pot     []float64
	dist    []float64
	prevArc []int
	pq      []fpqItem
}

// NewNetwork returns an empty network with n nodes.
func NewNetwork(n int) *Network {
	return &Network{n: n, heads: make([][]int, n)}
}

// Reset clears the network back to n nodes and no arcs while keeping every
// underlying buffer, so a caller rebuilding the same-shaped network each
// epoch reuses the arc, adjacency, and solver scratch allocations.
func (g *Network) Reset(n int) {
	g.n = n
	g.arcs = g.arcs[:0]
	if n <= cap(g.heads) {
		g.heads = g.heads[:n]
	} else {
		g.heads = append(g.heads[:cap(g.heads)], make([][]int, n-cap(g.heads))...)
	}
	for i := range g.heads {
		g.heads[i] = g.heads[i][:0]
	}
}

// N returns the number of nodes.
func (g *Network) N() int { return g.n }

// AddNode appends a node and returns its index.
func (g *Network) AddNode() int {
	g.heads = append(g.heads, nil)
	g.n++
	return g.n - 1
}

// AddArc inserts a directed arc from->to with the given capacity and per-unit
// cost, and returns an arc ID usable with ArcFlow. Capacity must be
// non-negative; cost must be finite.
func (g *Network) AddArc(from, to, capacity int, cost float64) (int, error) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return 0, fmt.Errorf("flow: arc (%d,%d) endpoint out of range [0,%d)", from, to, g.n)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("flow: arc (%d,%d) has negative capacity %d", from, to, capacity)
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		return 0, fmt.Errorf("flow: arc (%d,%d) has invalid cost %v", from, to, cost)
	}
	id := len(g.arcs)
	g.arcs = append(g.arcs, arc{to: to, cap: capacity, cost: cost})
	g.arcs = append(g.arcs, arc{to: from, cap: 0, cost: -cost})
	g.heads[from] = append(g.heads[from], id)
	g.heads[to] = append(g.heads[to], id+1)
	return id, nil
}

// ArcFlow returns the flow currently routed on the arc returned by AddArc.
func (g *Network) ArcFlow(id int) int {
	return g.arcs[id^1].cap
}

// Push routes units of flow along the arc returned by AddArc (draining its
// residual capacity into the reverse arc) with no optimality bookkeeping:
// callers use it to preload a flow they already know, then restore
// optimality with Augment.
func (g *Network) Push(id, units int) error {
	if id < 0 || id >= len(g.arcs) || units < 0 || units > g.arcs[id].cap {
		return fmt.Errorf("flow: cannot push %d units on arc %d", units, id)
	}
	g.arcs[id].cap -= units
	g.arcs[id^1].cap += units
	return nil
}

// Potentials returns the node potentials (length N) that MinCostFlow and
// Augment maintain. Writes through the slice seed the next Augment, which
// requires every arc with residual capacity to have a non-negative reduced
// cost cost(u,v) + pot[u] - pot[v] under them.
func (g *Network) Potentials() []float64 {
	g.scratch()
	return g.pot
}

// Result summarizes a MinCostFlow run.
type Result struct {
	Flow int     // total units shipped source -> sink
	Cost float64 // total cost of the shipped flow
}

// scratch sizes the reusable solver buffers to the current node count.
func (g *Network) scratch() {
	if cap(g.dist) < g.n {
		g.dist = make([]float64, g.n)
		g.prevArc = make([]int, g.n)
		g.pot = make([]float64, g.n)
	}
	g.dist = g.dist[:g.n]
	g.prevArc = g.prevArc[:g.n]
	g.pot = g.pot[:g.n]
}

// MinCostFlow pushes up to maxFlow units (use math.MaxInt for max-flow) from
// s to t at minimum cost. Negative arc costs are allowed as long as the
// network has no negative-cost cycle reachable with positive capacity.
func (g *Network) MinCostFlow(s, t, maxFlow int) (Result, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return Result{}, fmt.Errorf("flow: terminal out of range: s=%d t=%d n=%d", s, t, g.n)
	}
	if s == t {
		return Result{}, fmt.Errorf("flow: source equals sink (%d)", s)
	}
	g.scratch()
	pot := g.pot
	if err := g.bellmanFordPotentials(s, pot); err != nil {
		return Result{}, err
	}

	var res Result
	dist, prevArc := g.dist, g.prevArc
	for res.Flow < maxFlow {
		if !g.dijkstra(s, t, pot, dist, prevArc) {
			break // no augmenting path left
		}
		// Update potentials with the new distances.
		for v := 0; v < g.n; v++ {
			if !math.IsInf(dist[v], 1) {
				pot[v] += dist[v]
			}
		}
		g.pushPath(s, t, maxFlow-res.Flow, &res)
	}
	return res, nil
}

// pushPath routes up to limit units along the s→t path the last dijkstra
// recorded in prevArc, adding the units and their cost to res.
func (g *Network) pushPath(s, t, limit int, res *Result) {
	push := limit
	for v := t; v != s; {
		a := g.prevArc[v]
		if g.arcs[a].cap < push {
			push = g.arcs[a].cap
		}
		v = g.arcs[a^1].to
	}
	for v := t; v != s; {
		a := g.prevArc[v]
		g.arcs[a].cap -= push
		g.arcs[a^1].cap += push
		res.Cost += float64(push) * g.arcs[a].cost
		v = g.arcs[a^1].to
	}
	res.Flow += push
}

// Augment is one successive-shortest-path step on the network as it stands:
// it pushes up to maxFlow units from s to t along a shortest residual path
// under the retained potentials (one Dijkstra, no Bellman-Ford), then
// raises every potential by its distance from s capped at t's, which keeps
// every residual arc's reduced cost non-negative for the next call. s and t
// may be any nodes: with flow preloaded by Push, s is a node with excess
// and t one with a deficit. It returns the units pushed (0 when t is
// unreachable from s) and their cost.
func (g *Network) Augment(s, t, maxFlow int) (Result, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return Result{}, fmt.Errorf("flow: terminal out of range: s=%d t=%d n=%d", s, t, g.n)
	}
	if s == t {
		return Result{}, fmt.Errorf("flow: source equals sink (%d)", s)
	}
	g.scratch()
	pot, dist := g.pot, g.dist
	if maxFlow <= 0 || !g.dijkstra(s, t, pot, dist, g.prevArc) {
		return Result{}, nil
	}
	// Capping at dist[t] keeps reduced costs non-negative on arcs out of
	// nodes the search did not reach (or reached beyond t).
	for v := 0; v < g.n; v++ {
		if d := dist[v]; d < dist[t] {
			pot[v] += d
		} else {
			pot[v] += dist[t]
		}
	}
	var res Result
	g.pushPath(s, t, maxFlow, &res)
	return res, nil
}

// bellmanFordPotentials computes initial node potentials so that all reduced
// costs become non-negative. It fails on a negative-capacity-reachable
// negative cycle.
func (g *Network) bellmanFordPotentials(s int, pot []float64) error {
	for v := range pot {
		pot[v] = math.Inf(1)
	}
	pot[s] = 0
	for iter := 0; iter < g.n; iter++ {
		changed := false
		for v := 0; v < g.n; v++ {
			if math.IsInf(pot[v], 1) {
				continue
			}
			for _, id := range g.heads[v] {
				a := g.arcs[id]
				if a.cap > 0 && pot[v]+a.cost < pot[a.to]-1e-12 {
					pot[a.to] = pot[v] + a.cost
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if iter == g.n-1 {
			return fmt.Errorf("flow: negative-cost cycle detected")
		}
	}
	// Unreachable nodes keep potential 0 (they can never appear on an
	// augmenting path anyway, but Inf would poison arithmetic).
	for v := range pot {
		if math.IsInf(pot[v], 1) {
			pot[v] = 0
		}
	}
	return nil
}

type fpqItem struct {
	node int
	dist float64
}

// The frontier heap is a typed binary min-heap whose sift operations
// perform the exact comparison/swap sequence of container/heap over the
// old fpq (Less: strictly smaller dist), so the order equal-distance items
// pop in — and therefore every tie-broken augmenting path — is unchanged,
// while Push no longer boxes items through interface{}.

func fpqUp(q []fpqItem, j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func fpqDown(q []fpqItem, i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].dist < q[j1].dist {
			j = j2 // = 2*i + 2  // right child
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

// dijkstra fills dist/prevArc with reduced-cost shortest paths from s; it
// returns false when t is unreachable in the residual network.
func (g *Network) dijkstra(s, t int, pot, dist []float64, prevArc []int) bool {
	for v := range dist {
		dist[v] = math.Inf(1)
		prevArc[v] = -1
	}
	dist[s] = 0
	q := append(g.pq[:0], fpqItem{node: s, dist: 0})
	for len(q) > 0 {
		n := len(q) - 1
		q[0], q[n] = q[n], q[0]
		fpqDown(q, 0, n)
		it := q[n]
		q = q[:n]
		if it.dist > dist[it.node] {
			continue
		}
		for _, id := range g.heads[it.node] {
			a := g.arcs[id]
			if a.cap <= 0 {
				continue
			}
			rc := a.cost + pot[it.node] - pot[a.to]
			if rc < 0 && rc > -1e-9 {
				rc = 0 // floating-point slack from potential updates
			}
			if nd := it.dist + rc; nd < dist[a.to]-1e-15 {
				dist[a.to] = nd
				prevArc[a.to] = id
				q = append(q, fpqItem{node: a.to, dist: nd})
				fpqUp(q, len(q)-1)
			}
		}
	}
	g.pq = q[:0]
	return !math.IsInf(dist[t], 1)
}
