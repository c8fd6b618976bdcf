package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mecache/internal/rng"
)

func TestWaxmanBasics(t *testing.T) {
	top, err := Waxman(rng.New(1), 60, 0.4, 0.14)
	if err != nil {
		t.Fatal(err)
	}
	if top.N() != 60 {
		t.Fatalf("N = %d, want 60", top.N())
	}
	if !top.Graph.Connected() {
		t.Fatal("Waxman topology must be connected")
	}
	if len(top.Pos) != 60 {
		t.Fatalf("positions: %d, want 60", len(top.Pos))
	}
}

func TestWaxmanInvalidParams(t *testing.T) {
	cases := []struct {
		name        string
		n           int
		alpha, beta float64
	}{
		{"zero nodes", 0, 0.4, 0.14},
		{"negative alpha", 10, -0.1, 0.14},
		{"alpha above one", 10, 1.5, 0.14},
		{"zero beta", 10, 0.4, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Waxman(rng.New(1), tc.n, tc.alpha, tc.beta); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestWaxmanDeterministic(t *testing.T) {
	a, err := Waxman(rng.New(9), 40, 0.4, 0.14)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Waxman(rng.New(9), 40, 0.4, 0.14)
	if err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() {
		t.Fatalf("same seed produced different edge counts: %d vs %d", a.M(), b.M())
	}
}

func TestTransitStubSizesExact(t *testing.T) {
	// The paper sweeps GT-ITM networks from 50 to 400 nodes.
	for _, n := range []int{50, 100, 150, 200, 250, 300, 350, 400} {
		top, err := GTITM(42, n)
		if err != nil {
			t.Fatalf("GTITM(%d): %v", n, err)
		}
		if top.N() != n {
			t.Fatalf("GTITM(%d) generated %d nodes", n, top.N())
		}
		if !top.Graph.Connected() {
			t.Fatalf("GTITM(%d) disconnected", n)
		}
		if top.M() < n-1 {
			t.Fatalf("GTITM(%d) has %d edges, fewer than a tree", n, top.M())
		}
	}
}

func TestTransitStubProperty(t *testing.T) {
	check := func(seed uint64, extra uint16) bool {
		n := 10 + int(extra%391) // 10..400
		top, err := GTITM(seed, n)
		if err != nil {
			return false
		}
		return top.N() == n && top.Graph.Connected()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

func TestTransitStubRejectsTiny(t *testing.T) {
	if _, err := GTITM(1, 1); err == nil {
		t.Fatal("GTITM(1 node) should fail")
	}
}

func TestTransitStubLocality(t *testing.T) {
	// Backbone nodes should be more central than stub nodes on average.
	top, err := GTITM(7, 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTransitStub(200)
	backbone := cfg.Transits * cfg.NodesPerTransit
	centerDist := func(p Point) float64 {
		dx, dy := p.X-0.5, p.Y-0.5
		return dx*dx + dy*dy
	}
	var coreSum, stubSum float64
	for i := 0; i < backbone; i++ {
		coreSum += centerDist(top.Pos[i])
	}
	for i := backbone; i < top.N(); i++ {
		stubSum += centerDist(top.Pos[i])
	}
	coreAvg := coreSum / float64(backbone)
	stubAvg := stubSum / float64(top.N()-backbone)
	if coreAvg >= stubAvg {
		t.Fatalf("backbone nodes (avg center dist %v) should be more central than stubs (%v)", coreAvg, stubAvg)
	}
}

func TestAS1755Shape(t *testing.T) {
	top := AS1755()
	if top.N() != 87 {
		t.Fatalf("AS1755 nodes = %d, want 87", top.N())
	}
	if top.M() != 161 {
		t.Fatalf("AS1755 links = %d, want 161", top.M())
	}
	if !top.Graph.Connected() {
		t.Fatal("AS1755 must be connected")
	}
}

func TestAS1755Deterministic(t *testing.T) {
	a, b := AS1755(), AS1755()
	for v := 0; v < a.N(); v++ {
		if a.Graph.Degree(v) != b.Graph.Degree(v) {
			t.Fatalf("node %d degree differs across calls: %d vs %d", v, a.Graph.Degree(v), b.Graph.Degree(v))
		}
	}
}

func TestAS1755DegreeSkew(t *testing.T) {
	// Preferential attachment should give at least one hub well above the
	// mean degree (2M/N ~ 3.7).
	top := AS1755()
	maxDeg := 0
	for v := 0; v < top.N(); v++ {
		if d := top.Graph.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 6 {
		t.Fatalf("max degree %d, expected a hub of degree >= 6", maxDeg)
	}
}

func BenchmarkGTITM400(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GTITM(uint64(i), 400); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAS1755(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = AS1755()
	}
}

func TestTransitStubMultipleTransitDomains(t *testing.T) {
	cfg := TransitStubConfig{
		Transits:            3,
		NodesPerTransit:     4,
		StubsPerTransitNode: 2,
		NodesPerStub:        5,
		IntraStubProb:       0.3,
		ExtraTransitProb:    0.4,
	}
	top, err := TransitStub(rng.New(3), 120, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if top.N() != 120 || !top.Graph.Connected() {
		t.Fatalf("multi-transit topology N=%d connected=%v", top.N(), top.Graph.Connected())
	}
	// The 12 backbone nodes must be denser than the average stub node.
	backbone := cfg.Transits * cfg.NodesPerTransit
	coreDeg, stubDeg := 0, 0
	for v := 0; v < backbone; v++ {
		coreDeg += top.Graph.Degree(v)
	}
	for v := backbone; v < top.N(); v++ {
		stubDeg += top.Graph.Degree(v)
	}
	coreAvg := float64(coreDeg) / float64(backbone)
	stubAvg := float64(stubDeg) / float64(top.N()-backbone)
	if coreAvg <= stubAvg {
		t.Fatalf("backbone degree %v not above stub degree %v", coreAvg, stubAvg)
	}
}

func TestTransitStubBackboneLargerThanNodes(t *testing.T) {
	// A backbone bigger than n is clamped, not an error.
	cfg := TransitStubConfig{Transits: 1, NodesPerTransit: 50, NodesPerStub: 4, IntraStubProb: 0.2}
	top, err := TransitStub(rng.New(1), 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if top.N() != 10 {
		t.Fatalf("N = %d, want 10", top.N())
	}
}
