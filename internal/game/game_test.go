package game

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mecache/internal/graph"
	"mecache/internal/mec"
	"mecache/internal/rng"
	"mecache/internal/topology"
	"mecache/internal/workload"
)

// smallMarket builds a deterministic market for game tests: a path topology
// with two cloudlets and one DC, and n providers.
func smallMarket(t testing.TB, n int) *mec.Market {
	t.Helper()
	g := graph.New(6, false)
	for i := 0; i+1 < 6; i++ {
		if err := g.AddEdge(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	top := &topology.Topology{Name: "line", Graph: g, Pos: make([]topology.Point, 6)}
	net, err := mec.NewNetwork(top,
		[]mec.Cloudlet{
			{Node: 1, NumVMs: 20, ComputeCap: 100, BandwidthCap: 1000, Alpha: 0.5, Beta: 0.5,
				FixedBandwidthCost: 0.2, ProcPricePerGB: 0.2, TransPricePerGBHop: 0.1},
			{Node: 4, NumVMs: 20, ComputeCap: 100, BandwidthCap: 1000, Alpha: 0.3, Beta: 0.2,
				FixedBandwidthCost: 0.3, ProcPricePerGB: 0.18, TransPricePerGBHop: 0.08},
		},
		[]mec.DataCenter{{Node: 5, ProcPricePerGB: 0.22, TransPricePerGBHop: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(uint64(n) * 977)
	providers := make([]mec.Provider, n)
	for l := range providers {
		providers[l] = mec.Provider{
			Requests:        10 + r.Intn(20),
			ComputePerReq:   r.FloatRange(0.01, 0.1),
			BandwidthPerReq: r.FloatRange(0.5, 2),
			InstCost:        r.FloatRange(0.5, 1.5),
			TrafficGBPerReq: r.FloatRange(0.01, 0.2),
			DataGB:          r.FloatRange(1, 5),
			UpdateRatio:     0.1,
			HomeDC:          0,
			AttachNode:      r.Intn(6),
		}
	}
	m, err := mec.NewMarket(net, providers)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func allRemote(m *mec.Market) mec.Placement {
	pl := make(mec.Placement, len(m.Providers))
	for l := range pl {
		pl[l] = mec.Remote
	}
	return pl
}

func TestBestResponseNeverWorse(t *testing.T) {
	m := smallMarket(t, 8)
	g := New(m)
	pl := allRemote(m)
	for l := range m.Providers {
		_, c := g.BestResponse(pl, l)
		if c > m.ProviderCost(pl, l)+1e-12 {
			t.Fatalf("best response of %d costs %v, worse than current %v", l, c, m.ProviderCost(pl, l))
		}
	}
}

func TestDynamicsConvergeToNash(t *testing.T) {
	m := smallMarket(t, 12)
	g := New(m)
	res, err := g.BestResponseDynamics(allRemote(m), rng.New(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("dynamics reported non-convergence")
	}
	if !g.IsNash(res.Placement) {
		t.Fatal("converged placement is not a Nash equilibrium")
	}
	if err := m.CheckCapacity(res.Placement, 0); err != nil {
		t.Fatalf("NE violates capacities: %v", err)
	}
}

// TestPotentialDecreasesAlongMoves is the Lemma-3 property: any strictly
// improving unilateral move strictly decreases the Rosenthal potential.
func TestPotentialDecreasesAlongMoves(t *testing.T) {
	m := smallMarket(t, 10)
	g := New(m)
	check := func(seed uint64) bool {
		r := rng.New(seed)
		pl := make(mec.Placement, len(m.Providers))
		nc := m.Net.NumCloudlets()
		for l := range pl {
			k := r.Intn(nc + 1)
			if k == nc {
				pl[l] = mec.Remote
			} else {
				pl[l] = k
			}
		}
		l := r.Intn(len(pl))
		s, c := g.BestResponse(pl, l)
		cur := m.ProviderCost(pl, l)
		if c >= cur-1e-12 || s == pl[l] {
			return true // no improving move from here
		}
		before := g.Potential(pl)
		moved := pl.Clone()
		moved[l] = s
		after := g.Potential(moved)
		// The potential must drop by exactly the player's improvement.
		return after < before-1e-12 && math.Abs((before-after)-(cur-c)) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedPlayersDoNotMove(t *testing.T) {
	m := smallMarket(t, 8)
	g := New(m)
	g.Pinned[0] = true
	g.Pinned[3] = true
	init := allRemote(m)
	init[0] = 1
	init[3] = 0
	res, err := g.BestResponseDynamics(init, rng.New(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[0] != 1 || res.Placement[3] != 0 {
		t.Fatalf("pinned strategies changed: %v", res.Placement)
	}
}

func TestAllPinnedConvergesImmediately(t *testing.T) {
	m := smallMarket(t, 4)
	g := New(m)
	for l := range g.Pinned {
		g.Pinned[l] = true
	}
	res, err := g.BestResponseDynamics(allRemote(m), rng.New(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Moves != 0 {
		t.Fatalf("all-pinned game should be trivially converged: %+v", res)
	}
}

func TestCapacityAwareBestResponse(t *testing.T) {
	m := smallMarket(t, 2)
	// Shrink cloudlet 0 so only one provider fits.
	m.Net.Cloudlets[0].ComputeCap = m.Providers[0].ComputeDemand() * 1.2
	m.Net.Cloudlets[1].ComputeCap = 1e9
	g := New(m)
	pl := mec.Placement{0, mec.Remote}
	s, _ := g.BestResponse(pl, 1)
	if s == 0 {
		t.Fatal("best response chose a full cloudlet")
	}
	// With capacity awareness off it may choose it.
	g.CapacityAware = false
	s2, _ := g.BestResponse(pl, 1)
	_ = s2 // no assertion: cloudlet 0 may or may not be cheapest
}

func TestDynamicsDeterministicGivenSeed(t *testing.T) {
	m := smallMarket(t, 15)
	g := New(m)
	r1, err := g.BestResponseDynamics(allRemote(m), rng.New(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.BestResponseDynamics(allRemote(m), rng.New(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	for l := range r1.Placement {
		if r1.Placement[l] != r2.Placement[l] {
			t.Fatalf("same seed produced different equilibria at provider %d", l)
		}
	}
}

func TestExactOptimumSmall(t *testing.T) {
	m := smallMarket(t, 4)
	pl, cost, err := ExactOptimum(m, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-m.SocialCost(pl)) > 1e-9 {
		t.Fatalf("reported optimum %v != recomputed %v", cost, m.SocialCost(pl))
	}
	// The optimum must not exceed the all-remote cost.
	if cost > m.SocialCost(allRemote(m))+1e-9 {
		t.Fatal("exact optimum worse than all-remote")
	}
	if err := m.CheckCapacity(pl, 0); err != nil {
		t.Fatalf("optimum violates capacity: %v", err)
	}
}

func TestExactOptimumSpaceLimit(t *testing.T) {
	m := smallMarket(t, 30)
	if _, _, err := ExactOptimum(m, 1000); err == nil {
		t.Fatal("space limit not enforced")
	}
}

// TestNashAtLeastOptimum: any Nash equilibrium's social cost is >= OPT, and
// the realized PoA is finite and >= 1.
func TestNashAtLeastOptimum(t *testing.T) {
	m := smallMarket(t, 5)
	g := New(m)
	_, opt, err := ExactOptimum(m, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	_, worst, err := g.WorstNashSocialCost(allRemote(m), rng.New(3), 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if worst < opt-1e-9 {
		t.Fatalf("worst NE cost %v below exact optimum %v", worst, opt)
	}
	poa, err := g.EmpiricalPoA(allRemote(m), opt, 20, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if poa < 1-1e-9 {
		t.Fatalf("empirical PoA %v below 1", poa)
	}
}

func TestPoABoundProperties(t *testing.T) {
	// The bound decreases as the coordinated fraction ξ grows.
	prev := math.Inf(1)
	for _, xi := range []float64{0, 0.25, 0.5, 0.75, 1} {
		b := PoABound(2, 3, xi)
		if b <= 0 || math.IsInf(b, 0) || math.IsNaN(b) {
			t.Fatalf("PoABound(2,3,%v) = %v", xi, b)
		}
		if b > prev+1e-9 {
			t.Fatalf("PoA bound not monotone in xi: %v then %v", prev, b)
		}
		prev = b
	}
	if !math.IsInf(PoABound(0, 1, 0.5), 1) {
		t.Fatal("degenerate delta should give +Inf")
	}
}

// TestRealWorkloadDynamics runs the full generated workload through the
// dynamics as an integration check.
func TestRealWorkloadDynamics(t *testing.T) {
	cfg := workload.Default(9)
	cfg.NumProviders = 50
	m, err := workload.GenerateGTITM(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := New(m)
	res, err := g.BestResponseDynamics(allRemote(m), rng.New(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsNash(res.Placement) {
		t.Fatal("workload dynamics did not reach Nash")
	}
	if err := m.CheckCapacity(res.Placement, 0); err != nil {
		t.Fatalf("capacity violated: %v", err)
	}
	// Selfish caching should beat everyone-remote in social cost here (the
	// market is lightly loaded), sanity-checking that caching is rational.
	if m.SocialCost(res.Placement) >= m.SocialCost(allRemote(m)) {
		t.Fatal("equilibrium no better than all-remote on a lightly loaded market")
	}
}

func TestWorstNashValidatesBase(t *testing.T) {
	m := smallMarket(t, 3)
	g := New(m)
	if _, _, err := g.WorstNashSocialCost(mec.Placement{0}, rng.New(1), 1, 0); err == nil {
		t.Fatal("short base placement accepted")
	}
}

func BenchmarkBestResponseDynamics100(b *testing.B) {
	cfg := workload.Default(4)
	cfg.NumProviders = 100
	m, err := workload.GenerateGTITM(250, cfg)
	if err != nil {
		b.Fatal(err)
	}
	g := New(m)
	init := make(mec.Placement, len(m.Providers))
	for l := range init {
		init[l] = mec.Remote
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.BestResponseDynamics(init, rng.New(uint64(i)), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPriceOfStability(t *testing.T) {
	m := smallMarket(t, 5)
	g := New(m)
	_, opt, err := ExactOptimum(m, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	base := allRemote(m)
	_, best, err := g.BestNashSocialCost(base, rng.New(3), 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, worst, err := g.WorstNashSocialCost(base, rng.New(3), 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best > worst+1e-9 {
		t.Fatalf("best NE %v exceeds worst NE %v", best, worst)
	}
	if best < opt-1e-9 {
		t.Fatalf("best NE %v below optimum %v", best, opt)
	}
	pos, err := g.EmpiricalPoS(base, opt, 20, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	poa, err := g.EmpiricalPoA(base, opt, 20, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pos < 1-1e-9 || pos > poa+1e-9 {
		t.Fatalf("PoS %v outside [1, PoA=%v]", pos, poa)
	}
	if _, err := g.EmpiricalPoS(base, 0, 1, 0, 1); err == nil {
		t.Fatal("zero reference optimum accepted")
	}
}
