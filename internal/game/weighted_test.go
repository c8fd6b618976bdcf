package game

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mecache/internal/mec"
	"mecache/internal/rng"
	"mecache/internal/workload"
)

func TestWeightedDefaultWeightsMeanOne(t *testing.T) {
	m := smallMarket(t, 10)
	g, err := NewWeighted(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, w := range g.Weights {
		if w <= 0 {
			t.Fatalf("non-positive weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum/float64(len(g.Weights))-1) > 1e-12 {
		t.Fatalf("weights not normalized to mean 1: mean %v", sum/float64(len(g.Weights)))
	}
}

func TestWeightedRejectsNonlinearModel(t *testing.T) {
	m := smallMarket(t, 4)
	if err := m.SetCongestionModel(mec.PolynomialCongestion{Degree: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWeighted(m); err == nil {
		t.Fatal("weighted game accepted a non-linear model")
	}
}

func TestSetWeightsValidation(t *testing.T) {
	m := smallMarket(t, 3)
	g, err := NewWeighted(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeights([]float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := g.SetWeights([]float64{1, -1, 2}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := g.SetWeights([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedPotentialExact is the theory check: a unilateral move changes
// the weighted potential by exactly w_l times the mover's cost change.
func TestWeightedPotentialExact(t *testing.T) {
	m := smallMarket(t, 9)
	g, err := NewWeighted(m)
	if err != nil {
		t.Fatal(err)
	}
	check := func(seed uint64) bool {
		r := rng.New(seed)
		nc := m.Net.NumCloudlets()
		pl := make(mec.Placement, len(m.Providers))
		for l := range pl {
			k := r.Intn(nc + 1)
			if k == nc {
				pl[l] = mec.Remote
			} else {
				pl[l] = k
			}
		}
		l := r.Intn(len(pl))
		// Any move (not only improving ones) must satisfy the identity.
		target := r.Intn(nc + 1)
		moved := pl.Clone()
		if target == nc {
			moved[l] = mec.Remote
		} else {
			moved[l] = target
		}
		if moved[l] == pl[l] {
			return true
		}
		dPhi := g.Potential(moved) - g.Potential(pl)
		dCost := g.PlayerCost(moved, l) - g.PlayerCost(pl, l)
		return math.Abs(dPhi-g.Weights[l]*dCost) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedDynamicsConverge(t *testing.T) {
	m := smallMarket(t, 14)
	g, err := NewWeighted(m)
	if err != nil {
		t.Fatal(err)
	}
	init := allRemote(m)
	res, err := g.BestResponseDynamics(init, rng.New(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("weighted dynamics did not converge")
	}
	if !g.IsNash(res.Placement) {
		t.Fatal("weighted equilibrium fails the Nash check")
	}
	if err := m.CheckCapacity(res.Placement, 0); err != nil {
		t.Fatalf("capacity violated: %v", err)
	}
}

// TestUnitWeightsMatchSymmetricGame: with all weights 1 the weighted game
// coincides with the symmetric (count-based) game.
func TestUnitWeightsMatchSymmetricGame(t *testing.T) {
	m := smallMarket(t, 8)
	wg, err := NewWeighted(m)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, len(m.Providers))
	for i := range ones {
		ones[i] = 1
	}
	if err := wg.SetWeights(ones); err != nil {
		t.Fatal(err)
	}
	sg := New(m)
	check := func(seed uint64) bool {
		r := rng.New(seed)
		nc := m.Net.NumCloudlets()
		pl := make(mec.Placement, len(m.Providers))
		for l := range pl {
			k := r.Intn(nc + 1)
			if k == nc {
				pl[l] = mec.Remote
			} else {
				pl[l] = k
			}
		}
		if math.Abs(wg.SocialCost(pl)-m.SocialCost(pl)) > 1e-9 {
			return false
		}
		for l := range pl {
			if math.Abs(wg.PlayerCost(pl, l)-m.ProviderCost(pl, l)) > 1e-9 {
				return false
			}
		}
		_, wc := wg.BestResponse(pl, 0)
		_, sc := sg.BestResponse(pl, 0)
		return math.Abs(wc-sc) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedPinnedPlayers(t *testing.T) {
	m := smallMarket(t, 6)
	g, err := NewWeighted(m)
	if err != nil {
		t.Fatal(err)
	}
	g.Pinned[2] = true
	init := allRemote(m)
	init[2] = 1
	res, err := g.BestResponseDynamics(init, rng.New(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[2] != 1 {
		t.Fatal("pinned player moved in weighted dynamics")
	}
}

// TestHeavyPlayersRepel: a heavy provider on a cloudlet makes it less
// attractive than the same cloudlet hosting a light provider.
func TestHeavyPlayersRepel(t *testing.T) {
	m := smallMarket(t, 3)
	g, err := NewWeighted(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeights([]float64{10, 0.1, 1}); err != nil {
		t.Fatal(err)
	}
	heavyOn0 := mec.Placement{0, mec.Remote, mec.Remote}
	lightOn0 := mec.Placement{mec.Remote, 0, mec.Remote}
	// Player 2's cost of joining cloudlet 0 alongside the heavy tenant
	// must exceed joining alongside the light one.
	joinHeavy := heavyOn0.Clone()
	joinHeavy[2] = 0
	joinLight := lightOn0.Clone()
	joinLight[2] = 0
	if g.PlayerCost(joinHeavy, 2) <= g.PlayerCost(joinLight, 2) {
		t.Fatal("heavy tenant did not raise the congestion charge")
	}
}

func BenchmarkWeightedDynamics(b *testing.B) {
	cfg := workload.Default(4)
	cfg.NumProviders = 60
	m, err := workload.GenerateGTITM(120, cfg)
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewWeighted(m)
	if err != nil {
		b.Fatal(err)
	}
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
