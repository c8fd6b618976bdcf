package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mecache/internal/mec"
	"mecache/internal/topology"
)

func TestGenerateDefault(t *testing.T) {
	m, err := GenerateGTITM(100, Default(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Providers); got != 100 {
		t.Fatalf("providers = %d, want 100", got)
	}
	if got := m.Net.NumCloudlets(); got != 10 {
		t.Fatalf("cloudlets = %d, want 10%% of 100", got)
	}
	if got := len(m.Net.DCs); got != 5 {
		t.Fatalf("DCs = %d, want 5", got)
	}
}

func TestParameterRangesRespected(t *testing.T) {
	cfg := Default(7)
	m, err := GenerateGTITM(200, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Net.Cloudlets {
		cl := &m.Net.Cloudlets[i]
		if cl.NumVMs < 15 || cl.NumVMs > 30 {
			t.Fatalf("cloudlet %d VMs = %d outside [15,30]", i, cl.NumVMs)
		}
		if cl.Alpha < 0 || cl.Alpha > 1 || cl.Beta < 0 || cl.Beta > 1 {
			t.Fatalf("cloudlet %d congestion coefficients out of [0,1]", i)
		}
		if cl.TransPricePerGBHop < 0.05 || cl.TransPricePerGBHop >= 0.12 {
			t.Fatalf("cloudlet %d transmission price %v outside [0.05,0.12)", i, cl.TransPricePerGBHop)
		}
		if cl.ProcPricePerGB < 0.15 || cl.ProcPricePerGB >= 0.22 {
			t.Fatalf("cloudlet %d processing price %v outside [0.15,0.22)", i, cl.ProcPricePerGB)
		}
		if cl.BandwidthCap < float64(cl.NumVMs)*10 || cl.BandwidthCap > float64(cl.NumVMs)*100 {
			t.Fatalf("cloudlet %d bandwidth cap %v inconsistent with %d VMs", i, cl.BandwidthCap, cl.NumVMs)
		}
	}
	for l := range m.Providers {
		p := &m.Providers[l]
		if p.Requests < 10 || p.Requests > 50 {
			t.Fatalf("provider %d requests = %d outside [10,50]", l, p.Requests)
		}
		if p.DataGB < 1 || p.DataGB >= 5 {
			t.Fatalf("provider %d data volume %v outside [1,5)", l, p.DataGB)
		}
		if p.UpdateRatio != 0.10 {
			t.Fatalf("provider %d update ratio %v, want 0.10", l, p.UpdateRatio)
		}
		traffic := p.TrafficGBPerReq * 1024
		if traffic < 10 || traffic >= 200 {
			t.Fatalf("provider %d per-request traffic %v MB outside [10,200)", l, traffic)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, err := GenerateGTITM(100, Default(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateGTITM(100, Default(5))
	if err != nil {
		t.Fatal(err)
	}
	for l := range a.Providers {
		if a.Providers[l] != b.Providers[l] {
			t.Fatalf("provider %d differs across identical generations", l)
		}
	}
	for i := range a.Net.Cloudlets {
		if a.Net.Cloudlets[i] != b.Net.Cloudlets[i] {
			t.Fatalf("cloudlet %d differs across identical generations", i)
		}
	}
}

func TestVirtualSlotsPositive(t *testing.T) {
	// Eq. (7) must give every cloudlet at least one virtual slot under the
	// default ranges, or Appro could never cache anything there.
	m, err := GenerateGTITM(150, Default(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range m.VirtualSlots() {
		if s < 1 {
			t.Fatalf("cloudlet %d has %d virtual slots", i, s)
		}
	}
}

func TestCloudletsAtEdgeDCsAtCore(t *testing.T) {
	m, err := GenerateGTITM(200, Default(11))
	if err != nil {
		t.Fatal(err)
	}
	center := func(node int) float64 {
		p := m.Net.Topo.Pos[node]
		dx, dy := p.X-0.5, p.Y-0.5
		return dx*dx + dy*dy
	}
	var dcAvg, clAvg float64
	for _, dc := range m.Net.DCs {
		dcAvg += center(dc.Node)
	}
	dcAvg /= float64(len(m.Net.DCs))
	for i := range m.Net.Cloudlets {
		clAvg += center(m.Net.Cloudlets[i].Node)
	}
	clAvg /= float64(m.Net.NumCloudlets())
	if dcAvg >= clAvg {
		t.Fatalf("DCs (avg center dist %v) should be more central than cloudlets (%v)", dcAvg, clAvg)
	}
}

func TestGenerateOnAS1755(t *testing.T) {
	m, err := Generate(topology.AS1755(), Default(2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Net.NumCloudlets() != 8 { // 10% of 87
		t.Fatalf("cloudlets on AS1755 = %d, want 8", m.Net.NumCloudlets())
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(nil, Default(1)); err == nil {
		t.Fatal("nil topology accepted")
	}
	cfg := Default(1)
	cfg.NumProviders = 0
	if _, err := Generate(topology.AS1755(), cfg); err == nil {
		t.Fatal("zero providers accepted")
	}
	small, err := topology.GTITM(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := Default(1)
	cfg2.NumDCs = 10
	if _, err := Generate(small, cfg2); err == nil {
		t.Fatal("more DCs than nodes accepted")
	}
}

// Property: generation never panics and always yields a market whose remote
// strategy is finite for every provider (the "not to cache" option must
// always be available).
func TestRemoteAlwaysAvailable(t *testing.T) {
	check := func(seed uint64) bool {
		cfg := Default(seed)
		cfg.NumProviders = 20
		m, err := GenerateGTITM(50+int(seed%100), cfg)
		if err != nil {
			return false
		}
		for l := range m.Providers {
			if c := m.RemoteCost(l); c <= 0 || c != c /* NaN */ {
				return false
			}
		}
		pl := make(mec.Placement, len(m.Providers))
		for l := range pl {
			pl[l] = mec.Remote
		}
		return m.SocialCost(pl) > 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerate400(b *testing.B) {
	cfg := Default(1)
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := GenerateGTITM(400, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConfigValidateRejectsMisuse(t *testing.T) {
	if err := Default(1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero providers", func(c *Config) { c.NumProviders = 0 }},
		{"zero-request providers", func(c *Config) { c.Requests = IntRange{0, 50} }},
		{"inverted requests", func(c *Config) { c.Requests = IntRange{50, 10} }},
		{"negative price", func(c *Config) { c.TransPricePerGB = Range{-0.05, 0.12} }},
		{"inverted price", func(c *Config) { c.ProcPricePerGB = Range{0.22, 0.15} }},
		{"NaN volume", func(c *Config) { c.DataGB = Range{math.NaN(), 5} }},
		{"infinite demand", func(c *Config) { c.ComputeDemand = Range{0.5, math.Inf(1)} }},
		{"cloudlet fraction > 1", func(c *Config) { c.CloudletFraction = 1.5 }},
		{"negative cloudlet fraction", func(c *Config) { c.CloudletFraction = -0.1 }},
		{"negative DCs", func(c *Config) { c.NumDCs = -1 }},
		{"negative update ratio", func(c *Config) { c.UpdateRatio = -0.1 }},
		{"negative VM range", func(c *Config) { c.VMs = IntRange{-3, 10} }},
		{"inverted backhaul", func(c *Config) { c.BackhaulHops = IntRange{15, 8} }},
	}
	for _, tc := range cases {
		cfg := Default(1)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
		}
		if _, err := GenerateGTITM(80, cfg); err == nil {
			t.Errorf("%s: GenerateGTITM accepted the config", tc.name)
		}
	}
}

func TestGenerateValidatesBeforeDrawing(t *testing.T) {
	// A config that would previously panic inside the rng layer (uniform
	// draw over an inverted interval) must surface as an error instead.
	cfg := Default(2)
	cfg.TrafficPerReqMB = Range{200, 10}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Generate panicked: %v", r)
		}
	}()
	if _, err := GenerateGTITM(60, cfg); err == nil {
		t.Fatal("inverted range accepted")
	}
}
