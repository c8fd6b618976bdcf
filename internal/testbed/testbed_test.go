package testbed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mecache/internal/baselines"
	"mecache/internal/core"
	"mecache/internal/mec"
)

func newBed(t *testing.T, seed uint64) *Testbed {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Workload.NumProviders = 30
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestUnderlayShape(t *testing.T) {
	u, err := NewUnderlay()
	if err != nil {
		t.Fatal(err)
	}
	if u.NumSwitches() != 5 || len(u.Servers) != 5 {
		t.Fatalf("underlay has %d switches / %d servers, want 5/5", u.NumSwitches(), len(u.Servers))
	}
	// Resilience requirement: every switch connected to at least two others.
	for s := 0; s < u.NumSwitches(); s++ {
		deg := 0
		for o := 0; o < u.NumSwitches(); o++ {
			if o != s && u.PathLatencyMs(s, o) > 0 {
				if len(u.SwitchPath(s, o)) == 2 {
					deg++
				}
			}
		}
		if deg < 2 {
			t.Fatalf("switch %d has degree %d, want >= 2", s, deg)
		}
	}
	// Path latency is symmetric and satisfies identity.
	for a := 0; a < 5; a++ {
		if u.PathLatencyMs(a, a) != 0 {
			t.Fatalf("self latency of %d = %v", a, u.PathLatencyMs(a, a))
		}
		for b := 0; b < 5; b++ {
			if math.Abs(u.PathLatencyMs(a, b)-u.PathLatencyMs(b, a)) > 1e-12 {
				t.Fatalf("asymmetric latency between %d and %d", a, b)
			}
		}
	}
}

func TestNewDefaultsToAS1755(t *testing.T) {
	tb := newBed(t, 1)
	if tb.Overlay.N() != 87 {
		t.Fatalf("overlay size %d, want 87 (AS1755)", tb.Overlay.N())
	}
	if len(tb.HostServer) != 87 {
		t.Fatalf("host mapping covers %d nodes", len(tb.HostServer))
	}
	for v, s := range tb.HostServer {
		if s < 0 || s >= 5 {
			t.Fatalf("overlay node %d hosted on invalid server %d", v, s)
		}
	}
}

func TestGTITMOverlay(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.OverlaySize = 60
	cfg.Workload.NumProviders = 20
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Overlay.N() != 60 {
		t.Fatalf("overlay size %d, want 60", tb.Overlay.N())
	}
}

func TestDeployInstallsTraceablePaths(t *testing.T) {
	tb := newBed(t, 5)
	res, err := core.LCF(tb.Market, core.LCFOptions{Xi: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := tb.Deploy(res.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Controller.TotalRules() == 0 {
		t.Fatal("no flow rules installed")
	}
	// Every provider's request flow must be traceable from its attachment
	// node to its serving node via the installed rules.
	for l, s := range res.Placement {
		p := &tb.Market.Providers[l]
		path, err := dep.Controller.TracePath(l, RequestFlow, p.AttachNode)
		if err != nil {
			t.Fatalf("provider %d: %v", l, err)
		}
		var want int
		if s == mec.Remote {
			want = tb.Market.Net.DCs[p.HomeDC].Node
		} else {
			want = tb.Market.Net.Cloudlets[s].Node
		}
		if path[len(path)-1] != want {
			t.Fatalf("provider %d request flow ends at %d, want %d", l, path[len(path)-1], want)
		}
		// Path length must equal the market's hop count (pricing parity).
		if got, wantHops := len(path)-1, tb.Market.Net.Hops(p.AttachNode, want); got != wantHops {
			t.Fatalf("provider %d path has %d hops, market prices %d", l, got, wantHops)
		}
	}
}

func TestTenantCountsMatchPlacement(t *testing.T) {
	tb := newBed(t, 7)
	res, err := baselines.OffloadCache(tb.Market)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := tb.Deploy(res.Placement)
	if err != nil {
		t.Fatal(err)
	}
	loads := tb.Market.Loads(res.Placement)
	for i, want := range loads {
		if dep.TenantCount[i] != want {
			t.Fatalf("cloudlet %d tenant count %d (from flow tables), placement says %d", i, dep.TenantCount[i], want)
		}
	}
}

// TestMeasuredCostEqualsModelCost is the test-bed's end-to-end contract:
// the cost recomputed from installed artifacts must equal the analytic
// social cost of the placement.
func TestMeasuredCostEqualsModelCost(t *testing.T) {
	tb := newBed(t, 11)
	for name, place := range map[string]func() (mec.Placement, error){
		"lcf": func() (mec.Placement, error) {
			r, err := core.LCF(tb.Market, core.LCFOptions{Xi: 0.7, Seed: 2})
			if err != nil {
				return nil, err
			}
			return r.Placement, nil
		},
		"jooffloadcache": func() (mec.Placement, error) {
			r, err := baselines.JoOffloadCache(tb.Market, 3)
			if err != nil {
				return nil, err
			}
			return r.Placement, nil
		},
		"offloadcache": func() (mec.Placement, error) {
			r, err := baselines.OffloadCache(tb.Market)
			if err != nil {
				return nil, err
			}
			return r.Placement, nil
		},
	} {
		pl, err := place()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dep, err := tb.Deploy(pl)
		if err != nil {
			t.Fatalf("%s deploy: %v", name, err)
		}
		meas, err := tb.Measure(dep, 1)
		if err != nil {
			t.Fatalf("%s measure: %v", name, err)
		}
		want := tb.Market.SocialCost(pl)
		if math.Abs(meas.MeasuredSocialCost-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("%s: measured cost %v != model cost %v", name, meas.MeasuredSocialCost, want)
		}
		if meas.FlowsCompleted != len(tb.Market.Providers) {
			t.Fatalf("%s: %d flows completed, want %d", name, meas.FlowsCompleted, len(tb.Market.Providers))
		}
		if meas.MeanLatencyMs <= 0 || meas.MaxLatencyMs < meas.MeanLatencyMs {
			t.Fatalf("%s: implausible latencies mean=%v max=%v", name, meas.MeanLatencyMs, meas.MaxLatencyMs)
		}
	}
}

// Property: measured cost parity holds across random seeds and placements.
func TestMeasuredCostParityProperty(t *testing.T) {
	check := func(seed uint64) bool {
		cfg := DefaultConfig(seed)
		cfg.Workload.NumProviders = 15
		tb, err := New(cfg)
		if err != nil {
			return false
		}
		res, err := core.LCF(tb.Market, core.LCFOptions{Xi: 0.5, Seed: seed})
		if err != nil {
			return false
		}
		dep, err := tb.Deploy(res.Placement)
		if err != nil {
			return false
		}
		meas, err := tb.Measure(dep, seed)
		if err != nil {
			return false
		}
		want := tb.Market.SocialCost(res.Placement)
		return math.Abs(meas.MeasuredSocialCost-want) <= 1e-6*math.Max(1, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(18))}); err != nil {
		t.Fatal(err)
	}
}

func TestCachedTrafficLowerLatencyThanRemote(t *testing.T) {
	// Latency rationale of the paper's introduction: serving from a cloudlet
	// near users beats the remote DC. Compare everyone-remote vs LCF.
	tb := newBed(t, 13)
	n := len(tb.Market.Providers)
	remote := make(mec.Placement, n)
	for l := range remote {
		remote[l] = mec.Remote
	}
	depR, err := tb.Deploy(remote)
	if err != nil {
		t.Fatal(err)
	}
	measR, err := tb.Measure(depR, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.LCF(tb.Market, core.LCFOptions{Xi: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	depL, err := tb.Deploy(res.Placement)
	if err != nil {
		t.Fatal(err)
	}
	measL, err := tb.Measure(depL, 1)
	if err != nil {
		t.Fatal(err)
	}
	if measL.MeanLatencyMs >= measR.MeanLatencyMs {
		t.Fatalf("caching did not reduce mean latency: %v (LCF) vs %v (remote)", measL.MeanLatencyMs, measR.MeanLatencyMs)
	}
}

func TestControllerLoopDetection(t *testing.T) {
	// A path that revisits a node creates a forwarding cycle under
	// first-match semantics: 0 -> 1 -> 0, with the delivery rule at the
	// second visit of 0 shadowed by the earlier forward rule.
	c := NewController(3)
	if err := c.InstallPath(0, RequestFlow, []int{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TracePath(0, RequestFlow, 0); err == nil {
		t.Fatal("forwarding loop not detected")
	}
}

func TestControllerFirstMatchWins(t *testing.T) {
	// Later conflicting installs are shadowed by earlier rules, mirroring
	// OpenFlow priority; the original path stays authoritative.
	c := NewController(3)
	if err := c.InstallPath(0, RequestFlow, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallPath(0, RequestFlow, []int{1, 0}); err != nil {
		t.Fatal(err)
	}
	path, err := c.TracePath(0, RequestFlow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[0] != 0 || path[1] != 1 {
		t.Fatalf("trace = %v, want [0 1]", path)
	}
}

func TestControllerValidation(t *testing.T) {
	c := NewController(2)
	if err := c.InstallPath(0, RequestFlow, nil); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := c.InstallPath(0, RequestFlow, []int{5}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := c.TracePath(9, RequestFlow, 0); err == nil {
		t.Fatal("trace of unknown provider succeeded")
	}
}

func TestMeasureNilDeployment(t *testing.T) {
	tb := newBed(t, 1)
	if _, err := tb.Measure(nil, 1); err == nil {
		t.Fatal("nil deployment accepted")
	}
}

func BenchmarkDeployMeasure(b *testing.B) {
	cfg := DefaultConfig(1)
	cfg.Workload.NumProviders = 50
	tb, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.LCF(tb.Market, core.LCFOptions{Xi: 0.7, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep, err := tb.Deploy(res.Placement)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tb.Measure(dep, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestContentionModel(t *testing.T) {
	tb := newBed(t, 17)
	res, err := core.LCF(tb.Market, core.LCFOptions{Xi: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := tb.Deploy(res.Placement)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := tb.Measure(dep, 1)
	if err != nil {
		t.Fatal(err)
	}
	if meas.MeanTransferMs <= 0 {
		t.Fatalf("mean transfer %v, want positive", meas.MeanTransferMs)
	}
	if meas.MaxLinkFlows <= 0 {
		t.Fatal("no link carried any flow despite cross-server traffic")
	}
	if meas.MeanTransferMs >= meas.MeanLatencyMs {
		t.Fatalf("transfer %v should be only part of total latency %v", meas.MeanTransferMs, meas.MeanLatencyMs)
	}
}

func TestContentionGrowsWithLoad(t *testing.T) {
	// More providers on the same substrate must raise the hotspot count
	// and (weakly) the mean transfer time.
	run := func(providers int) *Measurement {
		cfg := DefaultConfig(23)
		cfg.Workload.NumProviders = providers
		tb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := baselines.OffloadCache(tb.Market)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := tb.Deploy(res.Placement)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := tb.Measure(dep, 1)
		if err != nil {
			t.Fatal(err)
		}
		return meas
	}
	light := run(10)
	heavy := run(80)
	if heavy.MaxLinkFlows <= light.MaxLinkFlows {
		t.Fatalf("hotspot did not grow: %d -> %d", light.MaxLinkFlows, heavy.MaxLinkFlows)
	}
}
