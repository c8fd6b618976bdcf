package dynamic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mecache/internal/fault"
	"mecache/internal/mec"
	"mecache/internal/workload"
)

func TestRunBasic(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Horizon = 100
	sim, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Arrivals == 0 {
		t.Fatal("no arrivals over 100 time units at rate 1")
	}
	if m.Epochs == 0 {
		t.Fatal("no re-optimization epochs")
	}
	if m.TimeAvgSocialCost <= 0 {
		t.Fatalf("time-averaged social cost %v", m.TimeAvgSocialCost)
	}
	if m.CachedFraction < 0 || m.CachedFraction > 1 {
		t.Fatalf("cached fraction %v", m.CachedFraction)
	}
	if m.FinalActive != m.Arrivals-m.Departures-0 && m.FinalActive > m.PeakActive {
		t.Fatalf("bookkeeping: final=%d arrivals=%d departures=%d peak=%d",
			m.FinalActive, m.Arrivals, m.Departures, m.PeakActive)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() *Metrics {
		cfg := DefaultConfig(7)
		cfg.Horizon = 60
		sim, err := New(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if *a != *b {
		t.Fatalf("same seed, different metrics:\n%+v\n%+v", a, b)
	}
}

func TestMaxActiveCap(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Horizon = 80
	cfg.ArrivalRate = 5
	cfg.MeanLifetime = 100 // long-lived: the cap must bind
	cfg.MaxActive = 20
	sim, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.PeakActive > 20 {
		t.Fatalf("peak active %d exceeds cap 20", m.PeakActive)
	}
	if m.Rejections == 0 {
		t.Fatal("cap never bound despite overload")
	}
}

func TestEpochsReduceCost(t *testing.T) {
	// Coordinated re-optimization should not make the market worse than a
	// purely selfish one on average.
	run := func(epoch float64) float64 {
		total := 0.0
		for rep := 0; rep < 3; rep++ {
			cfg := DefaultConfig(uint64(rep) + 11)
			cfg.Horizon = 100
			cfg.Epoch = epoch
			sim, err := New(nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			total += m.TimeAvgSocialCost
		}
		return total / 3
	}
	coordinated := run(20)
	selfish := run(0)
	if coordinated > selfish*1.05 {
		t.Fatalf("epoch re-optimization raised the average cost: %v vs selfish %v", coordinated, selfish)
	}
}

func TestNoEpochsMeansNoReconfigurations(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Horizon = 50
	cfg.Epoch = 0
	sim, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Epochs != 0 || m.Reconfigurations != 0 {
		t.Fatalf("selfish-only run reported epochs=%d reconfigs=%d", m.Epochs, m.Reconfigurations)
	}
}

func TestValidation(t *testing.T) {
	bad := DefaultConfig(1)
	bad.Horizon = 0
	if _, err := New(nil, bad); err == nil {
		t.Fatal("zero horizon accepted")
	}
	bad2 := DefaultConfig(1)
	bad2.Xi = 2
	if _, err := New(nil, bad2); err == nil {
		t.Fatal("xi > 1 accepted")
	}
	bad3 := DefaultConfig(1)
	bad3.ArrivalRate = -1
	if _, err := New(nil, bad3); err == nil {
		t.Fatal("negative arrival rate accepted")
	}
}

// Property: capacity constraints hold at the end of every run (the selfish
// joins are capacity-aware and LCF epochs respect Eq. 7).
func TestCapacityInvariantProperty(t *testing.T) {
	check := func(seed uint64) bool {
		cfg := DefaultConfig(seed)
		cfg.Horizon = 40
		cfg.Workload = workload.Default(seed)
		sim, err := New(nil, cfg)
		if err != nil {
			return false
		}
		if _, err := sim.Run(); err != nil {
			return false
		}
		m, pl := sim.m, sim.pl
		if m == nil {
			return true // nobody active at the horizon
		}
		return m.CheckCapacity(pl, 0) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 6, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

func TestArrivalsJoinSelfishly(t *testing.T) {
	// After a run, no active provider should have an improving deviation
	// larger than what churn since the last epoch explains; as a sanity
	// check we at least verify all strategies are valid.
	cfg := DefaultConfig(9)
	cfg.Horizon = 60
	sim, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	m, pl := sim.m, sim.pl
	if m == nil {
		t.Skip("no active providers at horizon")
	}
	if err := m.Validate(pl); err != nil {
		t.Fatal(err)
	}
	for _, c := range pl {
		if c != mec.Remote && (c < 0 || c >= m.Net.NumCloudlets()) {
			t.Fatalf("invalid strategy %d", c)
		}
	}
}

func BenchmarkDynamicRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(uint64(i))
		cfg.Horizon = 50
		sim, err := New(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMigrationAwareReducesChurn(t *testing.T) {
	run := func(aware bool) *Metrics {
		cfg := DefaultConfig(31)
		cfg.Horizon = 120
		cfg.MigrationAware = aware
		sim, err := New(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	free := run(false)
	aware := run(true)
	if aware.Reconfigurations > free.Reconfigurations {
		t.Fatalf("hysteresis increased churn: %d vs %d", aware.Reconfigurations, free.Reconfigurations)
	}
	if aware.MigrationsSuppressed == 0 {
		t.Fatal("hysteresis never suppressed a move")
	}
	if aware.MigrationCost > free.MigrationCost {
		t.Fatalf("hysteresis raised migration spend: %v vs %v", aware.MigrationCost, free.MigrationCost)
	}
	// The static cost may be slightly worse under hysteresis but must stay
	// in the same ballpark (within 10%).
	if aware.TimeAvgSocialCost > free.TimeAvgSocialCost*1.10 {
		t.Fatalf("hysteresis degraded average cost too much: %v vs %v",
			aware.TimeAvgSocialCost, free.TimeAvgSocialCost)
	}
}

func TestMigrationCostAccounted(t *testing.T) {
	cfg := DefaultConfig(33)
	cfg.Horizon = 100
	sim, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Reconfigurations > 0 && m.MigrationCost <= 0 {
		t.Fatalf("%d reconfigurations but zero migration cost", m.Reconfigurations)
	}
}

func TestDiurnalArrivals(t *testing.T) {
	cfg := DefaultConfig(41)
	cfg.Horizon = 150
	cfg.DiurnalPeriod = 50
	sim, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Arrivals == 0 {
		t.Fatal("diurnal market saw no arrivals")
	}
	// The modulated process averages the base rate, so total arrivals stay
	// in the same ballpark as the flat process.
	flatCfg := DefaultConfig(41)
	flatCfg.Horizon = 150
	flatSim, err := New(nil, flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := flatSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := flat.Arrivals/2, flat.Arrivals*2
	if m.Arrivals < lo || m.Arrivals > hi {
		t.Fatalf("diurnal arrivals %d far from flat %d", m.Arrivals, flat.Arrivals)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"NaN horizon", func(c *Config) { c.Horizon = math.NaN() }},
		{"negative rate", func(c *Config) { c.ArrivalRate = -1 }},
		{"NaN rate", func(c *Config) { c.ArrivalRate = math.NaN() }},
		{"zero lifetime", func(c *Config) { c.MeanLifetime = 0 }},
		{"NaN lifetime", func(c *Config) { c.MeanLifetime = math.NaN() }},
		{"negative epoch", func(c *Config) { c.Epoch = -5 }},
		{"NaN epoch", func(c *Config) { c.Epoch = math.NaN() }},
		{"xi above 1", func(c *Config) { c.Xi = 1.5 }},
		{"NaN xi", func(c *Config) { c.Xi = math.NaN() }},
		{"negative max active", func(c *Config) { c.MaxActive = -1 }},
		{"negative diurnal", func(c *Config) { c.DiurnalPeriod = -1 }},
		{"bad fault model", func(c *Config) { c.Fault.CloudletMTBF = -1 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(1)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if _, err := New(nil, cfg); err == nil {
			t.Errorf("%s accepted by New", tc.name)
		}
	}
}

// Satellite: the MaxActive rejection path must count rejections, never fail
// the run, and be deterministic under a fixed seed.
func TestMaxActiveRejectionsDeterministic(t *testing.T) {
	run := func() *Metrics {
		cfg := DefaultConfig(17)
		cfg.Horizon = 60
		cfg.ArrivalRate = 6
		cfg.MeanLifetime = 200 // long-lived: the cap must bind hard
		cfg.MaxActive = 15
		sim, err := New(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run()
		if err != nil {
			t.Fatalf("rejections must never be fatal: %v", err)
		}
		return m
	}
	a, b := run(), run()
	if a.Rejections == 0 {
		t.Fatal("overloaded market saw no rejections")
	}
	if a.PeakActive > 15 {
		t.Fatalf("peak active %d exceeds cap", a.PeakActive)
	}
	if *a != *b {
		t.Fatalf("same seed, different metrics:\n%+v\n%+v", a, b)
	}
	if a.Arrivals != a.Departures+a.FinalActive {
		t.Fatalf("accounting: %d arrivals != %d departures + %d final",
			a.Arrivals, a.Departures, a.FinalActive)
	}
}

// faultyConfig returns a failure-prone market that still runs quickly.
func faultyConfig(seed uint64, policy fault.Policy) Config {
	cfg := DefaultConfig(seed)
	cfg.Horizon = 80
	cfg.Fault = fault.Config{
		CloudletMTBF:   40,
		CloudletMTTR:   6,
		InstanceMTBF:   60,
		DetectionDelay: 0.5,
		WaitTimeout:    15,
		Policy:         policy,
	}
	return cfg
}

func TestFaultPoliciesRun(t *testing.T) {
	for _, policy := range fault.Policies() {
		t.Run(policy.String(), func(t *testing.T) {
			sim, err := New(nil, faultyConfig(21, policy))
			if err != nil {
				t.Fatal(err)
			}
			m, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if m.CloudletOutages == 0 {
				t.Fatal("no cloudlet outages at MTBF 40 over horizon 80")
			}
			if m.Failovers == 0 {
				t.Fatal("outages hit nobody: no failovers recorded")
			}
			if m.Availability < 0 || m.Availability > 1 {
				t.Fatalf("availability %v outside [0,1]", m.Availability)
			}
			if m.Availability == 1 {
				t.Fatal("failures with a positive detection delay left availability at 1")
			}
			if m.SLAViolationFraction < 0 || m.SLAViolationFraction > 1 {
				t.Fatalf("SLA violation fraction %v outside [0,1]", m.SLAViolationFraction)
			}
			if m.SLAViolationFraction < 1-m.Availability-1e-12 {
				t.Fatalf("violations %v below unavailability %v", m.SLAViolationFraction, 1-m.Availability)
			}
			if m.MeanTimeToRecover < 0.5-1e-9 {
				t.Fatalf("mean time to recover %v below the detection delay", m.MeanTimeToRecover)
			}
			// No surviving provider may sit on a failed cloudlet.
			for _, lp := range sim.live {
				if lp.choice != mec.Remote && sim.failedCl[lp.choice] {
					t.Fatalf("provider %d still cached at failed cloudlet %d", lp.id, lp.choice)
				}
			}
		})
	}
}

func TestFaultRunDeterministic(t *testing.T) {
	for _, policy := range fault.Policies() {
		run := func() *Metrics {
			sim, err := New(nil, faultyConfig(33, policy))
			if err != nil {
				t.Fatal(err)
			}
			m, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		a, b := run(), run()
		if *a != *b {
			t.Fatalf("%v: same seed, different metrics:\n%+v\n%+v", policy, a, b)
		}
	}
}

func TestFaultFreeRunUnaffected(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Horizon = 60
	sim, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.CloudletOutages != 0 || m.InstanceCrashes != 0 || m.Failovers != 0 {
		t.Fatalf("fault-free run reported failures: %+v", m)
	}
	if m.Availability != 1 || m.SLAViolationFraction != 0 || m.MeanTimeToRecover != 0 {
		t.Fatalf("fault-free run degraded: %+v", m)
	}
}

func TestWaitForRepairTradesRecoveryForStability(t *testing.T) {
	run := func(policy fault.Policy) *Metrics {
		sim, err := New(nil, faultyConfig(51, policy))
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	replace := run(fault.PolicyReplace)
	wait := run(fault.PolicyWaitForRepair)
	// Waiting providers recover only when their cloudlet repairs (or the
	// timeout fires), so recovery is necessarily slower than re-placement,
	// which completes at the detection delay.
	if wait.MeanTimeToRecover < replace.MeanTimeToRecover {
		t.Fatalf("wait-for-repair recovered faster (%v) than re-place (%v)",
			wait.MeanTimeToRecover, replace.MeanTimeToRecover)
	}
	// And only the wait policy accrues degraded (waiting) time beyond the
	// shared detection windows.
	if wait.SLAViolationFraction <= 1-wait.Availability {
		t.Fatal("wait-for-repair accrued no waiting time")
	}
}

func TestInstanceCrashesOnly(t *testing.T) {
	cfg := DefaultConfig(61)
	cfg.Horizon = 80
	cfg.Fault = fault.Config{
		InstanceMTBF:   30,
		DetectionDelay: 0.2,
		Policy:         fault.PolicyReplace,
	}
	sim, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.InstanceCrashes == 0 {
		t.Fatal("no instance crashes at MTBF 30 over horizon 80")
	}
	if m.CloudletOutages != 0 {
		t.Fatal("cloudlet outages occurred with the process disabled")
	}
	if m.Failovers == 0 {
		t.Fatal("crashes recorded no failovers")
	}
}
