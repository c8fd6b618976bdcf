package replica

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mecache/internal/mec"
	"mecache/internal/workload"
)

func genMarket(t *testing.T, seed uint64) *mec.Market {
	t.Helper()
	cfg := workload.Default(seed)
	cfg.NumProviders = 10
	m, err := workload.GenerateGTITM(120, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestZeroBudgetMeansRemote(t *testing.T) {
	m := genMarket(t, 1)
	p, err := NewPlanner(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	groups := UniformGroups([]int{3, 50, 90})
	plan, err := p.PlanReplicas(0, groups, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cloudlets) != 0 {
		t.Fatalf("zero budget placed %d replicas", len(plan.Cloudlets))
	}
	for _, a := range plan.Assignment {
		if a != -1 {
			t.Fatalf("assignment %v should be all-remote", plan.Assignment)
		}
	}
}

// TestMoreReplicasNeverHurt: the greedy stops adding when additions stop
// helping, so cost is non-increasing in the budget.
func TestMoreReplicasNeverHurt(t *testing.T) {
	m := genMarket(t, 2)
	p, err := NewPlanner(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	groups := UniformGroups([]int{3, 40, 70, 100})
	prev := math.Inf(1)
	for budget := 0; budget <= 5; budget++ {
		plan, err := p.PlanReplicas(1, groups, budget)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Cost > prev+1e-9 {
			t.Fatalf("budget %d cost %v exceeds budget %d cost %v", budget, plan.Cost, budget-1, prev)
		}
		prev = plan.Cost
		if len(plan.Cloudlets) > budget {
			t.Fatalf("budget %d exceeded: %d replicas", budget, len(plan.Cloudlets))
		}
	}
}

// TestReplicationBeatsSingleCacheForSpreadUsers: with user groups far
// apart, two replicas should beat the best single replica.
func TestReplicationBeatsSingleCacheForSpreadUsers(t *testing.T) {
	m := genMarket(t, 3)
	p, err := NewPlanner(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Groups at opposite corners of the network (nodes far apart in id
	// space land in different stub clusters for GT-ITM).
	groups := UniformGroups([]int{5, 115})
	one, err := p.PlanReplicas(2, groups, 1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := p.PlanReplicas(2, groups, 2)
	if err != nil {
		t.Fatal(err)
	}
	if two.Cost > one.Cost+1e-9 {
		t.Fatalf("two replicas (%v) should not cost more than one (%v)", two.Cost, one.Cost)
	}
}

// TestAssignmentIsNearest: each group must be assigned to its cheapest
// serving option among the chosen replicas and remote.
func TestAssignmentIsNearest(t *testing.T) {
	m := genMarket(t, 4)
	p, err := NewPlanner(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	groups := UniformGroups([]int{10, 60, 110})
	plan, err := p.PlanReplicas(3, groups, 3)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range groups {
		best := p.groupRemoteCost(3, g)
		bestIdx := -1
		for ri, c := range plan.Cloudlets {
			if cost := p.groupCost(3, g, c); cost < best {
				best = cost
				bestIdx = ri
			}
		}
		if plan.Assignment[gi] != bestIdx {
			t.Fatalf("group %d assigned to %d, cheapest is %d", gi, plan.Assignment[gi], bestIdx)
		}
	}
}

func TestBackgroundLoadRaisesCost(t *testing.T) {
	m := genMarket(t, 5)
	empty, err := NewPlanner(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	busyLoads := make([]int, m.Net.NumCloudlets())
	for i := range busyLoads {
		busyLoads[i] = 10
	}
	busy, err := NewPlanner(m, busyLoads)
	if err != nil {
		t.Fatal(err)
	}
	groups := UniformGroups([]int{20, 80})
	pe, err := empty.PlanReplicas(0, groups, 2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := busy.PlanReplicas(0, groups, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Cost < pe.Cost-1e-9 {
		t.Fatalf("congested network yielded cheaper plan: %v vs %v", pb.Cost, pe.Cost)
	}
}

func TestValidation(t *testing.T) {
	m := genMarket(t, 6)
	if _, err := NewPlanner(nil, nil); err == nil {
		t.Fatal("nil market accepted")
	}
	if _, err := NewPlanner(m, []int{1}); err == nil {
		t.Fatal("wrong-length loads accepted")
	}
	p, err := NewPlanner(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PlanReplicas(99, UniformGroups([]int{1}), 1); err == nil {
		t.Fatal("invalid provider accepted")
	}
	if _, err := p.PlanReplicas(0, nil, 1); err == nil {
		t.Fatal("empty groups accepted")
	}
	if _, err := p.PlanReplicas(0, []UserGroup{{AttachNode: 0, Share: 0.5}}, 1); err == nil {
		t.Fatal("shares not summing to 1 accepted")
	}
	if _, err := p.PlanReplicas(0, []UserGroup{{AttachNode: -1, Share: 1}}, 1); err == nil {
		t.Fatal("invalid attach node accepted")
	}
	if _, err := p.PlanReplicas(0, UniformGroups([]int{1}), -1); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// Property: plan cost is always finite and positive, assignments reference
// valid replicas, and the replica set has no duplicates.
func TestPlanInvariants(t *testing.T) {
	m := genMarket(t, 7)
	p, err := NewPlanner(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(seed uint64) bool {
		l := int(seed % uint64(len(m.Providers)))
		nodes := []int{int(seed % 120), int((seed / 7) % 120), int((seed / 49) % 120)}
		plan, err := p.PlanReplicas(l, UniformGroups(nodes), 3)
		if err != nil {
			return false
		}
		if plan.Cost <= 0 || math.IsInf(plan.Cost, 0) || math.IsNaN(plan.Cost) {
			return false
		}
		seen := make(map[int]bool)
		for _, c := range plan.Cloudlets {
			if c < 0 || c >= m.Net.NumCloudlets() || seen[c] {
				return false
			}
			seen[c] = true
		}
		for _, a := range plan.Assignment {
			if a < -1 || a >= len(plan.Cloudlets) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPlanReplicas(b *testing.B) {
	cfg := workload.Default(8)
	cfg.NumProviders = 10
	m, err := workload.GenerateGTITM(200, cfg)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPlanner(m, nil)
	if err != nil {
		b.Fatal(err)
	}
	groups := UniformGroups([]int{10, 60, 110, 160})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PlanReplicas(i%10, groups, 4); err != nil {
			b.Fatal(err)
		}
	}
}
