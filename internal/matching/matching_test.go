package matching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mecache/internal/rng"
)

func TestTinyKnown(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	assign, total, err := MinCostAssignment(cost)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: row0->col1 (1), row1->col0 (2), row2->col2 (2) = 5.
	if total != 5 {
		t.Fatalf("total = %v, want 5 (assign=%v)", total, assign)
	}
}

func TestRectangular(t *testing.T) {
	cost := [][]float64{
		{10, 1, 10, 10},
		{10, 10, 1, 10},
	}
	assign, total, err := MinCostAssignment(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || assign[0] != 1 || assign[1] != 2 {
		t.Fatalf("assign=%v total=%v, want [1 2] / 2", assign, total)
	}
}

func TestForbiddenEntriesAvoided(t *testing.T) {
	cost := [][]float64{
		{Forbidden, 5},
		{1, Forbidden},
	}
	assign, total, err := MinCostAssignment(cost)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 1 || assign[1] != 0 || total != 6 {
		t.Fatalf("assign=%v total=%v, want [1 0] / 6", assign, total)
	}
}

func TestNoPerfectMatching(t *testing.T) {
	cost := [][]float64{
		{Forbidden, Forbidden},
		{1, 2},
	}
	if _, _, err := MinCostAssignment(cost); err == nil {
		t.Fatal("expected no-perfect-matching error")
	}
}

func TestEmptyMatrix(t *testing.T) {
	assign, total, err := MinCostAssignment(nil)
	if err != nil || assign != nil || total != 0 {
		t.Fatalf("empty matrix: got (%v,%v,%v)", assign, total, err)
	}
}

func TestValidation(t *testing.T) {
	if _, _, err := MinCostAssignment([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged matrix not rejected")
	}
	if _, _, err := MinCostAssignment([][]float64{{1}, {2}}); err == nil {
		t.Fatal("more rows than columns not rejected")
	}
	if _, _, err := MinCostAssignment([][]float64{{math.NaN()}}); err == nil {
		t.Fatal("NaN cost not rejected")
	}
}

func bruteForce(cost [][]float64) float64 {
	n, m := len(cost), len(cost[0])
	cols := make([]int, m)
	for j := range cols {
		cols[j] = j
	}
	best := math.Inf(1)
	used := make([]bool, m)
	var rec func(row int, acc float64)
	rec = func(row int, acc float64) {
		// No acc-based pruning: costs may be negative, so a partial sum is
		// not a lower bound on the completion.
		if row == n {
			if acc < best {
				best = acc
			}
			return
		}
		for j := 0; j < m; j++ {
			if !used[j] && !math.IsInf(cost[row][j], 1) {
				used[j] = true
				rec(row+1, acc+cost[row][j])
				used[j] = false
			}
		}
	}
	rec(0, 0)
	return best
}

func TestMatchesBruteForce(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(5)
		m := n + r.Intn(3)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				if r.Bool(0.15) {
					cost[i][j] = Forbidden
				} else {
					cost[i][j] = r.FloatRange(0, 10)
				}
			}
		}
		want := bruteForce(cost)
		assign, got, err := MinCostAssignment(cost)
		if math.IsInf(want, 1) {
			return err != nil
		}
		if err != nil {
			return false
		}
		// Assignment must be a valid injection.
		seen := make(map[int]bool)
		for _, j := range assign {
			if j < 0 || j >= m || seen[j] {
				return false
			}
			seen[j] = true
		}
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeCosts(t *testing.T) {
	cost := [][]float64{
		{-5, 0},
		{0, -5},
	}
	_, total, err := MinCostAssignment(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != -10 {
		t.Fatalf("total = %v, want -10", total)
	}
}

func BenchmarkAssignment100(b *testing.B) {
	r := rng.New(1)
	n := 100
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = r.FloatRange(0, 100)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MinCostAssignment(cost); err != nil {
			b.Fatal(err)
		}
	}
}
