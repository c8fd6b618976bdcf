package bench

import (
	"strings"
	"testing"
)

// BenchmarkTracked registers every tracked case as a sub-benchmark so the
// CI bench smoke (`go test -bench . -benchtime 1x`) exercises the exact
// operations the committed BENCH_<pr>.json baseline measures.
func BenchmarkTracked(b *testing.B) {
	for _, c := range Cases() {
		b.Run(c.Name, func(b *testing.B) {
			op, err := c.Setup()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCasesWellFormed checks the tracked-case table itself: names are
// unique, every engine case has its Naive twin at the same scale, and the
// smallest scale's setups actually build and run.
func TestCasesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Cases() {
		if seen[c.Name] {
			t.Fatalf("duplicate case %q", c.Name)
		}
		seen[c.Name] = true
	}
	for name := range seen {
		fam, sc, ok := strings.Cut(name, "/")
		if !ok {
			t.Fatalf("case %q is not family/scale", name)
		}
		if fam == "BestResponseDynamics" || fam == "Reequilibrate" {
			if !seen[fam+"Naive/"+sc] {
				t.Fatalf("case %q has no naive twin", name)
			}
		}
		if (fam == "ReequilibrateChurn" || fam == "ReequilibrateIdle") && !seen[fam+"Cold/"+sc] {
			t.Fatalf("case %q has no cold twin", name)
		}
	}
	for _, c := range Cases() {
		// The churn and idle cases exist only at the largest scale; two ops
		// cover both the admit and the retire step.
		ops := 2
		if !strings.HasPrefix(c.Name, "ReequilibrateChurn") && !strings.HasPrefix(c.Name, "ReequilibrateIdle") {
			if !strings.HasSuffix(c.Name, "/50x25") && c.Name != "MultiTenantAdmission/1tenant" {
				continue
			}
			ops = 1
		}
		op, err := c.Setup()
		if err != nil {
			t.Fatalf("%s: setup: %v", c.Name, err)
		}
		for i := 0; i < ops; i++ {
			if err := op(); err != nil {
				t.Fatalf("%s: op: %v", c.Name, err)
			}
		}
	}
}
