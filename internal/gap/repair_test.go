package gap

import (
	"math"
	"reflect"
	"testing"

	"mecache/internal/rng"
)

// appro is a reduction shaped like Appro's: m-1 cloudlet bins with a few
// slots each, priced by convex congestion, plus a remote bin (the last)
// that every item may use, with one free slot per item.
type appro struct {
	base  [][]float64
	slots []int
	coeff []float64
}

func randomRow(r *rng.Source, m int) []float64 {
	row := make([]float64, m)
	for i := range row {
		if i < m-1 && r.Float64() < 0.15 {
			row[i] = Forbidden
		} else {
			row[i] = r.FloatRange(0.1, 6)
		}
	}
	return row
}

func randomAppro(r *rng.Source, n, m int) *appro {
	a := &appro{slots: make([]int, m), coeff: make([]float64, m)}
	for j := 0; j < n; j++ {
		a.base = append(a.base, randomRow(r, m))
	}
	for i := 0; i < m-1; i++ {
		a.slots[i] = r.IntRange(0, 4)
		a.coeff[i] = r.FloatRange(0.05, 0.8)
	}
	a.slots[m-1] = n
	return a
}

func (a *appro) marginal(bin, k int) float64 {
	return a.coeff[bin] * float64(2*k-1)
}

func (a *appro) appendRow(row []float64) {
	a.base = append(a.base, row)
	a.slots[len(a.slots)-1]++
}

func (a *appro) removeRow(j int) {
	a.base = append(a.base[:j:j], a.base[j+1:]...)
	a.slots[len(a.slots)-1]--
}

// solveBoth solves a with the warm state and cold, failing the test unless
// both agree bit for bit (or both fail). It reports whether the warm solve
// was served by the incremental repair.
func solveBoth(t *testing.T, label string, a *appro, st *TransportState) bool {
	t.Helper()
	cold, cerr := SolveCongestionTransport(a.base, a.slots, a.marginal)
	before := st.Patched
	warm, _, werr := SolveCongestionTransportWarm(a.base, a.slots, a.marginal, st)
	if (cerr == nil) != (werr == nil) {
		t.Fatalf("%s: error mismatch cold=%v warm=%v", label, cerr, werr)
	}
	if cerr != nil {
		return false
	}
	if !reflect.DeepEqual(cold.Bin, warm.Bin) {
		t.Fatalf("%s: bins diverge\ncold %v\nwarm %v", label, cold.Bin, warm.Bin)
	}
	if math.Float64bits(cold.Cost) != math.Float64bits(warm.Cost) {
		t.Fatalf("%s: cost %v != cold %v", label, warm.Cost, cold.Cost)
	}
	return st.Patched > before
}

// TestTransportRepairDifferential applies each kind of small change the
// incremental repair handles to many random reductions and checks every
// warm solve against cold. Each kind must also be served incrementally on
// most trials, so the suite cannot pass by always falling back.
func TestTransportRepairDifferential(t *testing.T) {
	kinds := []struct {
		name   string
		mutate func(r *rng.Source, a *appro)
	}{
		{"append", func(r *rng.Source, a *appro) { a.appendRow(randomRow(r, len(a.slots))) }},
		{"remove-start", func(r *rng.Source, a *appro) { a.removeRow(0) }},
		{"remove-middle", func(r *rng.Source, a *appro) { a.removeRow(len(a.base) / 2) }},
		{"remove-end", func(r *rng.Source, a *appro) { a.removeRow(len(a.base) - 1) }},
		{"reprice", func(r *rng.Source, a *appro) {
			row := a.base[r.Intn(len(a.base))]
			for i := range row {
				if !math.IsInf(row[i], 1) {
					row[i] = r.FloatRange(0.1, 6)
				}
			}
		}},
		{"inf-flip", func(r *rng.Source, a *appro) {
			row := a.base[r.Intn(len(a.base))]
			i := r.Intn(len(row) - 1)
			if math.IsInf(row[i], 1) {
				row[i] = r.FloatRange(0.1, 6)
			} else {
				row[i] = Forbidden
			}
		}},
		{"three-rows", func(r *rng.Source, a *appro) {
			for k := 0; k < 3; k++ {
				a.base[r.Intn(len(a.base))] = randomRow(r, len(a.slots))
			}
		}},
		{"remote-grow", func(r *rng.Source, a *appro) { a.slots[len(a.slots)-1] += 3 }},
		{"remote-shrink", func(r *rng.Source, a *appro) {
			// Below the remote load, so at least one remote item must move.
			load := 0
			sol, err := SolveCongestionTransport(a.base, a.slots, a.marginal)
			if err == nil {
				for _, b := range sol.Bin {
					if b == len(a.slots)-1 {
						load++
					}
				}
			}
			a.slots[len(a.slots)-1] = max(load-1, 0)
		}},
		{"cloudlet-grow", func(r *rng.Source, a *appro) { a.slots[r.Intn(len(a.slots)-1)]++ }},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			r := rng.New(0x5e1 + uint64(len(kind.name)))
			served := 0
			const trials = 30
			for trial := 0; trial < trials; trial++ {
				a := randomAppro(r, r.IntRange(20, 60), r.IntRange(4, 12))
				st := &TransportState{}
				solveBoth(t, "initial", a, st)
				kind.mutate(r, a)
				if solveBoth(t, kind.name, a, st) {
					served++
				}
			}
			if served < trials/2 {
				t.Fatalf("incremental repair served only %d of %d trials", served, trials)
			}
		})
	}
}

// TestTransportRepairChurnSequence runs the daemon's epoch-churn shape: one
// state across many epochs, alternately appending a provider and removing
// the oldest, with an unchanged re-solve (an exact hit) after each change.
func TestTransportRepairChurnSequence(t *testing.T) {
	r := rng.New(0xc42)
	a := randomAppro(r, 80, 16)
	st := &TransportState{}
	solveBoth(t, "initial", a, st)
	served := 0
	const epochs = 60
	for e := 0; e < epochs; e++ {
		if e%2 == 0 {
			a.appendRow(randomRow(r, len(a.slots)))
		} else {
			a.removeRow(0)
		}
		if solveBoth(t, "churn", a, st) {
			served++
		}
		hits := st.Hits
		solveBoth(t, "idle", a, st)
		if st.Hits != hits+1 {
			t.Fatalf("epoch %d: unchanged reduction missed the exact hit", e)
		}
	}
	if served < epochs*9/10 {
		t.Fatalf("incremental repair served %d of %d churned epochs", served, epochs)
	}
}

// TestTransportRepairFallsBackToCold pins the cases the repair must refuse.
func TestTransportRepairFallsBackToCold(t *testing.T) {
	t.Run("duplicate-rows", func(t *testing.T) {
		// Two cheap single-slot bins and two identical items: swapping the
		// items is an exact tie, so the repair cannot certify either
		// assignment and the cold solve decides.
		a := &appro{
			base:  [][]float64{{1, 1.5, 10}, {3, 3, 2}},
			slots: []int{1, 1, 2},
			coeff: []float64{0.1, 0.1, 0},
		}
		st := &TransportState{}
		solveBoth(t, "initial", a, st)
		a.appendRow([]float64{1, 1.5, 10})
		a.base[1] = []float64{1, 1.5, 10}
		if solveBoth(t, "duplicates", a, st) {
			t.Fatal("tied duplicate rows were served incrementally")
		}
	})
	t.Run("random-duplicates", func(t *testing.T) {
		r := rng.New(0xd0b)
		for trial := 0; trial < 20; trial++ {
			a := randomAppro(r, 30, 8)
			st := &TransportState{}
			solveBoth(t, "initial", a, st)
			// Duplicate a row placed in a cloudlet bin that has room for
			// its twin: both copies are then interchangeable with whatever
			// the twin displaces, or the twin goes elsewhere; either way
			// the result must equal cold.
			a.appendRow(append([]float64(nil), a.base[r.Intn(len(a.base))]...))
			solveBoth(t, "duplicate", a, st)
		}
	})
	t.Run("chain-reprice", func(t *testing.T) {
		r := rng.New(0xc4a1)
		a := randomAppro(r, 40, 10)
		st := &TransportState{}
		solveBoth(t, "initial", a, st)
		i := 0
		for a.slots[i] == 0 {
			i++
		}
		a.coeff[i] *= 1.5
		if solveBoth(t, "reprice", a, st) {
			t.Fatal("repriced slot chain was served incrementally")
		}
	})
	t.Run("too-many-rows", func(t *testing.T) {
		r := rng.New(0x70)
		a := randomAppro(r, 60, 10)
		st := &TransportState{}
		solveBoth(t, "initial", a, st)
		for k := 0; k <= maxRepairPaths; k++ {
			a.appendRow(randomRow(r, len(a.slots)))
		}
		if solveBoth(t, "many", a, st) {
			t.Fatal("a change past maxRepairPaths was served incrementally")
		}
	})
}

// TestTransportRepairIntegerTies churns reductions whose costs are small
// integers, so many assignments tie exactly. Every incremental answer the
// certificate lets through must still equal cold.
func TestTransportRepairIntegerTies(t *testing.T) {
	r := rng.New(0x71e5)
	for trial := 0; trial < 10; trial++ {
		a := randomAppro(r, 40, 8)
		for _, row := range a.base {
			for i := range row {
				if !math.IsInf(row[i], 1) {
					row[i] = float64(r.IntRange(1, 4))
				}
			}
		}
		for i := range a.coeff {
			a.coeff[i] = float64(r.IntRange(0, 1))
		}
		st := &TransportState{}
		solveBoth(t, "initial", a, st)
		for e := 0; e < 20; e++ {
			row := make([]float64, len(a.slots))
			for i := range row {
				row[i] = float64(r.IntRange(1, 4))
			}
			if e%2 == 0 {
				a.appendRow(row)
			} else {
				a.removeRow(r.Intn(len(a.base)))
			}
			solveBoth(t, "tied churn", a, st)
		}
	}
}

// TestTransportRepairMarginBoundary pins the certificate's margin: an
// arrival whose best alternative assignment is within δ of the optimum
// falls back to cold, one well clear of it is served incrementally.
func TestTransportRepairMarginBoundary(t *testing.T) {
	delta := certMargin(2, 100)
	for _, tc := range []struct {
		gap    float64
		served bool
	}{{delta / 2, false}, {10 * delta, true}} {
		// Item 0 prefers bin 0 by gap; item 1 is indifferent between the
		// two single-slot bins, so the swap costs exactly gap.
		a := &appro{
			base:  [][]float64{{1, 1 + tc.gap, 100}},
			slots: []int{1, 1, 1},
			coeff: []float64{0, 0, 0},
		}
		st := &TransportState{}
		solveBoth(t, "initial", a, st)
		a.appendRow([]float64{1, 1, 100})
		if got := solveBoth(t, "arrival", a, st); got != tc.served {
			t.Fatalf("gap %g (δ %g): served incrementally = %v, want %v", tc.gap, delta, got, tc.served)
		}
	}
}

// TestTransportRepairMixedSequence carries one state through random mixes
// of every change kind, on costs that are either continuous or rounded to
// halves (so ties are common), checking each solve against cold.
func TestTransportRepairMixedSequence(t *testing.T) {
	for seed := uint64(0); seed < 24; seed++ {
		r := rng.New(0x313 + seed)
		a := randomAppro(r, r.IntRange(5, 60), r.IntRange(2, 14))
		st := &TransportState{}
		solveBoth(t, "initial", a, st)
		for e := 0; e < 20; e++ {
			m := len(a.slots)
			switch r.Intn(6) {
			case 0:
				a.appendRow(randomRow(r, m))
			case 1:
				if len(a.base) > 1 {
					a.removeRow(r.Intn(len(a.base)))
				}
			case 2:
				row, i := a.base[r.Intn(len(a.base))], r.Intn(m-1)
				if math.IsInf(row[i], 1) {
					row[i] = r.FloatRange(0.1, 6)
				} else {
					row[i] = Forbidden
				}
			case 3:
				i := r.Intn(m)
				a.slots[i] = max(a.slots[i]+r.IntRange(-1, 2), 0)
			case 4:
				a.base[r.Intn(len(a.base))] = randomRow(r, m)
			case 5:
				a.appendRow(append([]float64(nil), a.base[r.Intn(len(a.base))]...))
			}
			if seed%2 == 0 {
				for _, row := range a.base {
					for i := range row {
						row[i] = math.Round(row[i]*2) / 2
					}
				}
			}
			solveBoth(t, "mixed", a, st)
		}
	}
}
