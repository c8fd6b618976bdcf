package gap

import (
	"math"
	"reflect"
	"testing"

	"mecache/internal/rng"
)

// randomTransport builds a random congestion-transport reduction shaped
// like the Appro virtual-cloudlet instances.
func randomTransport(r *rng.Source, n, m int) ([][]float64, []int, func(int, int) float64) {
	base := make([][]float64, n)
	for j := range base {
		base[j] = make([]float64, m)
		for i := range base[j] {
			if r.Float64() < 0.1 {
				base[j][i] = math.Inf(1)
			} else {
				base[j][i] = r.FloatRange(0.1, 5)
			}
		}
		base[j][m-1] = r.FloatRange(1, 6) // last bin always open (remote-like)
	}
	slots := make([]int, m)
	total := 0
	for i := range slots {
		slots[i] = r.IntRange(0, 3)
		total += slots[i]
	}
	for total < n { // keep the instance feasible
		slots[m-1]++
		total++
	}
	coeff := make([]float64, m)
	for i := range coeff {
		coeff[i] = r.FloatRange(0, 0.5)
	}
	marginal := func(bin, k int) float64 { return coeff[bin] * float64(k) }
	return base, slots, marginal
}

func TestTransportWarmExactHit(t *testing.T) {
	r := rng.New(11)
	base, slots, marginal := randomTransport(r, 40, 12)
	st := &TransportState{}
	cold, err := SolveCongestionTransport(base, slots, marginal)
	if err != nil {
		t.Fatal(err)
	}
	first, warm, err := SolveCongestionTransportWarm(base, slots, marginal, st)
	if err != nil || warm {
		t.Fatalf("first solve: warm=%v err=%v", warm, err)
	}
	second, warm, err := SolveCongestionTransportWarm(base, slots, marginal, st)
	if err != nil || !warm {
		t.Fatalf("second solve: warm=%v err=%v", warm, err)
	}
	if !reflect.DeepEqual(cold.Bin, first.Bin) || !reflect.DeepEqual(cold.Bin, second.Bin) {
		t.Fatalf("warm bins diverge from cold:\ncold  %v\nfirst %v\nhit   %v", cold.Bin, first.Bin, second.Bin)
	}
	if math.Float64bits(cold.Cost) != math.Float64bits(second.Cost) {
		t.Fatalf("warm cost %v != cold %v", second.Cost, cold.Cost)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	// Mutating the result must not poison the cache.
	second.Bin[0] = -99
	third, warm, err := SolveCongestionTransportWarm(base, slots, marginal, st)
	if err != nil || !warm || !reflect.DeepEqual(cold.Bin, third.Bin) {
		t.Fatalf("cache aliased caller mutation: %v", third.Bin)
	}
}

func TestTransportWarmPatchedRowsMatchCold(t *testing.T) {
	r := rng.New(23)
	base, slots, marginal := randomTransport(r, 50, 14)
	st := &TransportState{}
	if _, _, err := SolveCongestionTransportWarm(base, slots, marginal, st); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 25; round++ {
		// Perturb a few rows' finite entries, keeping the +Inf pattern.
		for k := 0; k < 3; k++ {
			j := r.Intn(len(base))
			for i := range base[j] {
				if !math.IsInf(base[j][i], 1) {
					base[j][i] = r.FloatRange(0.1, 5)
				}
			}
		}
		cold, err := SolveCongestionTransport(base, slots, marginal)
		if err != nil {
			t.Fatal(err)
		}
		warmSol, warm, err := SolveCongestionTransportWarm(base, slots, marginal, st)
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			t.Fatalf("round %d: changed rows reported as exact hit", round)
		}
		if !reflect.DeepEqual(cold.Bin, warmSol.Bin) {
			t.Fatalf("round %d: patched solve diverges from cold\ncold %v\nwarm %v", round, cold.Bin, warmSol.Bin)
		}
		if math.Float64bits(cold.Cost) != math.Float64bits(warmSol.Cost) {
			t.Fatalf("round %d: cost %v != %v", round, warmSol.Cost, cold.Cost)
		}
	}
	if st.Patched == 0 {
		t.Fatalf("patch path never taken (patched=%d misses=%d)", st.Patched, st.Misses)
	}
}

func TestTransportWarmStructuralChangeRebuilds(t *testing.T) {
	r := rng.New(31)
	base, slots, marginal := randomTransport(r, 30, 10)
	st := &TransportState{}
	if _, _, err := SolveCongestionTransportWarm(base, slots, marginal, st); err != nil {
		t.Fatal(err)
	}
	// Flip a forbidden pair to finite: one changed row, which the
	// incremental repair serves — still matching cold.
	for j := range base {
		flipped := false
		for i := range base[j] {
			if math.IsInf(base[j][i], 1) {
				base[j][i] = 0.01
				flipped = true
				break
			}
		}
		if flipped {
			break
		}
	}
	cold, err := SolveCongestionTransport(base, slots, marginal)
	if err != nil {
		t.Fatal(err)
	}
	warmSol, warm, err := SolveCongestionTransportWarm(base, slots, marginal, st)
	if err != nil || warm {
		t.Fatalf("warm=%v err=%v", warm, err)
	}
	if !reflect.DeepEqual(cold.Bin, warmSol.Bin) {
		t.Fatalf("rebuild diverges from cold\ncold %v\nwarm %v", cold.Bin, warmSol.Bin)
	}
	if st.Patched != 1 {
		t.Fatalf("+Inf flip not repaired incrementally (patched=%d)", st.Patched)
	}
	// Growing the instance must also rebuild cleanly.
	base = append(base, append([]float64(nil), base[0]...))
	slots[len(slots)-1]++
	cold2, err := SolveCongestionTransport(base, slots, marginal)
	if err != nil {
		t.Fatal(err)
	}
	warm2, _, err := SolveCongestionTransportWarm(base, slots, marginal, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold2.Bin, warm2.Bin) {
		t.Fatalf("grown instance diverges\ncold %v\nwarm %v", cold2.Bin, warm2.Bin)
	}
	// Repricing a bin's slot chain is structural: it must rebuild.
	patched := st.Patched
	repriced := func(bin, k int) float64 { return marginal(bin, k) + 0.5 }
	cold3, err := SolveCongestionTransport(base, slots, repriced)
	if err != nil {
		t.Fatal(err)
	}
	warm3, _, err := SolveCongestionTransportWarm(base, slots, repriced, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold3.Bin, warm3.Bin) {
		t.Fatalf("repriced chains diverge\ncold %v\nwarm %v", cold3.Bin, warm3.Bin)
	}
	if st.Patched != patched {
		t.Fatalf("repriced slot chain took the incremental path (patched=%d)", st.Patched)
	}
}

func TestTransportWarmInvalidate(t *testing.T) {
	r := rng.New(41)
	base, slots, marginal := randomTransport(r, 20, 8)
	st := &TransportState{}
	if _, _, err := SolveCongestionTransportWarm(base, slots, marginal, st); err != nil {
		t.Fatal(err)
	}
	st.Invalidate()
	_, warm, err := SolveCongestionTransportWarm(base, slots, marginal, st)
	if err != nil || warm {
		t.Fatalf("invalidated state still hit: warm=%v err=%v", warm, err)
	}
	var nilState *TransportState
	nilState.Invalidate() // must not panic
}
