package core

import (
	"math"
	"testing"

	"protemp/internal/linalg"
	"protemp/internal/power"
	"protemp/internal/solver"
)

// uniformPeak is the dense full-scan reference for uniformFits: the
// peak constrained temperature over the window with every core at
// normalized frequency fn, each row evaluated as c0 + coef·pn (NaN
// rows never raise the peak).
func uniformPeak(chip *power.Chip, rows []tempRow, fn float64, pn linalg.Vector) float64 {
	for j := range pn {
		model := chip.CoreModelOf(j)
		pn[j] = model.AtFrequency(fn*model.FMax) / model.PMax
	}
	peak := math.Inf(-1)
	for _, r := range rows {
		if t := r.c0 + r.coef.Dot(pn); t > peak {
			peak = t
		}
	}
	return peak
}

// uniformScalarPeak is uniformPeak over the scalar form uniformFits
// reads, each row as c0 + idle + dyn·fn².
func uniformScalarPeak(rows []tempRow, fn float64) float64 {
	peak, f2 := math.Inf(-1), fn*fn
	for _, r := range rows {
		if t := r.c0 + r.idle + r.dyn*f2; t > peak {
			peak = t
		}
	}
	return peak
}

// TestUniformFitsMatchesPeakScan pins the short-circuiting probe to the
// full scans: over a grid of thermal maps, each with its hottest row
// set to NaN, and frequencies across [0, 1], the verdict matches
// peak <= tmax of both the scalar-form and the dense scan with the
// failing-row hint carried from probe to probe, a fitting probe returns
// the scalar scan's peak bit for bit, the two scans agree within
// 1e-9 °C, and the closed-form uniformMax matches the reference
// bisection on the scalar scan: the same verdict, never below its
// fnMax nor more than its 1e-7 tolerance above, and a value
// uniformFits accepts.
func TestUniformFitsMatchesPeakScan(t *testing.T) {
	f := niagaraFixture(t)
	ref := linalg.NewVector(f.chip.NumCores())
	fails := 0
	for _, tstart := range []float64{27, 47, 67, 87, 97, 107} {
		s := baseSpec(t, tstart, 500)
		in, err := s.build()
		if err != nil {
			t.Fatal(err)
		}
		rows := in.rows
		hottest, peak := 0, math.Inf(-1)
		for i, r := range rows {
			if v := r.c0 + r.coef.Sum(); v > peak {
				hottest, peak = i, v
			}
		}
		rows[hottest].c0 = math.NaN()
		for _, tmax := range []float64{80, 100, 120} {
			hot := 0
			for k := 0; k <= 40; k++ {
				fn := float64(k) / 40
				peak := uniformScalarPeak(rows, fn)
				dense := uniformPeak(f.chip, rows, fn, ref)
				if math.Abs(peak-dense) > 1e-9 {
					t.Fatalf("TStart %g, fn %g: scalar peak %v, dense peak %v", tstart, fn, peak, dense)
				}
				want := peak <= tmax
				gotPeak, got := uniformFits(rows, tmax, fn, &hot)
				if got != want || got != (dense <= tmax) {
					t.Fatalf("TStart %g, tmax %g, fn %g: fits %v, scalar scan %v, dense scan %v", tstart, tmax, fn, got, want, dense <= tmax)
				}
				if got && gotPeak != peak {
					t.Fatalf("TStart %g, tmax %g, fn %g: peak %v, full scan %v", tstart, tmax, fn, gotPeak, peak)
				}
				if !want {
					fails++
				}
			}
			got, gotOK, err := uniformMax(t.Context(), tmax, rows)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := solver.BisectMax(0, 1, 1e-7, func(fn float64) bool {
				return uniformScalarPeak(rows, fn) <= tmax
			})
			if gotOK != wantOK || (gotOK && (got < want || got > want+1e-7)) {
				t.Fatalf("TStart %g, tmax %g: uniformMax (%v, %v), reference (%v, %v)", tstart, tmax, got, gotOK, want, wantOK)
			}
			if _, fits := uniformFits(rows, tmax, got, &hot); gotOK && !fits {
				t.Fatalf("TStart %g, tmax %g: uniformMax %v does not fit", tstart, tmax, got)
			}
		}
	}
	if fails == 0 {
		t.Fatal("no probe failed: the grid never exercised the short circuit")
	}
}

// provedInstance returns an instance of a hot, unsupportable Niagara
// point whose Phase I has proved it infeasible, so it holds a dual.
func provedInstance(t *testing.T) (*Spec, *sweepInstance) {
	t.Helper()
	s := baseSpec(t, 97, 900)
	in, err := s.build()
	if err != nil {
		t.Fatal(err)
	}
	opts := solver.DefaultOptions()
	opts.Tol = 1e-7
	if _, err := in.phaseI(s, opts); err == nil {
		t.Fatal("Phase I found a point at 97°C / 900 MHz")
	}
	if in.dual == nil {
		t.Fatal("the infeasible Phase I kept no dual")
	}
	return s, in
}

// TestCertificateMargin checks the certificate's decision rule at its
// boundary: the temperature offsets are shifted so R sits just inside
// and just outside the margin below the lower bound L, and only the
// second proves infeasibility. A certificate that proved within the
// margin would rest on rounding, not on the bound.
func TestCertificateMargin(t *testing.T) {
	s, in := provedInstance(t)
	if !in.certifyInfeasible(s) {
		t.Fatal("the dual of the proving Phase I does not certify its own point")
	}
	l, r, sum := in.dualBound(s)
	if sum <= 0 || l <= r {
		t.Fatalf("bound L %g, R %g, Σλ %g: no proof", l, r, sum)
	}
	base := make([]float64, len(in.temp))
	for i, c := range in.temp {
		base[i] = c.B
	}
	// Shifting every row offset by −δ raises R by δ·Σλ and leaves L.
	shiftTo := func(target float64) {
		delta := (target - r) / sum
		for i, c := range in.temp {
			c.B = base[i] - delta
		}
	}
	for _, tc := range []struct {
		name  string
		gap   float64 // L − R in units of the margin
		proof bool
	}{
		{"inside the margin", 0.5, false},
		{"tie", 0, false},
		{"past the margin", 4, true},
	} {
		shiftTo(l - tc.gap*certMargin*(math.Abs(l)+sum))
		if got := in.certifyInfeasible(s); got != tc.proof {
			_, r2, _ := in.dualBound(s)
			t.Errorf("%s (L − R = %g): certified %v, want %v", tc.name, l-r2, got, tc.proof)
		}
	}
}

// TestCertificateAllocatesNothing pins the certified rung's cost: the
// proof reuses the instance's buffers.
func TestCertificateAllocatesNothing(t *testing.T) {
	s, in := provedInstance(t)
	if allocs := testing.AllocsPerRun(20, func() { in.certifyInfeasible(s) }); allocs != 0 {
		t.Fatalf("certifyInfeasible allocates %.0f times per call", allocs)
	}
}
