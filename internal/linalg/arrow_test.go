package linalg

import (
	"errors"
	"math/rand"
	"testing"
)

// randomArrow draws a random SPD system with the compiled f/p arrow
// pattern: positive f diagonal, an optional rank-one border (the
// workload constraint), per-f coupling into one dense column (the
// power-frequency constraints; some columns unset to exercise Col=-1)
// and a diagonally dominant dense block (temperature rows).
func randomArrow(rng *rand.Rand, nf, nd int, withV bool) *ArrowKKT {
	k := &ArrowKKT{
		DF:  NewVector(nf),
		VF:  NewVector(nf),
		CF:  NewVector(nf),
		Col: make([]int, nf),
		S:   NewPackedSym(nd),
	}
	for i := 0; i < nf; i++ {
		k.DF[i] = 0.5 + 2*rng.Float64()
		if withV {
			k.VF[i] = rng.NormFloat64()
		}
		if nd > 0 && i%5 != 4 {
			k.Col[i] = i % nd
			k.CF[i] = rng.NormFloat64() * 0.4
		} else {
			k.Col[i] = -1
		}
	}
	g := NewMatrix(nd+3, nd)
	alpha := NewVector(nd + 3)
	for r := 0; r < g.Rows(); r++ {
		alpha[r] = rng.Float64()
		for c := 0; c < nd; c++ {
			g.Set(r, c, rng.NormFloat64())
		}
	}
	k.S.AddSyrk(g, nil, alpha)
	// Dominance keeps H (not just S) positive definite despite the
	// coupling off-diagonals.
	k.S.AddDiag(2 + float64(nf))
	return k
}

// denseFromArrow materializes the full (nf+nd)² matrix.
func denseFromArrow(k *ArrowKKT) *Matrix {
	nf, nd := len(k.DF), k.S.N()
	h := NewMatrix(nf+nd, nf+nd)
	for i := 0; i < nf; i++ {
		h.AddAt(i, i, k.DF[i])
		for j := 0; j < nf; j++ {
			h.AddAt(i, j, k.VF[i]*k.VF[j])
		}
		if col := k.Col[i]; col >= 0 {
			h.AddAt(i, nf+col, k.CF[i])
			h.AddAt(nf+col, i, k.CF[i])
		}
	}
	for i := 0; i < nd; i++ {
		for j := 0; j <= i; j++ {
			v := k.S.At(i, j)
			h.Set(nf+i, nf+j, v)
			h.Set(nf+j, nf+i, v)
		}
	}
	return h
}

func TestArrowFactorMatchesDenseCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		nf, nd int
		withV  bool
	}{
		{1, 1, true},  // uniform variant shape
		{8, 8, true},  // variable variant shape
		{8, 9, true},  // gradient variant shape (dense block borders g)
		{8, 9, false}, // no workload border
		{17, 18, true},
		{40, 41, true},
	} {
		for trial := 0; trial < 5; trial++ {
			k := randomArrow(rng, tc.nf, tc.nd, tc.withV)
			h := denseFromArrow(k)
			n := tc.nf + tc.nd

			var reg float64
			if trial%2 == 1 {
				reg = 1e-3 // regularized-retry parity
			}
			var af ArrowFactor
			if err := af.Factor(k, reg); err != nil {
				t.Fatalf("nf=%d nd=%d: arrow factor: %v", tc.nf, tc.nd, err)
			}
			hr := h.Clone()
			for i := 0; i < n; i++ {
				hr.AddAt(i, i, reg)
			}
			var dc CholFactor
			if err := CholeskyInto(&dc, hr); err != nil {
				t.Fatalf("nf=%d nd=%d: dense factor: %v", tc.nf, tc.nd, err)
			}

			b := NewVector(n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			xa, xd := NewVector(n), NewVector(n)
			if err := af.SolveInto(xa, b); err != nil {
				t.Fatal(err)
			}
			if err := dc.SolveInto(xd, b); err != nil {
				t.Fatal(err)
			}
			if !xa.Equal(xd, 1e-7*(1+xd.NormInf())) {
				t.Fatalf("nf=%d nd=%d reg=%g: arrow solve %v\n!= dense %v", tc.nf, tc.nd, reg, xa, xd)
			}
		}
	}
}

func TestArrowFactorRejectsIndefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(4))

	// Negative f diagonal (no border, so the dense matrix is indefinite
	// too): both paths must refuse.
	k := randomArrow(rng, 4, 4, false)
	k.DF[2] = -1
	var af ArrowFactor
	if err := af.Factor(k, 0); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("negative f diagonal: %v, want ErrNotPositiveDefinite", err)
	}
	var dc CholFactor
	if err := CholeskyInto(&dc, denseFromArrow(k)); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("dense accepts what arrow rejects: %v", err)
	}

	// A coupling strong enough to break the Schur complement: the full
	// matrix is indefinite even though DF and S alone are fine.
	k = randomArrow(rng, 3, 3, false)
	k.S.Reset()
	k.S.AddDiag(0.1)
	k.Col[0], k.CF[0] = 0, 10 // CF²/DF >> S diag
	if err := af.Factor(k, 0); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("indefinite Schur: %v, want ErrNotPositiveDefinite", err)
	}
	if err := CholeskyInto(&dc, denseFromArrow(k)); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("dense accepts indefinite Schur case: %v", err)
	}
}
