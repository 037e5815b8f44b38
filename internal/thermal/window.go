package thermal

import (
	"fmt"
	"sync"
)

// WindowResponse is the horizon the convex program constrains: m steps
// of a discretization. Every in-window temperature is affine in the
// initial state and the (constant) power vector,
//
//	T_k = A^k·T_0 + S_k·p + Σ_{j<k} A^j·d,   S_k = Σ_{j<k} A^j·B,
//
// with nonnegative gains S_k (heat only heats), which is what makes
// t ≤ tmax convex in the frequencies. The window stores none of these
// matrices: its users read the entries they need off forward
// simulations through Discrete.Advance — a column of S_k is the window
// simulated from zero under a column of B as the drive — and may keep
// what they derive with the window (Memo).
type WindowResponse struct {
	disc *Discrete
	m    int
	memo sync.Map // key -> *memoEntry (Memo)
}

type memoEntry struct {
	once sync.Once
	v    any
}

// Window returns the response of horizon m steps.
func (d *Discrete) Window(m int) (*WindowResponse, error) {
	if m < 1 {
		return nil, fmt.Errorf("thermal: window horizon %d, want >= 1", m)
	}
	return &WindowResponse{disc: d, m: m}, nil
}

// Steps returns the horizon m.
func (w *WindowResponse) Steps() int { return w.m }

// Dt returns the step length of the underlying discretization.
func (w *WindowResponse) Dt() float64 { return w.disc.Dt }

// Discrete returns the discretization the window was built from.
func (w *WindowResponse) Discrete() *Discrete { return w.disc }

// Memo returns what a user of the window derived from it under key:
// build runs on the first call for that key (concurrent first calls
// run it once) and every call shares its result, which lives as long
// as the window and must not be modified. core compiles its
// temperature rows through it, once per window.
func (w *WindowResponse) Memo(key any, build func() any) any {
	e, _ := w.memo.LoadOrStore(key, &memoEntry{})
	me := e.(*memoEntry)
	me.once.Do(func() { me.v = build() })
	return me.v
}
