// Gradient shaping: compares the paper's three model variants at one
// design point — per-core (variable) assignment, the uniform-frequency
// restriction of Section 5.3, and the gradient-minimizing extension of
// Eqs. 4-5 — showing how the variable assignment buys workload capacity
// and the gradient variant buys spatial uniformity.
package main

import (
	"context"
	"fmt"
	"log"

	"protemp"
	"protemp/internal/core"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	engine, err := protemp.New(protemp.WithWindow(1e-3, 100))
	if err != nil {
		log.Fatal(err)
	}
	const (
		tstart = 85.0
		target = 550e6
	)
	fmt.Printf("design point: tstart %.0f °C, target %.0f MHz average, tmax %.0f °C\n\n",
		tstart, target/1e6, engine.TMax())

	for _, v := range []core.Variant{core.VariantVariable, core.VariantUniform, core.VariantGradient} {
		a, err := engine.OptimizeVariant(ctx, tstart, target, v)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s variant: ", v)
		if !a.Feasible {
			fmt.Println("infeasible")
			continue
		}
		fmt.Printf("avg %.0f MHz, power %.2f W, peak %.2f °C",
			a.AvgFreq/1e6, a.TotalPower, a.PeakTemp)
		if v == core.VariantGradient {
			fmt.Printf(", gradient bound %.2f °C", a.TGrad)
		}
		fmt.Println()
		fmt.Print("  per-core MHz:")
		for _, f := range a.Freqs {
			fmt.Printf(" %4.0f", f/1e6)
		}
		fmt.Println()
	}

	// Section 5.3's capacity argument: sweep the starting temperature
	// and compare the highest supportable average frequency.
	fmt.Println("\nsupported average frequency, uniform vs variable (Fig. 9's claim):")
	fmt.Printf("%8s %10s %10s\n", "tstart", "uniform", "variable")
	for _, ts := range []float64{47, 67, 87, 97} {
		uni, _, err := core.UniformCapacity(&core.Spec{
			Problem: core.Problem{Chip: engine.Chip(), Window: engine.Window(), TMax: engine.TMax(), Variant: core.VariantUniform},
			TStart:  ts,
		})
		if err != nil {
			log.Fatal(err)
		}
		// The variable assignment can always match the uniform optimum;
		// probe a few percent above it to expose strict dominance.
		probe := uni * 1.04
		if probe > engine.Chip().FMax() {
			probe = engine.Chip().FMax()
		}
		a, err := engine.OptimizeVariant(ctx, ts, probe, core.VariantVariable)
		if err != nil {
			log.Fatal(err)
		}
		varSupport := uni
		if a.Feasible {
			varSupport = a.AvgFreq
		}
		fmt.Printf("%8.0f %9.0fM %9.0fM\n", ts, uni/1e6, varSupport/1e6)
	}
}
