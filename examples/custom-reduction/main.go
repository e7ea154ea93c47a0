// Custom reduction: write a new reduction once in the paper's declarative
// form (a ReductionClass over a nested Chapel structure with a hot
// variable), then let the translator run it at all three optimization
// levels — the full §IV pipeline on an application that is neither k-means
// nor PCA.
//
// The computation: weighted per-sensor anomaly counting. The data is
// [1..n] Reading where Reading is record { samples: [1..w] real } — one
// window of w samples per reading. A reading is anomalous for sensor s if
// its mean sample exceeds the sensor's threshold (the hot variable). The
// reduction object counts anomalies and accumulates their magnitudes per
// sensor.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	cf "chapelfreeride"
	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/freeride"
)

const (
	nReadings = 80000
	window    = 16
	nSensors  = 8
)

func main() {
	// Chapel-side dataset: nested records of sample windows.
	data := buildReadings()
	// Hot variable: per-sensor thresholds, boxed like any Chapel array.
	thresholds := cf.RealArray(0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6)

	class := &core.ReductionClass{
		Name: "anomaly-count",
		// Reduction object: one group per sensor, cells = {count, magnitude}.
		Object: freeride.ObjectSpec{Groups: nSensors, Elems: 2, Op: cf.OpAdd},
		Path:   []string{"samples"},
		HotVars: []core.HotVar{
			{Value: thresholds},
		},
		Kernel: func(elem *core.Vec, hot []*core.StateVec, args *freeride.ReductionArgs) {
			var mean float64
			for i := 0; i < window; i++ {
				mean += elem.At(i)
			}
			mean /= window
			// The thresholds vector is addressed as one 1×n element.
			for s := 0; s < nSensors; s++ {
				if th := hot[0].At(1, s+1); mean > th {
					args.Accumulate(s, 0, 1)
					args.Accumulate(s, 1, mean-th)
				}
			}
		},
	}

	eng := cf.NewEngine(cf.EngineConfig{Threads: 4})
	defer eng.Close()
	var baseline []float64
	for _, opt := range []core.OptLevel{cf.OptNone, cf.Opt1, cf.Opt2} {
		t0 := time.Now()
		tr, err := core.Translate(class, data, opt)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source())
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(t0)
		snap := res.Object.Snapshot()
		if baseline == nil {
			baseline = append([]float64(nil), snap...)
		} else {
			for i := range snap {
				if snap[i] != baseline[i] {
					log.Fatalf("%v disagrees with generated at cell %d", opt, i)
				}
			}
		}
		fmt.Printf("%-9s: %8.3fs (linearize %.3fs)\n", opt, elapsed.Seconds(), tr.LinearizeTime.Seconds())
	}
	fmt.Println("all optimization levels agree ✓")
	fmt.Println("\nper-sensor anomalies (count, mean excess):")
	for s := 0; s < nSensors; s++ {
		count, mag := baseline[s*2], baseline[s*2+1]
		excess := 0.0
		if count > 0 {
			excess = mag / count
		}
		fmt.Printf("  sensor %d: %6.0f anomalies, mean excess %.3f\n", s, count, excess)
	}
}

// buildReadings boxes a synthetic dataset: reading r's samples ramp with r
// so different sensors trip at different rates.
func buildReadings() *chapel.Array {
	reading := chapel.RecordType("Reading",
		chapel.Field{Name: "samples", Type: chapel.ArrayType(chapel.RealType(), 1, window)})
	data := chapel.NewArray(chapel.ArrayType(reading, 1, nReadings))
	for r := 1; r <= nReadings; r++ {
		samples := data.At(r).(*chapel.Record).Field("samples").(*chapel.Array)
		base := float64(r%100) / 50.0 // 0..2
		for i := 1; i <= window; i++ {
			samples.SetAt(i, &chapel.Real{Val: base + float64(i%3)*0.01})
		}
	}
	return data
}
