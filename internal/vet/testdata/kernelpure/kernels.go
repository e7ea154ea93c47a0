// Fixture for the kernelpure analyzer. Parsed, never compiled.
package kernels

import (
	"math/rand"
	"time"
)

type Spec struct {
	Reduction      func(args *Args) error
	BlockReduction func(args *Args) error
}

type Args struct{ Acc []float64 }

var shared float64
var table = map[int]int{}

func bad() Spec {
	total := 0.0
	return Spec{
		Reduction: func(args *Args) error {
			total += 1                //want:kernelpure
			shared = 2                //want:kernelpure
			table[3] = 4              //want:kernelpure
			_ = time.Now()            //want:kernelpure
			_ = rand.Intn(10)         //want:kernelpure
			go func() { _ = total }() //want:kernelpure
			return nil
		},
	}
}

func alsoBad() {
	var s Spec
	hits := 0
	s.BlockReduction = func(args *Args) error {
		hits++ //want:kernelpure
		return nil
	}
	_ = s
	_ = hits
}

func good() Spec {
	scale := 2.0 // captured reads are fine
	return Spec{
		Reduction: func(args *Args) error {
			local := 0.0
			local += scale
			for i := 0; i < 3; i++ {
				local += float64(i)
			}
			args.Acc[0] = local // writes through a parameter are the kernel's channel
			return nil
		},
	}
}
