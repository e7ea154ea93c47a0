// Fixture for the inspectorhoist analyzer. Parsed, never compiled.
package kernels

type Spec struct {
	Reduction      func(args *Args) error
	BlockReduction func(args *Args) error
}

type Args struct{ NumRows int }

func (*Args) Scratch(id, n int) []float64 { return nil }

type core struct{}

func (core) NewInspectorPlan(coo any) any          { return nil }
func (core) LinearizeCOO(arr any, r, c int) any    { return nil }
func (core) TranslateSparse(cls, coo, opt any) any { return nil }

var c core

func bad(coo any) Spec {
	return Spec{
		Reduction: func(args *Args) error {
			plan := c.NewInspectorPlan(coo) //want:inspectorhoist
			_ = plan
			_ = c.LinearizeCOO(nil, 2, 2) //want:inspectorhoist
			return nil
		},
	}
}

func alsoBad(coo any) {
	var s Spec
	s.BlockReduction = func(args *Args) error {
		_ = c.TranslateSparse(nil, coo, 3) //want:inspectorhoist
		return nil
	}
	_ = s
}

func scratchInLoop(k, dim int) Spec {
	return Spec{
		Reduction: func(args *Args) error {
			pt := args.Scratch(0, dim)
			for c := 0; c < k; c++ {
				cc := args.Scratch(1, dim) //want:inspectorhoist
				for range pt {
					_ = args.Scratch(2, dim) //want:inspectorhoist
				}
				_ = cc
			}
			return nil
		},
	}
}

func good(coo any) Spec {
	// Hoisted: the plan is built once at translate time, the kernel only
	// walks the captured tables.
	plan := c.NewInspectorPlan(coo)
	return Spec{
		Reduction: func(args *Args) error {
			_ = plan
			row := args.Scratch(0, 4)
			for i := 0; i < args.NumRows; i++ {
				_ = row
			}
			return nil
		},
	}
}

func suppressed(coo any) Spec {
	return Spec{
		Reduction: func(args *Args) error {
			//frds:vet-ignore inspectorhoist -- fixture exercises suppression
			_ = c.NewInspectorPlan(coo)
			return nil
		},
	}
}
