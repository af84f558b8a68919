package tensor

import (
	"fmt"
	"math"
	"testing"

	"fedguard/internal/rng"
)

// TestAdamUpdateMatchesScalar runs AdamUpdate and the scalar reference
// loop side by side for 300 bias-corrected steps and requires every
// parameter and moment to stay bit-identical. The gradient regimes cover
// exact zeros, 1e-8 scale (v near eps²) and 1e4 scale, and the lengths
// cover the 8-lane vector body alone, the scalar tail alone and both.
func TestAdamUpdateMatchesScalar(t *testing.T) {
	const b1, b2, eps = 0.9, 0.999, 1e-8
	for _, n := range []int{1, 7, 8, 13, 64, 1001} {
		for _, scale := range []float64{0, 1e-8, 1, 1e4} {
			t.Run(fmt.Sprintf("n=%d/scale=%g", n, scale), func(t *testing.T) {
				r := rng.New(uint64(n)*31 + uint64(math.Float64bits(scale)))
				val := make([]float32, n)
				r.FillNormal(val, 0, 1)
				wantVal := append([]float32(nil), val...)
				m, v := make([]float32, n), make([]float32, n)
				wantM, wantV := make([]float32, n), make([]float32, n)
				g := make([]float32, n)
				for step := 1; step <= 300; step++ {
					r.FillNormal(g, 0, scale)
					if step%7 == 0 {
						for i := 0; i < n; i += 3 {
							g[i] = 0 // mix exact zeros into every regime
						}
					}
					lr := 1e-3 * math.Sqrt(1-math.Pow(b2, float64(step))) / (1 - math.Pow(b1, float64(step)))
					AdamUpdate(val, g, m, v, b1, b2, lr, eps)
					adamScalar(wantVal, g, wantM, wantV, b1, b2, lr, eps)
					for _, pair := range [][2][]float32{{val, wantVal}, {m, wantM}, {v, wantV}} {
						for i := range pair[0] {
							if math.Float32bits(pair[0][i]) != math.Float32bits(pair[1][i]) {
								t.Fatalf("step %d index %d: %v, scalar %v", step, i, pair[0][i], pair[1][i])
							}
						}
					}
				}
			})
		}
	}
}
