package tensor

import (
	"fmt"
	"math"
)

// AdamUpdate applies one Adam step in place to the parameters val, given
// their gradients g and moment buffers m and v (all the same length):
//
//	m = b1*m + (1-b1)*g
//	v = b2*v + (1-b2)*g*g
//	val -= float32(lr*m / (sqrt(v) + eps))
//
// lr carries the bias correction. The moments update in float32 and the
// step in float64, each operation rounded on its own. On the AVX path
// eight parameters go per pass and the scalar loop takes the tail; both
// round the same operations in the same order, so the result is
// bit-identical to the scalar loop alone.
func AdamUpdate(val, g, m, v []float32, b1, b2 float32, lr, eps float64) {
	n := len(val)
	if len(g) != n || len(m) != n || len(v) != n {
		panic(fmt.Sprintf("tensor: AdamUpdate lengths %d/%d/%d/%d", n, len(g), len(m), len(v)))
	}
	j := 0
	if useAVX && n >= 8 {
		j = n &^ 7
		adamAVX(&val[0], &g[0], &m[0], &v[0], j, b1, 1-b1, b2, 1-b2, lr, eps)
	}
	adamScalar(val[j:], g[j:], m[j:], v[j:], b1, b2, lr, eps)
}

// adamScalar is the reference Adam loop: the tail of the vector path,
// the whole update on builds without it, and the oracle of its tests.
func adamScalar(val, g, m, v []float32, b1, b2 float32, lr, eps float64) {
	for j := range val {
		gj := g[j]
		m[j] = b1*m[j] + (1-b1)*gj
		v[j] = b2*v[j] + (1-b2)*gj*gj
		val[j] -= float32(lr * float64(m[j]) / (math.Sqrt(float64(v[j])) + eps))
	}
}
