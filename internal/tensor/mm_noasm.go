//go:build !amd64 || purego

package tensor

// Non-amd64 builds (or -tags purego) use the scalar kernels everywhere.
const useAVX = false

func mmRowAVX(dst, a, b *float32, astride, k, n, j8, acc int) {
	panic("tensor: mmRowAVX called without AVX support")
}

func adamAVX(val, grad, m, v *float32, n8 int, b1, c1, b2, c2 float32, lr, eps float64) {
	panic("tensor: adamAVX called without AVX support")
}
