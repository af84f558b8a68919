//go:build amd64 && !purego

package tensor

// hasAVX reports whether the CPU and OS support AVX (CPUID feature bits
// plus XGETBV confirmation that the OS preserves YMM state).
func hasAVX() bool

// mmRowAVX computes one output row of an a@b-shaped product with 8-wide
// AVX lanes over the columns:
//
//	dst[j] (+)= Σ_p a[p*astride] * b[p*n+j]   for j in [0, j8)
//
// for p in [0, k) ascending. Each column j owns one vector lane, so its
// sum is formed in ascending-p order from +0 and written (acc=0) or
// added to dst once (acc=1) — exactly the summation-order contract the
// scalar kernels follow, making the vector and scalar paths
// bit-identical (VMULPS/VADDPS round per operation like MULSS/ADDSS; no
// FMA). Zero a-elements are skipped (exact, see the contract). j8 must
// be a multiple of 8 and ≤ n; the caller handles columns [j8, n).
//
//go:noescape
func mmRowAVX(dst, a, b *float32, astride, k, n, j8, acc int)

// useAVX gates the vector row kernels; resolved once at startup.
var useAVX = hasAVX()

// adamAVX applies one Adam update to the first n8 parameters (n8 a
// multiple of 8) with 8-wide AVX lanes; see adamScalar for the update
// it reproduces bit for bit.
//
//go:noescape
func adamAVX(val, grad, m, v *float32, n8 int, b1, c1, b2, c2 float32, lr, eps float64)
