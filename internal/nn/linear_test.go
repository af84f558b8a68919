package nn

import (
	"fmt"
	"testing"

	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// naiveLinear is the reference y = x @ Wᵀ + b: one float32 accumulator
// per output, updated in ascending-in order from +0, then the bias.
func naiveLinear(l *Linear, x *tensor.Tensor) []float32 {
	b := x.Dim(0)
	y := make([]float32, b*l.Out)
	for i := 0; i < b; i++ {
		for j := 0; j < l.Out; j++ {
			var acc float32
			for p := 0; p < l.In; p++ {
				acc += x.Data[i*l.In+p] * l.W.Data[j*l.In+p]
			}
			y[i*l.Out+j] = acc + l.B.Data[j]
		}
	}
	return y
}

// TestLinearForwardMatchesNaive pins every Linear forward path — the
// batch-side yᵀ = W @ xᵀ rule (b a multiple of 8 below Out), the
// transposed-weight product, and the scalar fallback — to the naive
// reference bit for bit, at serial and multi-worker kernel settings.
func TestLinearForwardMatchesNaive(t *testing.T) {
	defer tensor.SetWorkers(tensor.Workers())
	shapes := [][3]int{ // b, in, out
		{32, 794, 256}, // CVAE trunk: batch-side rule
		{32, 256, 794}, // CVAE decoder output layer
		{32, 12, 256},  // CVAE decoder input layer
		{32, 256, 2},   // latent head: b ≥ out
		{4, 256, 794},  // short final batch: b not a multiple of 8
		{12, 30, 64},   // b not a multiple of 8, b < out
		{8, 5, 9},      // one vector lane of batch, odd widths
		{40, 64, 33},   // b ≥ out, out not a multiple of 8
	}
	for _, workers := range []int{1, 4} {
		tensor.SetWorkers(workers)
		for _, s := range shapes {
			t.Run(fmt.Sprintf("workers=%d/b=%d/in=%d/out=%d", workers, s[0], s[1], s[2]), func(t *testing.T) {
				r := rng.New(uint64(s[0]*1000003 + s[1]*1009 + s[2]))
				l := NewLinear(s[1], s[2], r)
				r.FillNormal(l.B.Data, 0, 1)
				x := tensor.New(s[0], s[1])
				r.FillNormal(x.Data, 0, 1)
				for i := 0; i < len(x.Data); i += 5 {
					x.Data[i] = 0 // ReLU-like zeros exercise the zero-skip
				}
				if got, want := l.Forward(x, true).Data, naiveLinear(l, x); !bitEqual(got, want) {
					t.Fatal("forward differs from the naive reference")
				}
			})
		}
	}
}

// TestLinearInputGradOff checks that the flag drops only the input
// gradient: Backward returns nil and the parameter gradients match a
// twin layer with the flag off bit for bit. A Sequential stops at the
// nil gradient instead of handing it to the layer below.
func TestLinearInputGradOff(t *testing.T) {
	on, off := NewLinear(20, 16, rng.New(7)), NewLinear(20, 16, rng.New(7))
	on.InputGradOff = true
	r := rng.New(8)
	x := tensor.New(8, 20)
	g := tensor.New(8, 16)
	r.FillNormal(x.Data, 0, 1)
	r.FillNormal(g.Data, 0, 1)
	on.Forward(x, true)
	off.Forward(x, true)
	if dx := on.Backward(g); dx != nil {
		t.Fatalf("InputGradOff Backward returned %v, want nil", dx.Shape())
	}
	if off.Backward(g) == nil {
		t.Fatal("Backward without InputGradOff returned nil")
	}
	if !bitEqual(on.dW.Data, off.dW.Data) || !bitEqual(on.dB.Data, off.dB.Data) {
		t.Fatal("InputGradOff changed the parameter gradients")
	}

	seq := NewSequential(NewFlatten(), on, NewReLU())
	img := tensor.New(8, 1, 4, 5)
	r.FillNormal(img.Data, 0, 1)
	y := seq.Forward(img, true)
	if dx := seq.Backward(tensor.New(y.Shape()...)); dx != nil {
		t.Fatalf("Sequential.Backward past an InputGradOff layer returned %v, want nil", dx.Shape())
	}
}
