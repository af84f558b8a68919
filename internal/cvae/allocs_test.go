//go:build !race

// Allocation-regression pins for the training and synthesis hot paths.
// Behind !race because the race detector instruments allocations and
// inflates counts.

package cvae

import (
	"testing"

	"fedguard/internal/opt"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// TestDecoderGenerateAllocsSteadyState pins Decoder.Generate scratch
// reuse: once warmed up, the audit-set synthesis loop allocates nothing
// per call — decIn, the decoder net's layer scratch, and the output
// image buffer are all reused.
func TestDecoderGenerateAllocsSteadyState(t *testing.T) {
	r := rng.New(0xdeca)
	cfg := SmallConfig()
	model := New(cfg, r)
	dec := DecoderFromCVAE(model)
	z := tensor.New(16, cfg.Latent)
	r.FillNormal(z.Data, 0, 1)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % cfg.Classes
	}
	dec.Generate(z, labels) // warm up scratch
	allocs := testing.AllocsPerRun(20, func() { dec.Generate(z, labels) })
	if allocs > 0 {
		t.Fatalf("steady-state Decoder.Generate allocates %.1f/op, want 0", allocs)
	}
}

// TestCVAEStepAllocsSteadyState pins the training step's scratch reuse:
// once warmed up, CVAE.Step allocates nothing — the input and
// reparameterization rows, the loss gradients, every layer's scratch and
// the Adam update are all reused in place.
func TestCVAEStepAllocsSteadyState(t *testing.T) {
	r := rng.New(0x57e9)
	cfg := SmallConfig()
	model := New(cfg, r)
	x := tensor.New(32, cfg.Input)
	r.FillUniform(x.Data, 0, 1)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % cfg.Classes
	}
	optim := opt.NewAdam(model.Params(), 1e-3)
	model.Step(x, labels, optim, r) // warm up scratch
	allocs := testing.AllocsPerRun(20, func() { model.Step(x, labels, optim, r) })
	if allocs > 0 {
		t.Fatalf("steady-state CVAE.Step allocates %.1f/op, want 0", allocs)
	}
}
