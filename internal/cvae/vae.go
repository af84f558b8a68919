package cvae

import (
	"fedguard/internal/loss"
	"fedguard/internal/nn"
	"fedguard/internal/opt"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// VAE is an unconditional variational autoencoder with a Gaussian (MSE)
// reconstruction term. The Spectral baseline (Li et al., reference [19]
// of the paper) trains one on low-dimensional surrogate vectors of model
// updates and flags updates whose reconstruction error exceeds the mean.
type VAE struct {
	In, Hidden, Latent int

	trunk  *nn.Sequential
	muHead *nn.Linear
	lvHead *nn.Linear
	dec    *nn.Sequential
}

// NewVAE constructs a VAE over in-dimensional inputs.
func NewVAE(in, hidden, latent int, r *rng.RNG) *VAE {
	first := nn.NewLinear(in, hidden, r)
	first.InputGradOff = true // the input batch needs no gradient
	return &VAE{
		In: in, Hidden: hidden, Latent: latent,
		trunk:  nn.NewSequential(first, nn.NewReLU()),
		muHead: nn.NewLinear(hidden, latent, r),
		lvHead: nn.NewLinear(hidden, latent, r),
		dec: nn.NewSequential(
			nn.NewLinear(latent, hidden, r),
			nn.NewReLU(),
			nn.NewLinear(hidden, in, r),
		),
	}
}

// Params returns all learnable parameters.
func (m *VAE) Params() []nn.Param {
	var out []nn.Param
	out = append(out, m.trunk.Params()...)
	out = append(out, m.muHead.Params()...)
	out = append(out, m.lvHead.Params()...)
	out = append(out, m.dec.Params()...)
	return out
}

func (m *VAE) zeroGrad() {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
}

// Step runs one training step on batch x (B, In), returning the ELBO
// loss (MSE reconstruction + beta * KL).
func (m *VAE) Step(x *tensor.Tensor, beta float64, optim opt.Optimizer, r *rng.RNG) float64 {
	b := x.Dim(0)
	m.zeroGrad()

	h := m.trunk.Forward(x, true)
	mu := m.muHead.Forward(h, true)
	logvar := m.lvHead.Forward(h, true)

	eps := tensor.New(b, m.Latent)
	r.FillNormal(eps.Data, 0, 1)
	sigma := tensor.New(b, m.Latent)
	for i := range sigma.Data {
		sigma.Data[i] = exp32(0.5 * logvar.Data[i])
	}
	z := tensor.New(b, m.Latent)
	for i := range z.Data {
		z.Data[i] = mu.Data[i] + sigma.Data[i]*eps.Data[i]
	}

	out := m.dec.Forward(z, true)
	recon, dOut := loss.MSE(out, x)
	kl, dMuKL, dLvKL := loss.GaussianKL(mu, logvar)

	dz := m.dec.Backward(dOut)
	dMu := tensor.New(b, m.Latent)
	dLv := tensor.New(b, m.Latent)
	bf := float32(beta)
	for i := range dz.Data {
		dMu.Data[i] = dz.Data[i] + bf*dMuKL.Data[i]
		dLv.Data[i] = dz.Data[i]*eps.Data[i]*0.5*sigma.Data[i] + bf*dLvKL.Data[i]
	}
	dh1 := m.muHead.Backward(dMu)
	dh2 := m.lvHead.Backward(dLv)
	dh := tensor.New(b, m.Hidden)
	tensor.Add(dh, dh1, dh2)
	m.trunk.Backward(dh)

	optim.Step()
	return recon + beta*kl
}

// Fit trains the VAE on rows of x for the given number of epochs.
func (m *VAE) Fit(x *tensor.Tensor, epochs int, lr, beta float64, r *rng.RNG) float64 {
	optim := opt.NewAdam(m.Params(), lr)
	n := x.Dim(0)
	var last float64
	for e := 0; e < epochs; e++ {
		order := r.Perm(n)
		last = 0
		const bs = 16
		for off := 0; off < n; off += bs {
			end := off + bs
			if end > n {
				end = n
			}
			batch := tensor.New(end-off, m.In)
			for bi, idx := range order[off:end] {
				copy(batch.Data[bi*m.In:(bi+1)*m.In], x.Data[idx*m.In:(idx+1)*m.In])
			}
			last += m.Step(batch, beta, optim, r) * float64(end-off)
		}
		last /= float64(n)
	}
	return last
}

// ReconstructionError returns the per-row mean squared reconstruction
// error of x (B, In) through the posterior mean (no sampling).
func (m *VAE) ReconstructionError(x *tensor.Tensor) []float64 {
	b := x.Dim(0)
	h := m.trunk.Forward(x, false)
	mu := m.muHead.Forward(h, false)
	out := m.dec.Forward(mu, false)
	errs := make([]float64, b)
	for i := 0; i < b; i++ {
		var acc float64
		for j := 0; j < m.In; j++ {
			d := float64(out.Data[i*m.In+j]) - float64(x.Data[i*m.In+j])
			acc += d * d
		}
		errs[i] = acc / float64(m.In)
	}
	return errs
}
