package main

import (
	"fmt"
	"runtime"
	"time"

	"fedguard/internal/aggregate"
	"fedguard/internal/attack"
	"fedguard/internal/classifier"
	"fedguard/internal/codec"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/defense"
	"fedguard/internal/experiment"
	"fedguard/internal/fl"
	"fedguard/internal/opt"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// replayReps is how many times a replay repeats a layer call; the
// replay reports the median.
const replayReps = 5

// replays times public layer functions on inputs captured from the
// traced pass: the last aggregated round's updates and global, round
// 1's cohort, and the final model. Each replay runs only where the
// workload exercises that layer; the others read zero.
func replays(w workload, seed uint64, tr *tracer, last *rep) (map[string]float64, error) {
	out := map[string]float64{}
	in := makeInputs(w, seed)
	client := tr.firstCohort[0]
	idx := in.parts[client]
	r := rng.New(rng.DeriveSeed(seed, "perfbench-replay", 0))
	updates := tr.lastUpdates

	// Local classifier training and evaluation from the final model.
	model := w.setup.Arch(r)
	if err := model.LoadParams(last.hist.FinalWeights); err != nil {
		return nil, err
	}
	final := model.FlattenParams()
	trainS := timeMedian(3, func() {
		if err := model.LoadParams(final); err != nil {
			panic(err) // same architecture by construction
		}
		classifier.Train(model, in.train, idx, w.setup.Train, r)
	})
	out["classifier.train_samples_per_s"] = float64(len(idx)*w.setup.Train.Epochs) / trainS
	if err := model.LoadParams(final); err != nil {
		return nil, err
	}
	testIdx := dataset.Range(in.test.Len())
	if n := w.setup.TestSubset; n > 0 && n < len(testIdx) {
		testIdx = testIdx[:n]
	}
	out["classifier.eval_s"] = timeMedian(replayReps, func() { classifier.Evaluate(model, in.test, testIdx) })

	if w.strategy == "FedGuard" {
		if err := replayFedGuard(w, in, idx, updates, tr, r, out); err != nil {
			return nil, err
		}
	}
	switch w.strategy {
	case "FedGuard", "FedAvg":
		out["aggregate.weighted_mean_s"] = timeMedian(replayReps, func() { mustAgg(aggregate.WeightedMean(updates)) })
	case "GeoMed":
		out["aggregate.geomed_s"] = timeMedian(replayReps, func() { mustAgg(aggregate.GeometricMedian(updates)) })
	}
	if ca, ok := mustAttack(w).(attack.CohortAware); ok {
		var drafts [][]float32
		var ids []int
		for _, u := range updates {
			if last.malicious[u.ClientID] {
				drafts = append(drafts, append([]float32(nil), u.Weights...))
				ids = append(ids, u.ClientID)
			}
		}
		if len(drafts) == 0 {
			return nil, fmt.Errorf("replay: round %d sampled no colluder", tr.lastRound)
		}
		out["attack.cohort_s"] = timeMedian(replayReps, func() { ca.PoisonCohort(drafts, ids, r) })
	}
	if w.net {
		cur := last.hist.FinalWeights
		enc, err := codec.EncodeDelta(cur, tr.lastGlobal)
		if err != nil {
			return nil, err
		}
		out["codec.encode_delta_s"] = timeMedian(4*replayReps, func() {
			if _, err := codec.EncodeDelta(cur, tr.lastGlobal); err != nil {
				panic(err) // equal lengths, checked by the first call
			}
		})
		out["codec.decode_delta_s"] = timeMedian(4*replayReps, func() {
			if _, err := codec.DecodeDelta(enc, tr.lastGlobal); err != nil {
				panic(err) // decodes its own encoding
			}
		})
		out["codec.ratio"] = float64(len(enc)) / float64(4*len(cur))
	}
	return out, nil
}

// replayFedGuard replays a first-participation CVAE training, single
// CVAE steps, decoder generation, synthesis and audit scoring.
func replayFedGuard(w workload, in inputs, idx []int, updates []fl.Update, tr *tracer, r *rng.RNG, out map[string]float64) error {
	s := w.setup
	start := time.Now()
	cvae.New(s.CVAE, r).Train(in.train, idx, s.CVAETrain, r)
	out["cvae.train_s"] = time.Since(start).Seconds()

	m := cvae.New(s.CVAE, r)
	optim := opt.NewAdam(m.Params(), s.CVAETrain.LR)
	batch := idx
	if len(batch) > s.CVAETrain.BatchSize {
		batch = batch[:s.CVAETrain.BatchSize]
	}
	x, labels := in.train.FlatBatch(batch)
	const steps = 20
	m.Step(x, labels, optim, r) // grow the layers' scratch first
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out["cvae.step_s"] = timeMedian(steps, func() { m.Step(x, labels, optim, r) })
	runtime.ReadMemStats(&ms1)
	out["cvae.step_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / steps

	// Generation: each decoder makes its share of the t synthetic
	// samples, as one round's synthesis does.
	t := s.Samples
	if t <= 0 {
		t = 2 * len(updates)
	}
	share := (t + len(updates) - 1) / len(updates)
	decs := make([]*cvae.Decoder, len(updates))
	for i, u := range updates {
		d, err := cvae.NewDecoder(s.CVAE, u.Decoder)
		if err != nil {
			return err
		}
		decs[i] = d
	}
	z := tensor.New(share, s.CVAE.Latent)
	r.FillNormal(z.Data, 0, 1)
	ls := make([]int, share)
	for i := range ls {
		ls[i] = i % s.CVAE.Classes
	}
	out["cvae.generate_s"] = timeMedian(replayReps, func() {
		for _, d := range decs {
			d.Generate(z, ls)
		}
	})

	strat, err := experiment.NewStrategy("FedGuard", s)
	if err != nil {
		return err
	}
	guard := strat.(*defense.FedGuard)
	ctx := func() *fl.RoundContext {
		return &fl.RoundContext{Round: tr.lastRound, Global: tr.lastGlobal, Updates: updates,
			RNG: rng.New(uint64(tr.lastRound)), Report: map[string]float64{}}
	}
	out["defense.synthesize_s"] = timeMedian(replayReps, func() {
		if _, _, err := guard.Synthesize(ctx()); err != nil {
			panic(err) // the captured round synthesized in the run
		}
	})
	xs, ys, err := guard.Synthesize(ctx())
	if err != nil {
		return err
	}
	audit := s.Arch(r)
	out["defense.score_s"] = timeMedian(replayReps, func() {
		for _, u := range updates {
			if err := audit.LoadParams(u.Weights); err != nil {
				panic(err) // the captured round audited these updates
			}
			classifier.EvaluateTensor(audit, xs, ys)
		}
	})
	return nil
}

func mustAttack(w workload) attack.Attack {
	att, err := experiment.NewAttack(mustScenario(w.scenario).Attack, w.fedSeed)
	if err != nil {
		panic(err) // workloads name registered attacks
	}
	return att
}

func mustAgg(_ []float32, err error) {
	if err != nil {
		panic(err) // the captured round aggregated these updates
	}
}

// timeMedian runs f n times and returns the median duration in seconds.
func timeMedian(n int, f func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = time.Since(start).Seconds()
	}
	return median(ds)
}
