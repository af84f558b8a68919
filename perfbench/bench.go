package main

import (
	"fmt"
	"io"
	"time"
)

// gatedEndToEnd are the end-to-end metrics the JSON result of an
// untraced run carries: the timings and memory whose regressions
// BENCHMARK.json bounds. The quality figures are guarded by the
// correctness gate instead; the rest are printed in the report only
// (WORKLOADS.md says why).
var gatedEndToEnd = []string{"setup_s", "round_p50_s", "client_rounds_per_s",
	"cpu_s_per_client_round", "peak_rss_mb"}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gate collects failed correctness checks.
type gate struct{ failures []string }

func (g *gate) check(ok bool, format string, args ...any) {
	if !ok {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// checkPass applies the per-pass checks: the run completed, every
// repetition produced the same FinalWeights bytes and a finite model, no
// client update failed, and the final model clears the workload's
// quality floor (for FedGuard, also excluding malicious updates more
// often than benign ones).
func (g *gate) checkPass(label string, w workload, p *pass) {
	if p.err != nil {
		g.check(false, "%s: %v", label, p.err)
		return
	}
	first := p.reps[0]
	for i, r := range p.reps {
		g.check(r.hash == first.hash, "%s: repetition %d FinalWeights hash %016x, repetition 1 %016x",
			label, i+1, r.hash, first.hash)
		g.check(r.finite, "%s: repetition %d has a non-finite global model", label, i+1)
	}
	g.check(p.failed() == 0, "%s: %d of %d client updates failed", label, p.failed(), p.attempted())
	last := p.last()
	acc := last.hist.FinalAccuracy()
	g.check(acc >= w.floor, "%s: final_acc %.4f below the floor %.2f", label, acc, w.floor)
	if last.guard != nil {
		mal, benign := exclusionRates(last)
		g.check(mal > benign, "%s: mal_excl_rate %.4f not above benign_excl_rate %.4f", label, mal, benign)
	}
}

// checkTwin runs a networked workload's federation in-process, untimed,
// and requires the same FinalWeights bytes as the networked run. nnTr,
// when non-nil, instruments the twin's classifier layers.
func (g *gate) checkTwin(w workload, seed uint64, want uint64, nnTr *tracer) {
	twin := w
	twin.net = false
	r, err := runRep(twin, seed, nnTr)
	if err != nil {
		g.check(false, "in-process twin: %v", err)
		return
	}
	g.check(r.hash == want, "net_codec FinalWeights hash %016x, in-process twin %016x", want, r.hash)
}

// bench runs one workload for about budget and writes the report to out.
// An untraced run reports the end-to-end metrics. A traced run splits
// the budget between an untraced and a traced pass and reports the
// per-layer metrics.
func bench(w workload, seed uint64, budget time.Duration, trace bool, out io.Writer) result {
	g := &gate{}
	res := result{Metrics: map[string]jsonMetric{}}
	var un *pass
	if trace {
		un = runPass(w, seed, budget/2, nil)
	} else {
		un = runPass(w, seed, budget, nil)
	}
	g.checkPass("untraced", w, un)
	res.Attempted, res.Failed = un.attempted(), un.failed()

	var e2e []metric
	if un.err == nil {
		e2e = endToEnd(w, un)
		fmt.Fprintf(out, "end-to-end (untraced, %d runs of %d rounds):\n", len(un.reps), w.setup.Rounds)
		printMetrics(out, e2e)
	}
	if !trace {
		if w.net && un.err == nil {
			g.checkTwin(w, seed, un.reps[0].hash, nil)
		}
		for _, m := range e2e {
			for _, name := range gatedEndToEnd {
				if m.name == name {
					res.Metrics[name] = jsonMetric{m.value, m.unit}
				}
			}
		}
		return finish(out, g, res)
	}

	tr := newTracer()
	tp := runPass(w, seed, budget/2, tr)
	g.checkPass("traced", w, tp)
	res.Attempted += tp.attempted()
	res.Failed += tp.failed()
	if un.err != nil || tp.err != nil {
		return finish(out, g, res)
	}
	g.check(tp.reps[0].hash == un.reps[0].hash, "traced FinalWeights hash %016x, untraced %016x",
		tp.reps[0].hash, un.reps[0].hash)
	nnTr := tr
	if w.net {
		nnTr = newTracer()
		g.checkTwin(w, seed, un.reps[0].hash, nnTr)
	}
	rp, err := replays(w, seed, tr, tp.last())
	if err != nil {
		g.check(false, "replays: %v", err)
		return finish(out, g, res)
	}
	printLedger(out, w, tr, nnTr)
	pl := perLayer(w, un, tp, tr, nnTr, rp)
	fmt.Fprintf(out, "per-layer (traced, %d runs):\n", len(tp.reps))
	printMetrics(out, pl)
	for _, m := range pl {
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return finish(out, g, res)
}

func finish(out io.Writer, g *gate, res result) result {
	res.Correct = len(g.failures) == 0
	for _, f := range g.failures {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", f)
	}
	return res
}

func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		if m.absent {
			continue
		}
		if m.missing {
			fmt.Fprintf(out, "  %-36s %14s %-11s %s\n", m.name, "missing", m.unit, m.note)
			continue
		}
		fmt.Fprintf(out, "  %-36s %14.6g %-11s %s\n", m.name, m.value, m.unit, m.note)
	}
}
