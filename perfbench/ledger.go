package main

import (
	"fmt"
	"io"
	"runtime"

	"fedguard/internal/classifier"
	"fedguard/internal/rng"
)

// layerKey is a classifier layer position: its index in the
// nn.Sequential and its kind.
type layerKey struct {
	index int
	kind  string
}

func (k layerKey) name() string { return fmt.Sprintf("nn.%d_%s", k.index, k.kind) }

// nnLayers is the union over every workload's classifier of the layers
// the architecture hook times. Every traced run reports all of them, so
// each workload prints the same metric names; a layer its classifier
// lacks reads zero.
func nnLayers() []layerKey {
	var keys []layerKey
	seen := map[layerKey]bool{}
	for _, w := range workloads() {
		for _, st := range layersOf(w.setup.Arch) {
			k := layerKey{st.index, st.kind}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

func layersOf(arch classifier.Arch) []*layerStat {
	t := newTracer()
	t.arch(arch)(rng.New(0))
	return t.layerStats()
}

// perLayer computes the per-layer metrics of a traced run. tr instruments
// the traced pass; nnTr is the tracer whose architecture hook saw the
// classifier layers (the traced pass itself, or for a networked workload
// its in-process twin, because fednet builds its models by registry
// name). rp holds the replay timings.
func perLayer(w workload, un, tp *pass, tr, nnTr *tracer, rp map[string]float64) []metric {
	rounds := float64(tr.rounds)
	perRound := func(name string, total float64, unit string) metric {
		return metric{name: name, value: total / rounds, unit: unit}
	}
	phases := tr.barrierS + tr.aggregateS + tr.postS
	ms := []metric{
		{name: "dataset.generate_s", value: median(append(un.genS, tp.genS...)), unit: "s"},
		{name: "fl.partition_s", value: median(append(un.partS, tp.partS...)), unit: "s"},
		perRound("fl.barrier_s", tr.barrierS, "s/round"),
		perRound("fl.aggregate_s", tr.aggregateS, "s/round"),
		perRound("fl.post_s", tr.postS, "s/round"),
		perRound("fl.unattributed_s", tr.roundsWallS-phases, "s/round"),
		{name: "fl.client_rounds", value: float64(tr.clientRounds), unit: "count"},
	}

	stats := map[layerKey]*layerStat{}
	for _, st := range nnTr.layerStats() {
		stats[layerKey{st.index, st.kind}] = st
	}
	nnRounds := float64(nnTr.rounds)
	for _, k := range nnLayers() {
		var fwd [numPhases]float64
		var bwd, calls, gflops float64
		st := stats[k]
		if st != nil {
			busy := st.bwdNs.Load()
			for ph := range fwd {
				fwd[ph] = float64(st.fwdNs[ph].Load()) / 1e9 / nnRounds
				busy += st.fwdNs[ph].Load()
			}
			bwd = float64(st.bwdNs.Load()) / 1e9 / nnRounds
			calls = float64(st.calls.Load()) / nnRounds
			if busy > 0 {
				gflops = float64(st.flops.Load()) / float64(busy)
			}
		}
		layer := []metric{
			{name: k.name() + ".bwd_s", value: bwd, unit: "s/round"},
			{name: k.name() + ".calls", value: calls, unit: "count/round"},
			{name: k.name() + ".gflops", value: gflops, unit: "GFLOP/s"},
		}
		for ph, name := range phaseNames {
			layer = append(layer, metric{name: k.name() + ".fwd_" + name + "_s", value: fwd[ph], unit: "s/round"})
		}
		for i := range layer {
			layer[i].absent = st == nil
		}
		ms = append(ms, layer...)
	}

	trainings := 0
	if w.strategy == "FedGuard" {
		seen := map[int]bool{}
		for _, rec := range tp.last().hist.Rounds {
			for _, id := range rec.Sampled {
				seen[id] = true
			}
		}
		trainings = len(seen)
	}
	ms = append(ms,
		metric{name: "classifier.train_samples_per_s", value: rp["classifier.train_samples_per_s"], unit: "1/s"},
		metric{name: "classifier.eval_s", value: rp["classifier.eval_s"], unit: "s"},
		metric{name: "cvae.trainings", value: float64(trainings), unit: "count"},
	)
	for _, name := range []string{"cvae.train_s", "cvae.step_s"} {
		ms = append(ms, metric{name: name, value: rp[name], unit: "s"})
	}
	ms = append(ms, metric{name: "cvae.step_allocs", value: rp["cvae.step_allocs"], unit: "count"})
	for _, name := range []string{"cvae.generate_s", "defense.synthesize_s", "defense.score_s",
		"aggregate.geomed_s", "attack.cohort_s", "aggregate.weighted_mean_s"} {
		ms = append(ms, metric{name: name, value: rp[name], unit: "s"})
	}

	gcCycles, gcPauseS := tp.gc()
	s, c := &tr.server, &tr.client
	turnaround := 0.0
	if n := c.turnarounds.Load(); n > 0 {
		turnaround = float64(c.turnNs.Load()) / 1e9 / float64(n)
	}
	ms = append(ms,
		perRound("wire.server_read_wait_s", float64(s.readNs.Load())/1e9, "s/round"),
		perRound("wire.server_write_s", float64(s.writeNs.Load())/1e9, "s/round"),
		perRound("wire.client_read_wait_s", float64(c.readNs.Load())/1e9, "s/round"),
		perRound("wire.client_write_s", float64(c.writeNs.Load())/1e9, "s/round"),
		perRound("wire.read_calls", float64(s.reads.Load()+c.reads.Load()), "count/round"),
		perRound("wire.write_calls", float64(s.writes.Load()+c.writes.Load()), "count/round"),
		perRound("wire.bytes_up", float64(s.bytesIn.Load()), "B/round"),
		perRound("wire.bytes_down", float64(s.bytesOut.Load()), "B/round"),
		metric{name: "fednet.server_turnaround_s", value: turnaround, unit: "s"},
		metric{name: "codec.encode_delta_s", value: rp["codec.encode_delta_s"], unit: "s"},
		metric{name: "codec.decode_delta_s", value: rp["codec.decode_delta_s"], unit: "s"},
		metric{name: "codec.ratio", value: rp["codec.ratio"], unit: "frac"},
		perRound("go.gc_cycles", float64(gcCycles), "count/round"),
		perRound("go.gc_pause_s", gcPauseS, "s/round"),
		metric{name: "bench.trace_overhead_frac", value: 1 - tp.clientRoundsPerS()/un.clientRoundsPerS(), unit: "frac"},
	)
	return ms
}

// printLedger prints the traced pass's round phases against the round
// wall time, and the classifier layers' busy time against the barrier.
func printLedger(out io.Writer, w workload, tr, nnTr *tracer) {
	rounds := float64(tr.rounds)
	wall := tr.roundsWallS / rounds
	fmt.Fprintf(out, "phase ledger: traced pass, %d rounds, seconds per round\n", tr.rounds)
	row := func(name string, v float64) {
		fmt.Fprintf(out, "  %-22s %12.6f  %6.2f%% of round wall\n", name, v, 100*v/wall)
	}
	row("fl.barrier_s", tr.barrierS/rounds)
	row("fl.aggregate_s", tr.aggregateS/rounds)
	row("fl.post_s", tr.postS/rounds)
	row("fl.unattributed_s", (tr.roundsWallS-tr.barrierS-tr.aggregateS-tr.postS)/rounds)
	row("round wall", wall)

	var train, audit, eval int64
	for _, st := range nnTr.layerStats() {
		train += st.fwdNs[phaseTrain].Load() + st.bwdNs.Load()
		audit += st.fwdNs[phaseAudit].Load()
		eval += st.fwdNs[phaseEval].Load()
	}
	workers := w.setup.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	src := "traced pass"
	if nnTr != tr {
		src = "in-process twin (fednet builds its models by name)"
	}
	// Busy time is summed over the goroutines that ran the layers:
	// client training and the audit fan out over the workers, while
	// evaluation runs on the round loop alone.
	share := func(what string, busyNs int64, phase string, phaseS float64, workers int) {
		busy := float64(busyNs) / 1e9
		fmt.Fprintf(out, "  %-13s busy %.6f s/round = %5.1f%% of %s x %d workers\n",
			what, busy/float64(nnTr.rounds), pct(busy, phaseS*float64(workers)), phase, workers)
	}
	fmt.Fprintf(out, "nn layers (%s):\n", src)
	share("train fwd+bwd", train, "fl.barrier_s", nnTr.barrierS, workers)
	share("audit fwd", audit, "fl.aggregate_s", nnTr.aggregateS, workers)
	share("eval fwd", eval, "fl.post_s", nnTr.postS, 1)
}

func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}
