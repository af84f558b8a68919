package main

import (
	"fmt"
	"runtime"

	"fedguard/internal/experiment"
	"fedguard/internal/fl"
)

// workload is one federation the benchmark drives end to end. Each run
// is a closed loop: a round starts only after the previous one has
// finished, and every sampled client waits for its request.
type workload struct {
	name string
	// setup fixes sizes, model and hyperparameters; its Seed is unused
	// (data comes from the benchmark seed, the schedule from fedSeed).
	setup    experiment.Setup
	scenario string
	strategy string
	// net runs the federation through fednet over loopback TCP with
	// codec compression negotiated, one client connection per client.
	net bool
	// fedSeed seeds the federation schedule: client sampling, malicious
	// placement, client streams and ψ₀. It is part of the workload, not
	// of the generated inputs, so every seed does the same work per
	// round and round times compare across seeds.
	fedSeed uint64
	// target is the test accuracy time_to_target_s waits for, and floor
	// the final accuracy a correct run must reach. Both were fixed from
	// the seed-1 run, with room for the spread over seeds 1 to 10.
	target, floor float64
	// traceWrap, when set, wraps the strategy of traced repetitions on
	// top of the timing wrapper. Tests use it to show that the gate
	// catches an instrument that changes a byte.
	traceWrap func(fl.Strategy) fl.Strategy
}

// workloads returns the benchmark's four workloads. WORKLOADS.md says
// why each exists and which layers it stresses and bypasses.
func workloads() []workload {
	fedguard := experiment.MustSetup(experiment.PresetDefault)
	fedguard.Rounds = 4

	fedavg := experiment.MustSetup(experiment.PresetDefault)
	fedavg.Rounds = 5

	robust := experiment.MustSetup(experiment.PresetQuick)
	robust.NumClients, robust.PerRound, robust.Rounds = 100, 50, 120
	robust.Train.Epochs = 1

	codec := experiment.MustSetup(experiment.PresetQuick)
	n := runtime.NumCPU()
	codec.NumClients, codec.PerRound, codec.Rounds = n, n, 200
	codec.TrainSize = 120 * n
	codec.TestSize, codec.TestSubset = 200, 200
	codec.Train.Epochs = 1

	return []workload{
		{name: "fedguard_default", setup: fedguard, scenario: "sign-flip-50", strategy: "FedGuard",
			fedSeed: 7, target: 0.5, floor: 0.4},
		{name: "fedavg_default", setup: fedavg, scenario: "no-attack", strategy: "FedAvg",
			fedSeed: 7, target: 0.85, floor: 0.7},
		{name: "robust_m50", setup: robust, scenario: "alie-30", strategy: "GeoMed",
			fedSeed: 7, target: 0.75, floor: 0.7},
		{name: "net_codec", setup: codec, scenario: "no-attack", strategy: "FedAvg", net: true,
			fedSeed: 7, target: 0.8, floor: 0.7},
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
