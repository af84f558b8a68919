// Command perfbench is the repository's benchmark: it runs one of four
// federation workloads through the public entry points (experiment and
// dataset for inputs, fl and fednet for the engines), checks that the
// outputs are correct, and prints every end-to-end metric by name and
// unit. With -trace 1 it runs the workload again with pass-through
// timing hooks and prints the per-layer ledger instead.
//
//	bash perfbench/run.sh --workload fedguard_default --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --workload all runs the four
// workloads in turn, each report ending in its own JSON line. The
// command exits non-zero when a correctness check fails. WORKLOADS.md
// says why each workload exists.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"fedguard/internal/tensor"
)

func main() {
	name := flag.String("workload", "", "fedguard_default, fedavg_default, robust_m50, net_codec, or all to run the four in turn")
	seed := flag.Uint64("seed", 1, "seed the workload's datasets are generated from")
	seconds := flag.Float64("seconds", 25, "measuring budget in seconds per workload; every run makes at least one cold-start federation")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	flag.Parse()
	ws := workloads()
	var err error
	if *name != "all" {
		var w workload
		w, err = workloadByName(*name)
		ws = []workload{w}
	}
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload <name|all> -seed <n> -seconds <s> -trace <0|1>")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(2)
	}

	out := bufio.NewWriter(os.Stdout)
	st, _ := json.Marshal(machineStamp())
	fmt.Fprintf(out, "machine %s\n", st)
	correct := true
	for _, w := range ws {
		fmt.Fprintf(out, "workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *trace)
		res := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, out)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "%s\n", line)
		if err := out.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// stamp identifies the machine and build a result came from, so numbers
// from different machines are never compared blind.
type stamp struct {
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	CPUModel      string `json:"cpu_model"`
	VectorKernels bool   `json:"vector_kernels"`
	Commit        string `json:"commit"`
}

func machineStamp() stamp {
	return stamp{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CPUModel:      cpuModel(),
		VectorKernels: tensor.HasVectorKernels(),
		Commit:        commit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the go command stamped into the build; a
// checkout without version control has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
