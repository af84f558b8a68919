package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"fedguard/internal/fl"
)

// tiny shrinks a workload so one run takes about a second and drops its
// quality floor, which only holds at full size. The CVAEs keep enough
// training for FedGuard's audit to tell sign-flipped updates apart.
func tiny(w workload) workload {
	s := w.setup
	s.TrainSize, s.TestSize, s.TestSubset = 480, 60, 60
	s.Rounds = 3
	if !w.net {
		s.NumClients, s.PerRound = 6, 4
	}
	s.Train.Epochs = 1
	s.CVAE.Hidden = 64
	s.CVAETrain.Epochs = 10
	s.Samples = 40
	w.setup = s
	w.floor = 0
	return w
}

func tinyByName(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return tiny(w)
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readSpec loads the metric lists of the repository's BENCHMARK.json.
func readSpec(t *testing.T) (endToEnd, perLayer []specMetric) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// reportEndToEnd is every end-to-end metric the report prints, by name
// and unit; the FedGuard workload adds the two exclusion rates.
var reportEndToEnd = []specMetric{
	{"setup_s", "s"}, {"round1_s", "s"}, {"round_p50_s", "s"}, {"round_tail_s", "s"},
	{"client_rounds_per_s", "1/s"}, {"cpu_s_per_client_round", "s"}, {"time_to_target_s", "s"},
	{"final_acc", "frac"}, {"wire_bytes_per_round", "B"}, {"alloc_mb_per_round", "MiB"},
	{"peak_rss_mb", "MiB"}, {"failed_frac", "frac"},
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	endToEnd, perLayer := readSpec(t)
	for _, w := range workloads() {
		w := tiny(w)
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res := bench(w, 1, time.Nanosecond, trace, &out)
			if !res.Correct {
				t.Fatalf("%s trace=%v: checks failed:\n%s", w.name, trace, out.String())
			}
			report := reportEndToEnd
			if w.strategy == "FedGuard" {
				report = append(report, specMetric{"mal_excl_rate", "frac"}, specMetric{"benign_excl_rate", "frac"})
			}
			for _, m := range report {
				line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `\b`)
				if !line.MatchString(out.String()) {
					t.Errorf("%s trace=%v: report has no line for %s in %s:\n%s", w.name, trace, m.Name, m.Unit, out.String())
				}
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: JSON result has %d metrics, BENCHMARK.json lists %d",
					w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: JSON result lacks %s", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, m.Name, got.Value)
				}
			}
		}
	}
}

// bitFlip is a strategy wrapper that is not pass-through: it flips the
// lowest bit of the first aggregated weight.
type bitFlip struct{ fl.Strategy }

func (b bitFlip) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	out, err := b.Strategy.Aggregate(ctx)
	if err == nil {
		out[0] = math.Float32frombits(math.Float32bits(out[0]) ^ 1)
	}
	return out, err
}

func TestBitFlipFailsHashCheck(t *testing.T) {
	w := tinyByName(t, "fedavg_default")
	w.traceWrap = func(s fl.Strategy) fl.Strategy { return bitFlip{s} }
	var out bytes.Buffer
	res := bench(w, 1, time.Nanosecond, true, &out)
	if res.Correct {
		t.Fatalf("a traced run with one flipped bit passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "CHECK FAILED: traced FinalWeights hash") {
		t.Fatalf("the gate failed, but not on the hash:\n%s", out.String())
	}
}

func TestPhaseLedgerAddsUp(t *testing.T) {
	for _, name := range []string{"robust_m50", "net_codec"} {
		w := tinyByName(t, name)
		tr := newTracer()
		p := runPass(w, 1, 0, tr)
		if p.err != nil {
			t.Fatal(p.err)
		}
		if tr.rounds != w.setup.Rounds {
			t.Fatalf("%s: ledger saw %d rounds, want %d", name, tr.rounds, w.setup.Rounds)
		}
		for phase, s := range map[string]float64{"barrier": tr.barrierS, "aggregate": tr.aggregateS, "post": tr.postS} {
			if s <= 0 {
				t.Errorf("%s: fl.%s_s = %v", name, phase, s)
			}
		}
		unattributed := tr.roundsWallS - tr.barrierS - tr.aggregateS - tr.postS
		if unattributed < 0 || unattributed > 0.05*tr.roundsWallS {
			t.Errorf("%s: phases %v + %v + %v leave %v of the %v s round wall unattributed",
				name, tr.barrierS, tr.aggregateS, tr.postS, unattributed, tr.roundsWallS)
		}
		var out bytes.Buffer
		printLedger(&out, w, tr, tr)
		var sum, wall float64
		for _, m := range perLayer(w, p, p, tr, tr, map[string]float64{}) {
			switch m.name {
			case "fl.barrier_s", "fl.aggregate_s", "fl.post_s", "fl.unattributed_s":
				sum += m.value
			}
		}
		wall = tr.roundsWallS / float64(tr.rounds)
		if math.Abs(sum-wall) > 1e-9*wall {
			t.Errorf("%s: per-round phases sum to %v, round wall is %v\n%s", name, sum, wall, out.String())
		}
	}
}
