package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"fedguard/internal/fl"
)

// minSetups is how many set-ups a run times at least; setup_s is their
// median.
const minSetups = 5

// pass is the repetitions of one workload under one tracing mode. Each
// repetition is a cold start; a pass starts another while the previous
// one's duration still fits in its budget, and always runs one.
type pass struct {
	reps   []*rep
	setups []float64 // set-up seconds of every repetition and set-up-only build
	genS   []float64
	partS  []float64
	err    error
}

func runPass(w workload, seed uint64, budget time.Duration, tr *tracer) *pass {
	p := &pass{}
	start := time.Now()
	for {
		t0 := time.Now()
		r, err := runRep(w, seed, tr)
		if r != nil {
			p.reps = append(p.reps, r)
			p.setups = append(p.setups, r.setupS)
			p.genS = append(p.genS, r.genS)
			p.partS = append(p.partS, r.partS)
		}
		if err != nil {
			p.err = fmt.Errorf("%s: %w", w.name, err)
			break
		}
		if time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	// A set-up that ran once would be a single sample: top up with
	// set-up-only builds of the in-process federation.
	for !w.net && p.err == nil && len(p.setups) < minSetups {
		if err := p.setupOnly(w, seed); err != nil {
			p.err = err
		}
	}
	return p
}

// setupOnly times what runRep does before round 1 for an in-process
// workload: inputs, attack, strategy and federation. Like a repetition,
// it starts from a collected heap.
func (p *pass) setupOnly(w workload, seed uint64) error {
	runtime.GC()
	t0 := time.Now()
	in, _, cfg, err := build(w, seed, nil)
	if err != nil {
		return err
	}
	if _, err := fl.NewFederation(in.train, in.test, cfg); err != nil {
		return err
	}
	p.setups = append(p.setups, time.Since(t0).Seconds())
	p.genS = append(p.genS, in.genS)
	p.partS = append(p.partS, in.partS)
	return nil
}

func (p *pass) attempted() (n int) {
	for _, r := range p.reps {
		n += r.attempted
	}
	return n
}

func (p *pass) failed() (n int) {
	for _, r := range p.reps {
		n += r.failed
	}
	return n
}

// gc sums the repetitions' garbage collections during their rounds.
func (p *pass) gc() (cycles uint32, pauseS float64) {
	for _, r := range p.reps {
		cycles += r.gcCycles
		pauseS += r.gcPauseS
	}
	return cycles, pauseS
}

func (p *pass) rounds() (n int) {
	for _, r := range p.reps {
		n += len(r.roundS)
	}
	return n
}

// clientRoundsPerS is completed client updates per wall second of a
// repetition's rounds, the median over the repetitions.
func (p *pass) clientRoundsPerS() float64 {
	return p.perRep(func(r *rep) float64 { return float64(r.attempted-r.failed) / r.runS })
}

// perRep is the median over the repetitions of f.
func (p *pass) perRep(f func(*rep) float64) float64 {
	xs := make([]float64, len(p.reps))
	for i, r := range p.reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// last is the final repetition, whose history the quality figures read
// (every repetition computes the same bytes; the gate checks that).
func (p *pass) last() *rep { return p.reps[len(p.reps)-1] }

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	// missing marks a figure the run could not produce (a target never
	// reached, too few rounds for a tail); it is printed as such and is
	// never part of the JSON result.
	missing bool
	// absent marks a layer this workload's classifier does not have: it
	// reads zero in the JSON result and is left out of the report.
	absent bool
	note   string
}

// endToEnd computes the user-visible metrics of an untraced pass.
func endToEnd(w workload, p *pass) []metric {
	var round1, later, toTarget []float64
	var allocB uint64
	for _, r := range p.reps {
		round1 = append(round1, r.roundS[0])
		later = append(later, r.roundS[1:]...)
		if r.toTarget >= 0 {
			toTarget = append(toTarget, r.toTarget)
		}
		allocB += r.allocB
	}
	last := p.last()
	var wire float64
	for _, rec := range last.hist.Rounds {
		wire += float64(rec.WireUploadBytes + rec.WireDownloadBytes)
	}
	wire /= float64(len(last.hist.Rounds))

	ms := []metric{
		{name: "setup_s", value: median(p.setups), unit: "s"},
		{name: "round1_s", value: median(round1), unit: "s"},
		{name: "round_p50_s", value: median(later), unit: "s"},
		tailMetric(later),
		{name: "client_rounds_per_s", value: p.clientRoundsPerS(), unit: "1/s"},
		{name: "cpu_s_per_client_round", value: p.perRep(func(r *rep) float64 { return r.cpuS / float64(r.attempted-r.failed) }), unit: "s"},
		{name: "time_to_target_s", value: median(toTarget), unit: "s", missing: len(toTarget) < len(p.reps),
			note: fmt.Sprintf("first round at test accuracy >= %g", w.target)},
		{name: "final_acc", value: last.hist.FinalAccuracy(), unit: "frac"},
	}
	if last.guard != nil {
		mal, benign := exclusionRates(last)
		ms = append(ms,
			metric{name: "mal_excl_rate", value: mal, unit: "frac"},
			metric{name: "benign_excl_rate", value: benign, unit: "frac"})
	}
	return append(ms,
		metric{name: "wire_bytes_per_round", value: wire, unit: "B"},
		metric{name: "alloc_mb_per_round", value: float64(allocB) / float64(p.rounds()) / (1 << 20), unit: "MiB"},
		metric{name: "peak_rss_mb", value: peakRSSMB(), unit: "MiB"},
		metric{name: "failed_frac", value: float64(p.failed()) / float64(p.attempted()), unit: "frac"},
	)
}

// tailMetric is the highest percentile of xs with at least ten samples
// beyond it, or a missing metric when there are too few rounds.
func tailMetric(xs []float64) metric {
	m := metric{name: "round_tail_s", unit: "s", missing: true, note: fmt.Sprintf("%d rounds: too few for a tail", len(xs))}
	for _, q := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(len(xs))*(1-q/100) >= 10 {
			m.value, m.missing = percentile(xs, q), false
			m.note = fmt.Sprintf("p%g of %d rounds", q, len(xs))
			break
		}
	}
	return m
}

// exclusionRates joins FedGuard's per-client detection counts with the
// ground-truth malicious placement: the share of malicious and of
// benign participations the audit excluded.
func exclusionRates(r *rep) (mal, benign float64) {
	excluded, seen := r.guard.DetectionStats()
	var malEx, malSeen, benEx, benSeen int
	for id, n := range seen {
		if r.malicious[id] {
			malEx += excluded[id]
			malSeen += n
		} else {
			benEx += excluded[id]
			benSeen += n
		}
	}
	return ratio(malEx, malSeen), ratio(benEx, benSeen)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
