package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"fedguard/internal/attack"
	"fedguard/internal/classifier"
	"fedguard/internal/dataset"
	"fedguard/internal/defense"
	"fedguard/internal/experiment"
	"fedguard/internal/fednet"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
)

// inputs are one repetition's generated datasets. The program receives
// only these (fednet regenerates the same training set from trainSeed,
// which is how its clients get their shards).
type inputs struct {
	train, test *dataset.Dataset
	trainSeed   uint64
	parts       [][]int
	genS, partS float64
}

// makeInputs generates the workload's datasets from the benchmark seed
// and partitions the training set the way the federation will.
func makeInputs(w workload, seed uint64) inputs {
	in := inputs{trainSeed: rng.DeriveSeed(seed, "perfbench-train", 0)}
	t0 := time.Now()
	opts := dataset.DefaultGenOptions()
	in.train = dataset.Generate(w.setup.TrainSize, opts, rng.New(in.trainSeed))
	in.test = dataset.Generate(w.setup.TestSize, opts, rng.New(rng.DeriveSeed(seed, "perfbench-test", 0)))
	t1 := time.Now()
	in.parts = fl.Partition(in.train, federationConfig(w, w.setup.Arch, nil))
	in.genS, in.partS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	return in
}

// federationConfig is the workload's federation with the given
// classifier; att is the malicious clients' shared attack (nil for a
// benign federation).
func federationConfig(w workload, arch classifier.Arch, att attack.Attack) fl.FederationConfig {
	s := w.setup
	sc := mustScenario(w.scenario)
	cfg := fl.FederationConfig{
		NumClients: s.NumClients,
		PerRound:   s.PerRound,
		Rounds:     s.Rounds,
		Alpha:      s.Alpha,
		ServerLR:   s.ServerLR,
		Client: fl.ClientConfig{
			Arch:       arch,
			Train:      s.Train,
			CVAE:       s.CVAE,
			CVAETrain:  s.CVAETrain,
			NumClasses: 10,
		},
		Workers:    s.Workers,
		TestSubset: s.TestSubset,
		Seed:       w.fedSeed,
	}
	if sc.MaliciousFraction > 0 {
		cfg.MaliciousFraction = sc.MaliciousFraction
		cfg.Attack = att
	}
	return cfg
}

// build makes everything a repetition needs before round 1: fresh
// inputs, the attack, the strategy and the federation config. tr, when
// non-nil, instruments the classifier.
func build(w workload, seed uint64, tr *tracer) (inputs, fl.Strategy, fl.FederationConfig, error) {
	in := makeInputs(w, seed)
	setup := w.setup
	if tr != nil {
		setup.Arch = tr.arch(setup.Arch)
	}
	att, err := experiment.NewAttack(mustScenario(w.scenario).Attack, w.fedSeed)
	if err != nil {
		return in, nil, fl.FederationConfig{}, err
	}
	if t, ok := att.(attack.AGRTailored); ok {
		t.TailorTo(w.strategy)
	}
	strat, err := experiment.NewStrategy(w.strategy, setup)
	return in, strat, federationConfig(w, setup.Arch, att), err
}

func mustScenario(id string) experiment.Scenario {
	sc, err := experiment.ScenarioByID(id)
	if err != nil {
		panic(err) // workloads name registered scenarios
	}
	return sc
}

// rep is one cold-start federation: set-up, every round, and what the
// correctness gate and the metrics need from it.
type rep struct {
	hist      *fl.History
	malicious map[int]bool
	guard     *defense.FedGuard // nil unless the strategy is FedGuard
	hash      uint64
	finite    bool

	genS, partS, setupS float64
	// roundS[k] is round k+1's wall time between onRound callbacks;
	// round 1 is timed from the engine's round-1 start.
	roundS   []float64
	runS     float64 // round-1 start to Run's return
	cpuS     float64 // process CPU over the same interval
	allocB   uint64  // bytes allocated over the same interval
	gcCycles uint32  // garbage collections over the same interval
	gcPauseS float64 // their stop-the-world pauses
	toTarget float64 // seconds to the target accuracy; -1 if never reached

	attempted, failed int
}

// runRep builds the workload from fresh inputs and runs it once. tr is
// nil for an untraced repetition: nil telemetry, and the bare strategy,
// architecture and connections.
func runRep(w workload, seed uint64, tr *tracer) (*rep, error) {
	// Start from a collected heap, as a fresh process would, so the
	// previous repetition's garbage does not pace this one's collector.
	runtime.GC()
	t0 := time.Now()
	in, strat, cfg, err := build(w, seed, tr)
	if err != nil {
		return nil, err
	}
	r := &rep{genS: in.genS, partS: in.partS, toTarget: -1, malicious: fl.MaliciousPlacement(cfg)}
	r.guard, _ = strat.(*defense.FedGuard)
	run := strat
	if tr != nil {
		run = tr.strategy(strat)
		if w.traceWrap != nil {
			run = w.traceWrap(run)
		}
	}

	var start, last time.Time
	onRound := func(rec fl.RoundRecord) {
		now := time.Now()
		r.roundS = append(r.roundS, now.Sub(last).Seconds())
		last = now
		if r.toTarget < 0 && rec.TestAccuracy >= w.target {
			r.toTarget = now.Sub(start).Seconds()
		}
		r.failed += len(rec.Dropped)
		if tr != nil {
			tr.roundDone(rec)
		}
	}
	var cpu0 float64
	var ms0 runtime.MemStats
	roundsStart := func(now time.Time) {
		start, last = now, now
		r.setupS = now.Sub(t0).Seconds()
		cpu0 = cpuSeconds()
		runtime.ReadMemStats(&ms0)
		if tr != nil {
			tr.roundStart(now)
		}
	}

	if w.net {
		r.hist, err = runNet(w, in, cfg, run, tr, roundsStart, onRound)
	} else {
		var fed *fl.Federation
		fed, err = fl.NewFederation(in.train, in.test, cfg)
		if err == nil {
			roundsStart(time.Now())
			r.hist, err = fed.Run(run, onRound)
		}
	}
	end := time.Now()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.runS = end.Sub(start).Seconds()
	r.cpuS = cpuSeconds() - cpu0
	r.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPauseS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	r.attempted = cfg.PerRound * cfg.Rounds
	if tr != nil {
		tr.runDone(end)
	}
	if err != nil {
		// An errored run fails every attempt it made.
		r.failed = r.attempted
		return r, err
	}
	r.failed += tr.nonFiniteUpdates()
	r.hash, r.finite = hashWeights(r.hist.FinalWeights)
	return r, nil
}

// runNet runs the federation through a fednet server on a loopback
// listener, with one client connection per client, all in this process.
// Set-up ends when the last client's connection is accepted.
func runNet(w workload, in inputs, cfg fl.FederationConfig, strat fl.Strategy, tr *tracer,
	roundsStart func(time.Time), onRound func(fl.RoundRecord)) (*fl.History, error) {
	attackName := mustScenario(w.scenario).Attack
	srv, err := fednet.NewServer(fednet.Config{
		Experiment: cfg,
		AttackName: attackName,
		ArchName:   w.setup.ArchName,
		DataSeed:   in.trainSeed,
		TrainSize:  w.setup.TrainSize,
		Compress:   true,
	}, in.test, strat)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	al := &acceptListener{Listener: ln, want: cfg.NumClients, tr: tr, onLast: roundsStart}
	defer al.Close()

	var wg sync.WaitGroup
	errs := make([]error, cfg.NumClients)
	for id := 0; id < cfg.NumClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs[id] = err
				return
			}
			defer conn.Close()
			if tr != nil {
				conn = tr.clientConn(conn)
			}
			errs[id] = fednet.ServeClientOpts(conn, id, fednet.ClientOptions{Compress: true})
		}(id)
	}
	h, err := srv.Run(al, onRound)
	if err != nil {
		// The server closed every connection on its way out, so the
		// clients return; wait for them before reporting.
		al.Close()
	}
	wg.Wait()
	if err != nil {
		return h, err
	}
	for id, cerr := range errs {
		if cerr != nil {
			return h, fmt.Errorf("client %d: %w", id, cerr)
		}
	}
	return h, nil
}

// acceptListener notes when the last expected client is accepted, which
// is where a networked run's set-up ends and round 1 begins. In a traced
// pass it also wraps each accepted connection in a timing connection.
type acceptListener struct {
	net.Listener
	want     int
	accepted int
	tr       *tracer
	onLast   func(time.Time)
}

func (l *acceptListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted++
	if l.accepted == l.want {
		l.onLast(time.Now())
	}
	if l.tr != nil {
		c = l.tr.serverConn(c)
	}
	return c, nil
}

// Close is idempotent so the error path and the deferred close can both
// call it.
func (l *acceptListener) Close() error {
	err := l.Listener.Close()
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// hashWeights fingerprints a parameter vector bit for bit and reports
// whether every value is finite.
func hashWeights(ws []float32) (uint64, bool) {
	h := fnv.New64a()
	finite := true
	var b [4]byte
	for _, v := range ws {
		bits := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
		h.Write(b[:])
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			finite = false
		}
	}
	return h.Sum64(), finite
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set (getrusage maxrss, which
// Linux reports in KiB and is the same figure as VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
