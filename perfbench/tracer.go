package main

import (
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedguard/internal/classifier"
	"fedguard/internal/fl"
	"fedguard/internal/nn"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// tracer holds the pass-through instruments of a traced pass. Each hook
// forwards to the real implementation unchanged and only reads clocks
// and counters around the call, so a traced run computes the same bytes
// as an untraced one.
type tracer struct {
	// inAggregate is set while the strategy aggregates, so forward passes
	// with train=false split into the audit (inside) and eval (outside)
	// phases.
	inAggregate atomic.Bool
	nonFinite   atomic.Int64

	layersMu sync.Mutex
	layers   map[int]*layerStat

	server, client wireSide

	// The round-phase clock. It is read and written only on the
	// goroutine that drives the rounds (the engine calls Aggregate and
	// onRound from its round loop).
	mark, startedAt             time.Time
	barrierS, aggregateS, postS float64
	rounds, clientRounds        int
	roundsWallS                 float64 // round-1 start to Run's return, summed over repetitions

	// Captures for the layer replays: the last aggregated round, the
	// global it started from, and round 1's cohort of the last run.
	lastUpdates []fl.Update
	lastGlobal  []float32
	lastRound   int
	firstCohort []int
}

func newTracer() *tracer {
	return &tracer{layers: map[int]*layerStat{}}
}

// roundStart marks round 1's start.
func (t *tracer) roundStart(now time.Time) {
	t.mark, t.startedAt = now, now
}

// roundDone closes a round at its onRound callback; the next round
// starts when the callback returns.
func (t *tracer) roundDone(rec fl.RoundRecord) {
	t.postS += time.Since(t.mark).Seconds()
	t.rounds++
	t.clientRounds += len(rec.Sampled) - len(rec.Dropped)
	if rec.Round == 1 {
		t.firstCohort = append([]int(nil), rec.Sampled...)
	}
	t.mark = time.Now()
}

func (t *tracer) runDone(end time.Time) {
	t.roundsWallS += end.Sub(t.startedAt).Seconds()
}

// nonFiniteUpdates returns and clears the count of client updates with a
// NaN or Inf weight seen since the last call.
func (t *tracer) nonFiniteUpdates() int {
	if t == nil {
		return 0
	}
	return int(t.nonFinite.Swap(0))
}

// strategy wraps s so each Aggregate call is timed and its inputs kept
// for the replays.
func (t *tracer) strategy(s fl.Strategy) fl.Strategy { return &tracedStrategy{Strategy: s, t: t} }

type tracedStrategy struct {
	fl.Strategy
	t *tracer
}

func (s *tracedStrategy) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	t := s.t
	enter := time.Now()
	t.barrierS += enter.Sub(t.mark).Seconds()
	t.inAggregate.Store(true)
	out, err := s.Strategy.Aggregate(ctx)
	t.inAggregate.Store(false)
	t.mark = time.Now()
	t.aggregateS += t.mark.Sub(enter).Seconds()
	for _, u := range ctx.Updates {
		if !allFinite(u.Weights) {
			t.nonFinite.Add(1)
		}
	}
	t.lastUpdates = append(t.lastUpdates[:0], ctx.Updates...)
	t.lastGlobal = append(t.lastGlobal[:0], ctx.Global...)
	t.lastRound = ctx.Round
	return out, err
}

func allFinite(ws []float32) bool {
	for _, v := range ws {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// Forward phases of a classifier layer.
const (
	phaseTrain = iota
	phaseAudit
	phaseEval
	numPhases
)

var phaseNames = [numPhases]string{"train", "audit", "eval"}

// layerStat accumulates one classifier layer position across every model
// instance the architecture builds (each client builds its own per
// round, as do the audit and eval models).
type layerStat struct {
	index int
	kind  string
	fwdNs [numPhases]atomic.Int64
	bwdNs atomic.Int64
	calls atomic.Int64
	flops atomic.Int64 // forward plus backward floating-point operations
}

func (l *layerStat) name() string { return fmt.Sprintf("nn.%d_%s", l.index, l.kind) }

// arch wraps every model inner builds: each layer with parameters and
// each pool layer is replaced by a timing layer around the original.
func (t *tracer) arch(inner classifier.Arch) classifier.Arch {
	return func(r *rng.RNG) *nn.Sequential {
		s := inner(r)
		for i, l := range s.Layers {
			if st := t.layer(i, l); st != nil {
				s.Layers[i] = &timedLayer{Layer: l, st: st, t: t}
			}
		}
		return s
	}
}

func (t *tracer) layer(i int, l nn.Layer) *layerStat {
	var kind string
	switch l.(type) {
	case *nn.Conv2D:
		kind = "conv"
	case *nn.Linear:
		kind = "linear"
	case *nn.MaxPool2D:
		kind = "pool"
	default:
		return nil
	}
	t.layersMu.Lock()
	defer t.layersMu.Unlock()
	st := t.layers[i]
	if st == nil {
		st = &layerStat{index: i, kind: kind}
		t.layers[i] = st
	}
	return st
}

// layerStats returns the layers in network order.
func (t *tracer) layerStats() []*layerStat {
	t.layersMu.Lock()
	defer t.layersMu.Unlock()
	out := make([]*layerStat, 0, len(t.layers))
	for _, st := range t.layers {
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out
}

type timedLayer struct {
	nn.Layer
	st *layerStat
	t  *tracer
}

func (l *timedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	start := time.Now()
	y := l.Layer.Forward(x, train)
	d := time.Since(start)
	phase := phaseEval
	switch {
	case train:
		phase = phaseTrain
	case l.t.inAggregate.Load():
		phase = phaseAudit
	}
	l.st.fwdNs[phase].Add(int64(d))
	l.st.calls.Add(1)
	l.st.flops.Add(forwardFlops(l.Layer, x, y))
	return y
}

func (l *timedLayer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	start := time.Now()
	dx := l.Layer.Backward(grad)
	l.st.bwdNs.Add(int64(time.Since(start)))
	l.st.flops.Add(backwardFlops(l.Layer, grad))
	return dx
}

// forwardFlops counts a forward pass's multiply-adds as two operations;
// a pool layer counts one comparison per input element.
func forwardFlops(l nn.Layer, x, y *tensor.Tensor) int64 {
	switch l := l.(type) {
	case *nn.Linear:
		return 2 * int64(x.Dim(0)) * int64(l.In) * int64(l.Out)
	case *nn.Conv2D:
		return 2 * int64(y.Len()) * int64(l.InC*l.KH*l.KW)
	default:
		return int64(x.Len())
	}
}

// backwardFlops counts the parameter gradient plus, unless the layer
// skips it, the input gradient: each costs one forward's operations.
func backwardFlops(l nn.Layer, grad *tensor.Tensor) int64 {
	switch l := l.(type) {
	case *nn.Linear:
		return 4 * int64(grad.Dim(0)) * int64(l.In) * int64(l.Out)
	case *nn.Conv2D:
		fwd := 2 * int64(grad.Len()) * int64(l.InC*l.KH*l.KW)
		if l.InputGradOff {
			return fwd
		}
		return 2 * fwd
	default:
		return int64(grad.Len())
	}
}

// wireSide accumulates one end of every connection of a networked run.
type wireSide struct {
	readNs, writeNs     atomic.Int64
	reads, writes       atomic.Int64
	bytesIn, bytesOut   atomic.Int64
	turnNs, turnarounds atomic.Int64
}

func (t *tracer) serverConn(c net.Conn) net.Conn { return &timedConn{Conn: c, side: &t.server} }

// clientConn also measures the client's turnaround: the idle time from
// the end of its upload to the arrival of its next request. The first
// exchange, Hello to Setup, is registration and is not counted.
func (t *tracer) clientConn(c net.Conn) net.Conn {
	return &timedConn{Conn: c, side: &t.client, turnaround: true}
}

type timedConn struct {
	net.Conn
	side       *wireSide
	turnaround bool
	// Touched only by the connection's single client goroutine.
	lastWrite  time.Time
	registered bool
}

func (c *timedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	end := time.Now()
	c.side.readNs.Add(int64(end.Sub(start)))
	c.side.reads.Add(1)
	c.side.bytesIn.Add(int64(n))
	if c.turnaround && n > 0 && !c.lastWrite.IsZero() {
		if c.registered {
			c.side.turnNs.Add(int64(end.Sub(c.lastWrite)))
			c.side.turnarounds.Add(1)
		}
		c.registered = true
		c.lastWrite = time.Time{}
	}
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	end := time.Now()
	c.side.writeNs.Add(int64(end.Sub(start)))
	c.side.writes.Add(1)
	c.side.bytesOut.Add(int64(n))
	if c.turnaround {
		c.lastWrite = end
	}
	return n, err
}
