package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pipebd/internal/cluster"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/obs"
)

// sessionTimeout bounds one cluster session; a session still running then
// counts as failed and ends the run.
const sessionTimeout = 60 * time.Second

// errTimeout marks a session that did not finish within sessionTimeout.
var errTimeout = errors.New("session timed out")

// stepWatch records when each step completes: the moment the coordinator
// has received every device's loss report for it.
type stepWatch struct {
	mu   sync.Mutex
	seen []uint64 // per step, bit d set once device d reported
	done []time.Time
}

func newStepWatch(steps int) *stepWatch {
	return &stepWatch{seen: make([]uint64, steps), done: make([]time.Time, steps)}
}

func (w *stepWatch) observe(f *wire.Frame) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	s, d := int(f.Step), int(f.Dev)
	if s < 0 || s >= len(w.seen) || d < 0 || d >= numDevices {
		return
	}
	w.seen[s] |= 1 << d
	if w.seen[s] == 1<<numDevices-1 && w.done[s].IsZero() {
		w.done[s] = now
	}
}

// completions returns every step's completion time, or an error when a
// step was never observed complete.
func (w *stepWatch) completions() ([]time.Time, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for s, t := range w.done {
		if t.IsZero() {
			return nil, fmt.Errorf("step %d never completed at the coordinator", s)
		}
	}
	return append([]time.Time(nil), w.done...), nil
}

// watchNet observes the loss reports arriving on the coordinator's
// connections.
type watchNet struct {
	transport.Network
	w *stepWatch
}

func (n watchNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return watchConn{Conn: c, w: n.w}, nil
}

type watchConn struct {
	transport.Conn
	w *stepWatch
}

func (c watchConn) Recv() (*wire.Frame, error) {
	f, err := c.Conn.Recv()
	if err == nil && f.Kind == wire.KindLosses {
		c.w.observe(f)
	}
	return f, err
}

// probes are the traced run's instruments; nil in untraced sessions.
type probes struct {
	backend *timedBackend
	net     *netStats
	spans   *obs.Collector
}

// session is the outcome of one verified cluster session.
type session struct {
	start     time.Time   // before the workers start listening
	done      []time.Time // per step completion
	finalLoss float64
	lastLoss  float64
	peakRSSMB float64      // since the session started
	coord     *obs.Metrics // coordinator counters
	workers   *obs.Metrics // both workers' counters
	ledgerB   int64        // ledger directory size after the run
	// scale converts the session's wall-clock times to the reference host
	// speed (see hostspeed.go); refUs is the speed reading it came from.
	scale, refUs float64
}

// intervals returns the gaps between successive step completions, in
// wall-clock ms times scale.
func (s *session) intervals(scale float64) []float64 {
	out := make([]float64, 0, len(s.done)-1)
	for i := 1; i < len(s.done); i++ {
		out = append(out, scale*ms(s.done[i].Sub(s.done[i-1])))
	}
	return out
}

// setupS is the fixed session cost: start to first step completion,
// minus the session's median step interval, in wall-clock s times scale.
func (s *session) setupS(scale float64) float64 {
	return scale*s.done[0].Sub(s.start).Seconds() - quantile(s.intervals(scale), 0.5)/1e3
}

// oracle is the in-process reference every session must reproduce bit for
// bit: engine.RunPipelined on the same batches and plan.
type oracle struct {
	res engine.Result
	w   *distill.Workbench
}

func runOracle(spec wire.ModelSpec, batches []dataset.Batch) (oracle, time.Duration, error) {
	w, err := cluster.BuildWorkbench(spec)
	if err != nil {
		return oracle{}, 0, err
	}
	start := time.Now()
	res := engine.RunPipelined(w, batches, engine.Config{
		Plan: hybridPlan(), DPU: true, LR: lr, Momentum: momentum, Buffer: buffer})
	return oracle{res: res, w: w}, time.Since(start), nil
}

// verify requires a session's losses and trained student weights to equal
// the oracle's bit for bit.
func (o oracle) verify(res engine.Result, w *distill.Workbench) error {
	if len(res.Loss) != len(o.res.Loss) {
		return fmt.Errorf("got %d loss rows, want %d", len(res.Loss), len(o.res.Loss))
	}
	for b := range o.res.Loss {
		if len(res.Loss[b]) != len(o.res.Loss[b]) {
			return fmt.Errorf("block %d: got %d losses, want %d", b, len(res.Loss[b]), len(o.res.Loss[b]))
		}
		for s, want := range o.res.Loss[b] {
			if math.Float64bits(res.Loss[b][s]) != math.Float64bits(want) {
				return fmt.Errorf("loss diverged at block %d step %d: %v vs %v", b, s, res.Loss[b][s], want)
			}
		}
	}
	for b := 0; b < o.w.NumBlocks(); b++ {
		got, want := w.StudentParams(b), o.w.StudentParams(b)
		for i := range want {
			if !got[i].Value.Equal(want[i].Value) {
				return fmt.Errorf("trained weights diverged at block %d param %d (%s)", b, i, want[i].Name)
			}
		}
	}
	return nil
}

// finalLoss sums the per-block distillation losses at the end of
// training, each averaged over the last quarter of the steps: at small
// batches the last step's loss alone depends mostly on which samples the
// seed put last.
func finalLoss(res engine.Result) float64 {
	var sum float64
	for _, l := range res.Loss {
		tail := l[len(l)-(len(l)+3)/4:]
		for _, v := range tail {
			sum += v / float64(len(tail))
		}
	}
	return sum
}

// lastStepLoss sums the per-block distillation losses at the last step.
func lastStepLoss(res engine.Result) float64 {
	var sum float64
	for _, l := range res.FinalLoss() {
		sum += l
	}
	return sum
}

// bench holds one run's generated inputs and reference.
type bench struct {
	wl      *workload
	seed    int64
	dir     string // where the run keeps its ledgers
	batches []dataset.Batch
	ref     oracle
	nextID  int
	speed   *hostSpeed // running while sessions are measured
}

func newBench(wl *workload, seed int64, dir string) (*bench, error) {
	batches, err := wl.recipe(seed, wl.steps*wl.batch).Batches()
	if err != nil {
		return nil, err
	}
	ref, _, err := runOracle(wl.spec, batches)
	if err != nil {
		return nil, err
	}
	return &bench{wl: wl, seed: seed, dir: dir, batches: batches, ref: ref}, nil
}

// runSession trains one fresh cluster — two in-process workers and the
// coordinator over TCP on 127.0.0.1 — and verifies it against the oracle.
// With p non-nil the session is traced through p's instruments.
func (b *bench) runSession(p *probes) (*session, error) {
	w, err := cluster.BuildWorkbench(b.wl.spec)
	if err != nil {
		return nil, err
	}
	b.nextID++
	ledgerDir := ""
	if b.wl.durable {
		ledgerDir = filepath.Join(b.dir, fmt.Sprintf("ledger-%d", b.nextID))
		defer os.RemoveAll(ledgerDir)
	}
	cfg := b.wl.clusterConfig(b.seed, ledgerDir)
	s := &session{coord: obs.NewMetrics(), workers: obs.NewMetrics()}
	cfg.Metrics = s.coord

	watch := newStepWatch(b.wl.steps)
	var coordNet, listenNet, dialNet transport.Network = transport.TCP{}, transport.TCP{}, transport.TCP{}
	var chaos *transport.Chaos
	faults := b.wl.flaps(b.seed)
	if len(faults) > 0 {
		chaos = transport.NewChaos(coordNet, faults...)
		coordNet = chaos
	}
	wcfg := cluster.WorkerConfig{Sessions: 1, Rejoin: true, Metrics: s.workers}
	if p != nil {
		coordNet = p.net.wrap(coordNet, roleCoord)
		listenNet = p.net.wrap(listenNet, roleAccept)
		dialNet = p.net.wrap(dialNet, rolePeer)
		wcfg.Backend = p.backend
		cfg.Trace = true
		cfg.TraceSink = p.spans.Add
	}
	coordNet = watchNet{Network: coordNet, w: watch}
	wcfg.Dial = dialNet

	// Where the kernel refuses the reset, the session's peak RSS is the
	// process's peak so far; every run on that host then reads the same way.
	_ = resetPeakRSS()
	s.start = time.Now()
	var addrs []string
	var workers []*cluster.Worker
	var wg sync.WaitGroup
	abandoned := false
	defer func() {
		for _, wk := range workers {
			wk.Close()
		}
		if !abandoned {
			wg.Wait()
		}
	}()
	for i := 0; i < numWorkers; i++ {
		lis, err := listenNet.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		wk := cluster.NewWorker(lis, wcfg)
		workers = append(workers, wk)
		addrs = append(addrs, wk.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = wk.Serve() // a failed session surfaces through cluster.Run
		}()
	}

	type outcome struct {
		res engine.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := cluster.Run(coordNet, addrs, w, b.batches, cfg)
		ch <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-ch:
	case <-time.After(sessionTimeout):
		// The session's goroutines cannot be stopped from outside; the
		// caller ends the run, and the process exit ends them.
		abandoned = true
		return nil, errTimeout
	}
	if out.err != nil {
		return nil, out.err
	}
	if s.done, err = watch.completions(); err != nil {
		return nil, err
	}
	if err := b.ref.verify(out.res, w); err != nil {
		return nil, fmt.Errorf("%w: not bit-identical to engine.RunPipelined: %v", errMismatch, err)
	}
	if chaos != nil {
		if unfired := chaos.Unfired(); len(unfired) > 0 {
			return nil, fmt.Errorf("%d scheduled flap(s) never fired: %v", len(unfired), unfired)
		}
		if got := s.coord.Counter("recoveries").Load(); got != 0 {
			return nil, fmt.Errorf("a flap consumed %d restart(s) instead of being absorbed", got)
		}
		// The coordinator dials every control link, so it absorbs each
		// flap once; the worker's end counts it too and is not checked.
		if got := s.coord.Counter("link_faults_absorbed").Load(); got != int64(len(faults)) {
			return nil, fmt.Errorf("the coordinator absorbed %d link fault(s), want the %d scheduled", got, len(faults))
		}
	}
	s.scale, s.refUs = b.speed.scale(s.start, s.done[len(s.done)-1])
	s.finalLoss, s.lastLoss = finalLoss(out.res), lastStepLoss(out.res)
	if s.peakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	if ledgerDir != "" {
		s.ledgerB = dirSize(ledgerDir)
	}
	return s, nil
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
