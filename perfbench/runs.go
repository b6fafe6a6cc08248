package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"pipebd/internal/cluster"
	"pipebd/internal/dataset"
	"pipebd/internal/engine"
	"pipebd/internal/obs"
	"pipebd/internal/sim"
	"pipebd/internal/tensor"
)

// endToEnd summarizes the measured sessions of a run.
type endToEnd struct {
	samplesPerS, p50, p90, setupS, finalLoss, rssMB float64
	intervals, beyondP90                            int
}

// summarize reports the median over sessions of each session's
// throughput (the global batch times the steps completed after its first,
// over the time from its first to its last step completion), step
// interval p50 and p90, setup time and peak RSS. Medians over many
// sessions keep one disturbed session from moving a run's figures. With
// scaled set the times are read at the reference host speed
// (hostspeed.go), else they are wall-clock.
func summarize(wl *workload, ss []*session, scaled bool) endToEnd {
	var p50s, p90s, setups, rates, rss []float64
	e := endToEnd{finalLoss: ss[len(ss)-1].finalLoss}
	for _, s := range ss {
		k := 1.0
		if scaled {
			k = s.scale
		}
		iv := s.intervals(k)
		p90 := quantile(iv, 0.9)
		for _, v := range iv {
			if v > p90 {
				e.beyondP90++
			}
		}
		e.intervals += len(iv)
		p50s = append(p50s, quantile(iv, 0.5))
		p90s = append(p90s, p90)
		rss = append(rss, s.peakRSSMB)
		span := k * s.done[len(s.done)-1].Sub(s.done[0]).Seconds()
		rates = append(rates, float64(wl.batch*(len(s.done)-1))/span)
		setups = append(setups, s.setupS(k))
	}
	e.samplesPerS, e.p50, e.p90 = median(rates), median(p50s), median(p90s)
	e.setupS, e.rssMB = median(setups), median(rss)
	return e
}

// sessionLoop runs one unmeasured warm-up session, then repeats step until
// d has passed or a session times out. step returns whether to go on.
// The host speed probe runs throughout, warm-up included.
func sessionLoop(b *bench, d time.Duration, res *result, out io.Writer, step func() bool) {
	b.speed = startHostSpeed()
	defer b.speed.close()
	_, err := b.runSession(nil)
	res.record(err, out)
	if errors.Is(err, errTimeout) {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) && step() {
	}
}

// untraced measures the end-to-end metrics.
func untraced(b *bench, d time.Duration, out io.Writer) (*result, error) {
	res := &result{}
	var ss []*session
	sessionLoop(b, d, res, out, func() bool {
		s, err := b.runSession(nil)
		res.record(err, out)
		if err == nil {
			ss = append(ss, s)
		}
		return !errors.Is(err, errTimeout)
	})
	if len(ss) == 0 {
		return nil, fmt.Errorf("no session of %d succeeded", res.attempted)
	}
	e, wall := summarize(b.wl, ss, true), summarize(b.wl, ss, false)
	var scales, refs []float64
	for _, s := range ss {
		scales, refs = append(scales, s.scale), append(refs, s.refUs)
	}
	res.metrics = []metric{
		{"samples_per_s", e.samplesPerS, "1/s"},
		{"step_ms_p50", e.p50, "ms"},
		{"step_ms_p90", e.p90, "ms"},
		{"setup_s", e.setupS, "s"},
		{"peak_rss_mb", e.rssMB, "MB"},
		{"final_loss", e.finalLoss, "loss"},
	}
	fmt.Fprintf(out, "perfbench: %d measured sessions of %d steps, batch %d, %d step intervals, %d beyond their session's p90; every session bit-identical to engine.RunPipelined: %v\n",
		len(ss), b.wl.steps, b.wl.batch, e.intervals, e.beyondP90, res.mismatched == 0)
	if e.beyondP90 < 10 {
		fmt.Fprintf(out, "perfbench: WARNING: only %d intervals beyond p90; lengthen the run\n", e.beyondP90)
	}
	fmt.Fprintf(out, "perfbench: host speed reading median %.4g us (nominal %.4g us); session scales %.3f..%.3f, median %.3f\n",
		median(refs), refNominalUs, quantile(scales, 0), quantile(scales, 1), median(scales))
	fmt.Fprintf(out, "perfbench: times are at the reference host speed; wall clock: samples_per_s %.6g, step_ms_p50 %.6g, step_ms_p90 %.6g, setup_s %.6g\n",
		wall.samplesPerS, wall.p50, wall.p90, wall.setupS)
	for _, m := range res.metrics {
		fmt.Fprintf(out, "end_to_end %-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(out, "end_to_end %-28s %14.6g ratio (%d of %d sessions)\n", "failed_ratio",
		float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	if b.wl.durable {
		fmt.Fprintf(out, "check      every session absorbed its %d scheduled control-link flaps (cluster.faults_absorbed) with cluster.restarts = 0\n",
			len(b.wl.flaps(b.seed)))
	}
	fmt.Fprintf(out, "perfbench: final_loss averages each block's loss over the last quarter of the steps; at the last step alone the sum is %.6g\n",
		ss[len(ss)-1].lastLoss)
	return res, nil
}

// kernelSnap is a reading of a timedBackend.
type kernelSnap struct{ calls, ns, flops [numKernels]int64 }

func (t *timedBackend) snap() kernelSnap {
	var s kernelSnap
	for k := 0; k < numKernels; k++ {
		s.calls[k], s.ns[k], s.flops[k] = t.calls[k].Load(), t.ns[k].Load(), t.flops[k].Load()
	}
	return s
}

// netSnap is a reading of a netStats.
type netSnap struct {
	sendNs, recvNs int64
	bytes, frames  [roleAccept]int64
}

func (st *netStats) snap() netSnap {
	s := netSnap{sendNs: st.sendNs.Load(), recvNs: st.recvNs.Load()}
	for r := range s.bytes {
		s.bytes[r], s.frames[r] = st.bytes[r].Load(), st.frames[r].Load()
	}
	return s
}

// sessionTrace is what one traced session yields, totals over the session.
type sessionTrace struct {
	cat    [obs.NumCategories]float64 // device self time by category, s
	ledger float64                    // coordinator ledger appends, s
	epoch  float64                    // wall span of the device tracks, s
	idle   []float64                  // per device track, share of epoch
	kern   kernelSnap
	net    netSnap
	counts map[string]float64 // the deterministic counters, per step or per session
}

func newSessionTrace(wl *workload, s *session, p *probes, k0 kernelSnap, n0 netSnap) sessionTrace {
	var t sessionTrace
	names, byTrack := p.spans.Tracks()
	var devs []string
	for _, n := range names {
		if strings.HasPrefix(n, "dev") {
			devs = append(devs, n)
		}
	}
	// Tracks arrive in the order the workers' spans reach the collector;
	// sorted, index i is the same device in every session.
	sort.Strings(devs)
	ranks, epoch := obs.Measured(devs, byTrack)
	t.epoch = epoch
	for _, r := range ranks {
		for c := range r.Busy {
			t.cat[c] += r.Busy[c]
		}
		t.idle = append(t.idle, 1-r.TotalBusy()/epoch)
	}
	if co, _ := obs.Measured([]string{"coordinator"}, byTrack); len(co) == 1 {
		t.ledger = co[0].Busy[obs.CatLedger]
	}
	k1, n1 := p.backend.snap(), p.net.snap()
	for k := 0; k < numKernels; k++ {
		t.kern.calls[k] = k1.calls[k] - k0.calls[k]
		t.kern.ns[k] = k1.ns[k] - k0.ns[k]
		t.kern.flops[k] = k1.flops[k] - k0.flops[k]
	}
	t.net = netSnap{sendNs: n1.sendNs - n0.sendNs, recvNs: n1.recvNs - n0.recvNs}
	for r := range t.net.bytes {
		t.net.bytes[r] = n1.bytes[r] - n0.bytes[r]
		t.net.frames[r] = n1.frames[r] - n0.frames[r]
	}
	steps := float64(wl.steps)
	var calls int64
	for _, c := range t.kern.calls {
		calls += c
	}
	cnt := func(m *obs.Metrics, name string) float64 { return float64(m.Counter(name).Load()) }
	t.counts = map[string]float64{
		"tensor.calls_per_step":           float64(calls) / steps,
		"transport.coord.bytes_per_step":  float64(t.net.bytes[roleCoord]) / steps,
		"transport.coord.frames_per_step": float64(t.net.frames[roleCoord]) / steps,
		"transport.peer.bytes_per_step":   float64(t.net.bytes[rolePeer]) / steps,
		"transport.peer.frames_per_step":  float64(t.net.frames[rolePeer]) / steps,
		"ledger.records_per_step":         cnt(s.coord, "ledger_records") / steps,
		"ledger.bytes_per_step":           cnt(s.coord, "ledger_bytes") / steps,
		"cluster.snapshots_per_step":      cnt(s.coord, "snapshots") / steps,
		"cluster.frames_replayed":         cnt(s.coord, "link_frames_replayed") + cnt(s.workers, "link_frames_replayed"),
	}
	return t
}

// counterNames are the deterministic counters, reported as counts.
var counterNames = []string{
	"tensor.calls_per_step",
	"transport.coord.bytes_per_step", "transport.coord.frames_per_step",
	"transport.peer.bytes_per_step", "transport.peer.frames_per_step",
	"ledger.records_per_step", "ledger.bytes_per_step",
	"cluster.snapshots_per_step", "cluster.frames_replayed",
}

// baselineReps is how many times each in-process baseline is timed.
const baselineReps = 3

// baselines times the single-worker engine.RunSequential and the
// in-process engine.RunPipelined on the run's batches, each the median of
// baselineReps runs, per step. The pipelined figure is the steady-state
// step: the slope between a run of the batches and a run of them twice
// over, so pipeline fill and drain drop out.
func baselines(b *bench) (seqMs, pipeMs float64, err error) {
	steps := float64(b.wl.steps)
	twice := append(append([]dataset.Batch(nil), b.batches...), b.batches...)
	var seq, slope []float64
	for i := 0; i < baselineReps; i++ {
		w, err := cluster.BuildWorkbench(b.wl.spec)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		engine.RunSequential(w, b.batches, lr, momentum)
		seq = append(seq, ms(time.Since(start))/steps)
		_, once, err := runOracle(b.wl.spec, b.batches)
		if err != nil {
			return 0, 0, err
		}
		_, double, err := runOracle(b.wl.spec, twice)
		if err != nil {
			return 0, 0, err
		}
		slope = append(slope, ms(double-once)/steps)
	}
	return median(seq), median(slope), nil
}

// traced measures the per-layer metrics. Untraced and traced sessions
// alternate, so the trace overhead ratio compares like with like.
func traced(b *bench, d time.Duration, out io.Writer) (*result, error) {
	wl, steps := b.wl, float64(b.wl.steps)
	start := time.Now()
	seqMs, pipeMs, err := baselines(b)
	if err != nil {
		return nil, err
	}
	// The baselines count toward the measuring time; the sessions get
	// the rest, and at least a third of it.
	d = max(d-time.Since(start), d/3)

	be := &timedBackend{inner: tensor.Serial{}}
	ns := &netStats{capturing: true, captureStep: int32(wl.steps / 2)}
	res := &result{}
	var plain []*session
	var traces []sessionTrace
	var tracedP50s []float64
	var rt runtimeSample
	rtSessions := 0
	sessionLoop(b, d, res, out, func() bool {
		rtSessions++
		r0 := readRuntime()
		s, err := b.runSession(nil)
		rt = rt.add(readRuntime().sub(r0))
		res.record(err, out)
		if errors.Is(err, errTimeout) {
			return false
		}
		if err == nil {
			plain = append(plain, s)
		}
		p := &probes{backend: be, net: ns, spans: obs.NewCollector()}
		k0, n0 := be.snap(), ns.snap()
		s, err = b.runSession(p)
		res.record(err, out)
		if err == nil {
			ns.mu.Lock()
			ns.capturing = false
			ns.mu.Unlock()
			traces = append(traces, newSessionTrace(wl, s, p, k0, n0))
			tracedP50s = append(tracedP50s, quantile(s.intervals(s.scale), 0.5))
		}
		return !errors.Is(err, errTimeout)
	})
	if len(plain) == 0 || len(traces) == 0 {
		return nil, fmt.Errorf("no untraced and traced session pair succeeded (%d of %d sessions failed)", res.failed, res.attempted)
	}
	comp, err := measureComponents(b, ns.captured)
	if err != nil {
		return nil, err
	}

	// Totals over the traced sessions, then per step.
	var tot sessionTrace
	idleSum := make([]float64, len(traces[0].idle))
	for _, t := range traces {
		for c := range t.cat {
			tot.cat[c] += t.cat[c]
		}
		tot.ledger += t.ledger
		tot.epoch += t.epoch
		for i := range idleSum {
			if i < len(t.idle) {
				idleSum[i] += t.idle[i]
			}
		}
		for k := 0; k < numKernels; k++ {
			tot.kern.calls[k] += t.kern.calls[k]
			tot.kern.ns[k] += t.kern.ns[k]
			tot.kern.flops[k] += t.kern.flops[k]
		}
		tot.net.sendNs += t.net.sendNs
		tot.net.recvNs += t.net.recvNs
	}
	n := float64(len(traces))
	T := n * steps // traced steps
	perStepMs := func(sec float64) float64 { return sec * 1e3 / T }
	var idleMax, idleMean float64
	for _, v := range idleSum {
		v /= n
		idleMax = max(idleMax, v)
		idleMean += v / float64(len(idleSum))
	}
	var kernNs int64
	for _, v := range tot.kern.ns {
		kernNs += v
	}
	compute := tot.cat[sim.CatTeacherFwd] + tot.cat[sim.CatStudentFwd] + tot.cat[sim.CatStudentBwd] + tot.cat[sim.CatUpdate]
	// The cluster's overhead is against the in-process baseline, both
	// wall-clock; the trace overhead compares traced and untraced sessions
	// at the reference speed, as they ran at different moments.
	plainE, plainScaled := summarize(wl, plain, false), summarize(wl, plain, true)
	tracedP50 := median(tracedP50s)
	var fwdbwd, allocs float64
	exact := map[string]bool{"nn.allocs_sum": true}
	for _, op := range comp.ops {
		fwdbwd += op.fwdUs + op.bwdUs
		allocs += op.alloc
		exact["nn.allocs_sum"] = exact["nn.allocs_sum"] && op.allocExact
	}

	all := []metric{
		{"tensor.gemm.ms_per_step", float64(tot.kern.ns[kGemm]) / 1e6 / T, "ms"},
		{"tensor.gemm.gflops", gflops(tot.kern, kGemm), "GFLOP/s"},
		{"tensor.gemm_batch.ms_per_step", float64(tot.kern.ns[kGemmBatch]) / 1e6 / T, "ms"},
		{"tensor.gemm_batch.gflops", gflops(tot.kern, kGemmBatch), "GFLOP/s"},
		{"tensor.conv.ms_per_step", float64(tot.kern.ns[kConv]) / 1e6 / T, "ms"},
		{"tensor.conv.gflops", gflops(tot.kern, kConv), "GFLOP/s"},
		{"tensor.eltwise.ms_per_step", float64(tot.kern.ns[kElt]) / 1e6 / T, "ms"},
		{"tensor.busy_share", float64(kernNs) / 1e9 / compute, "ratio"},
		{"nn.fwdbwd_us_sum", fwdbwd, "us"},
		{"distill.teacher_fwd_ms_per_step", perStepMs(tot.cat[sim.CatTeacherFwd]), "ms"},
		{"distill.student_fwdbwd_ms_per_step", perStepMs(tot.cat[sim.CatStudentFwd] + tot.cat[sim.CatStudentBwd]), "ms"},
		{"distill.update_ms_per_step", perStepMs(tot.cat[sim.CatUpdate]), "ms"},
		{"engine.sequential_step_ms", seqMs, "ms"},
		{"engine.pipelined_step_ms", pipeMs, "ms"},
		{"engine.idle_share_max", idleMax, "ratio"},
		{"engine.idle_share_mean", idleMean, "ratio"},
		{"engine.wait_ms_per_step", perStepMs(tot.cat[obs.CatWait]), "ms"},
		{"engine.allreduce_ms_per_step", perStepMs(tot.cat[sim.CatAllReduce]), "ms"},
		{"cluster.overhead_ms_per_step", plainE.p50 - pipeMs, "ms"},
		{"cluster.build_workbench_ms", comp.buildMs, "ms"},
		{"cluster.snapshot_ms_per_step", perStepMs(tot.cat[obs.CatSnapshot]), "ms"},
		{"transport.send_ms_per_step", float64(tot.net.sendNs) / 1e6 / T, "ms"},
		{"transport.recv_wait_ms_per_step", float64(tot.net.recvNs) / 1e6 / T, "ms"},
		{"wire.codec_ms_per_step", comp.codecMsPerStep, "ms"},
		{"wire.codec_mb_per_s", comp.codecMBPerS, "MB/s"},
		{"ledger.append_ms_per_step", perStepMs(tot.ledger), "ms"},
		{"dataset.gen_ms_per_step", comp.genMsPerStep, "ms"},
		{"obs.trace_overhead_ratio", tracedP50 / plainScaled.p50, "ratio"},
		{"runtime.alloc_mb_per_step", rt.allocBytes / 1e6 / (float64(rtSessions) * steps), "MB"},
		{"runtime.gc_cpu_share", rt.gcCPU / rt.total, "ratio"},
	}
	// Counts: the mean over traced sessions, marked exact when every
	// traced session of this seed gave the same value.
	for _, name := range counterNames {
		var sum float64
		exact[name] = true
		for _, t := range traces {
			sum += t.counts[name]
			if t.counts[name] != traces[0].counts[name] {
				exact[name] = false
			}
		}
		all = append(all, metric{name, sum / n, "count"})
	}
	all = append(all, metric{"nn.allocs_sum", allocs, "count"})

	printLedger(out, wl, tot, T, kernNs)
	fmt.Fprintf(out, "perfbench: %d traced and %d untraced sessions; at the reference host speed untraced step p50 %.4g ms, traced %.4g ms\n",
		len(traces), len(plain), plainScaled.p50, tracedP50)
	byName := map[string]metric{}
	for _, m := range all {
		byName[m.name] = m
	}
	for _, m := range all {
		if m.unit == "count" {
			continue
		}
		if why := notApplicable(wl, m.name, tot); why != "" {
			fmt.Fprintf(out, "per_layer  %-36s n/a: %s\n", m.name, why)
			continue
		}
		fmt.Fprintf(out, "per_layer  %-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if overhead := byName["cluster.overhead_ms_per_step"].value; overhead <= 0 {
		fmt.Fprintf(out, "perfbench: note: cluster.overhead_ms_per_step is %.4g, not positive: the cluster's step is within the in-process pipeline's timing noise on this workload\n", overhead)
	}
	printOps(out, wl, comp)
	fmt.Fprintf(out, "per_layer  wire codec: %d frames, %d bytes captured at step %d\n", comp.codecFrames, comp.codecBytes, wl.steps/2)
	fmt.Fprintf(out, "counters (mean over %d traced sessions; 'exact' = identical in every one, citable; 'varies' = timing-dependent)\n", len(traces))
	for _, name := range append(counterNames, "nn.allocs_sum") {
		if why := notApplicable(wl, name, tot); why != "" {
			fmt.Fprintf(out, "count      %-36s n/a: %s\n", name, why)
			continue
		}
		fmt.Fprintf(out, "count      %-36s %14.6g  %s\n", name, byName[name].value, exactness(exact[name]))
	}
	if wl.durable {
		fmt.Fprintf(out, "check      every traced session absorbed its %d scheduled control-link flaps (cluster.faults_absorbed) with cluster.restarts = 0\n",
			len(wl.flaps(b.seed)))
		fmt.Fprintf(out, "count      ledger directory size after a session: %d bytes\n", maxLedger(plain))
	}
	for _, name := range jsonPerLayer {
		m, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
		res.metrics = append(res.metrics, m)
	}
	return res, nil
}

func exactness(exact bool) string {
	if exact {
		return "exact"
	}
	return "varies"
}

func gflops(k kernelSnap, kind int) float64 {
	if k.ns[kind] == 0 {
		return 0
	}
	return float64(k.flops[kind]) / float64(k.ns[kind])
}

func maxLedger(ss []*session) int64 {
	var m int64
	for _, s := range ss {
		m = max(m, s.ledgerB)
	}
	return m
}

// notApplicable says why a per-layer timing does not apply to a workload,
// or "" when it does.
func notApplicable(wl *workload, name string, tot sessionTrace) string {
	for k, kn := range kernelNames {
		if strings.HasPrefix(name, "tensor."+kn+".") && tot.kern.calls[k] == 0 {
			return fmt.Sprintf("the %s workbench makes no %s backend calls", wl.spec.Name, kn)
		}
	}
	switch {
	case strings.HasPrefix(name, "cluster.snapshot") && !wl.durable:
		return "the session takes no snapshots (not fault tolerant)"
	case strings.HasPrefix(name, "ledger.") && !wl.durable:
		return "the session keeps no ledger"
	case name == "cluster.frames_replayed" && !wl.durable:
		return "no link faults are scheduled, so no frames are replayed"
	case strings.HasPrefix(name, "transport.peer.") && wl.topology == "hub":
		return "the hub topology has no peer links"
	}
	return ""
}

// printOps prints the nn op microbenchmarks, and names the ops of the
// other workbench family as not applicable.
func printOps(out io.Writer, wl *workload, c components) {
	for _, op := range c.ops {
		fmt.Fprintf(out, "per_layer  nn.%-33s %14.6g us\n", op.name+".fwd_us", op.fwdUs)
		if op.hasBwd {
			fmt.Fprintf(out, "per_layer  nn.%-33s %14.6g us\n", op.name+".bwd_us", op.bwdUs)
		} else {
			fmt.Fprintf(out, "per_layer  nn.%-33s n/a: the loss returns its gradient with its value\n", op.name+".bwd_us")
		}
		fmt.Fprintf(out, "count      nn.%-33s %14.6g  %s\n", op.name+".allocs", op.alloc, exactness(op.allocExact))
	}
	other := "embedding, mha, layernorm, ffn, linear, kl"
	if wl.spec.Name == "transformer" {
		other = "conv3x3, dwconv3x3, pwconv1x1, batchnorm, relu, mse"
	}
	fmt.Fprintf(out, "per_layer  nn.{%s}: n/a: the %s workbench does not run them\n", other, wl.spec.Name)
}

// printLedger prints the device-time ledger of the traced sessions: each
// layer's self time per step, summed over the devices, its share of the
// devices' wall time, and the unattributed remainder.
func printLedger(out io.Writer, wl *workload, tot sessionTrace, T float64, kernNs int64) {
	wall := tot.epoch * numDevices * 1e3 / T
	fmt.Fprintf(out, "layer ledger: %s, per step, %d devices x %.4g ms device wall time = %.4g ms\n",
		wl.name, numDevices, wall/numDevices, wall)
	row := func(name string, v float64) {
		fmt.Fprintf(out, "  %-42s %10.4f ms %6.1f%%\n", name, v, 100*v/wall)
	}
	var attributed float64
	cats := []struct {
		name string
		c    sim.Category
	}{
		{"distill.teacher_fwd", sim.CatTeacherFwd},
		{"distill.student_fwd (incl. loss)", sim.CatStudentFwd},
		{"distill.student_bwd", sim.CatStudentBwd},
		{"distill.update", sim.CatUpdate},
		{"engine.allreduce", sim.CatAllReduce},
		{"engine.recv_input (load)", sim.CatLoad},
		{"engine/cluster activation relay (comm)", sim.CatComm},
		{"engine.wait (barrier, ack window)", obs.CatWait},
		{"cluster.snapshot", obs.CatSnapshot},
	}
	var compute float64
	for _, c := range cats {
		v := tot.cat[c.c] * 1e3 / T
		attributed += v
		row(c.name, v)
		if c.c <= sim.CatUpdate && c.c != sim.CatLoad {
			compute += v
		}
	}
	backend := float64(kernNs) / 1e6 / T
	row("  of compute: tensor backend", backend)
	row("  of compute: outside the backend", compute-backend)
	row("unattributed (device idle outside spans)", wall-attributed)
	fmt.Fprintf(out, "  off the device tracks: coordinator ledger appends %.4f ms/step\n", tot.ledger*1e3/T)
}

// jsonPerLayer are the per-layer metrics the traced run's result line
// carries: those that apply to every workload and are never zero on any.
// The rest are printed above it, or named as not applicable.
// cluster.overhead_ms_per_step is printed only: on the ring workloads the
// cluster's step is within the in-process pipeline's noise, so the
// difference can be zero or negative there.
var jsonPerLayer = []string{
	"tensor.gemm.ms_per_step", "tensor.gemm.gflops", "tensor.eltwise.ms_per_step",
	"tensor.calls_per_step", "tensor.busy_share",
	"nn.fwdbwd_us_sum", "nn.allocs_sum",
	"distill.teacher_fwd_ms_per_step", "distill.student_fwdbwd_ms_per_step", "distill.update_ms_per_step",
	"engine.sequential_step_ms", "engine.pipelined_step_ms",
	"engine.idle_share_max", "engine.idle_share_mean",
	"engine.wait_ms_per_step", "engine.allreduce_ms_per_step",
	"cluster.build_workbench_ms",
	"transport.coord.bytes_per_step", "transport.coord.frames_per_step",
	"transport.send_ms_per_step", "transport.recv_wait_ms_per_step",
	"wire.codec_ms_per_step", "wire.codec_mb_per_s",
	"dataset.gen_ms_per_step",
	"obs.trace_overhead_ratio",
	"runtime.alloc_mb_per_step", "runtime.gc_cpu_share",
}
