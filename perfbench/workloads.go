package main

import (
	"math/rand"
	"time"

	"pipebd/internal/cluster"
	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/sched"
)

// Seeds for claims. DefaultSeed is the seed to develop and tune against;
// HeldOutSeed is kept back so a later claim can be confirmed on inputs
// that did not shape the change.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// Every run uses the CLI-default hybrid plan: blocks 0-1 data-parallel on
// devices 0-1, blocks 2-3 on device 2, with decoupled parameter update on,
// the serial backend, and two batches in flight.
const (
	numWorkers = 2
	numDevices = 3
	lr         = 0.05
	momentum   = 0.9
	buffer     = 2
)

func hybridPlan() sched.Plan {
	return sched.Plan{Name: "hybrid", Groups: []sched.Group{
		{Devices: []int{0, 1}, Blocks: []int{0, 1}},
		{Devices: []int{2}, Blocks: []int{2, 3}},
	}}
}

// workload is one set of inputs the benchmark runs. A session trains
// steps batches of batch samples from a fresh cluster; a run repeats
// sessions for its measuring time.
type workload struct {
	name     string
	topology string
	batch    int
	steps    int
	spec     wire.ModelSpec
	// recipe is the deterministic dataset the seed selects; ring sessions
	// hand it to the workers (Config.Data), which regenerate their inputs.
	recipe func(seed int64, n int) wire.DataSpec
	// durable sessions keep a ledger (snapshot every step, fsync none) and
	// absorb seeded control-link flaps through Config.Retry.
	durable bool
	// ops lists the nn ops the workbench runs, at its exact shapes.
	ops func(seed int64) []nnOp
}

var workloads = []*workload{convRing(), attnRing(), ctrlHub()}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// convRing is the paper's compression hot path: a conv teacher distilled
// into depthwise-separable students, at a size where compute dominates the
// step (about 70 ms on two cores). Conv GEMMs have m = 32 rows, so they
// take the packed path. Each per-layer metric below should move the
// end-to-end metric it names, on this workload:
//   - tensor.gemm.*, tensor.conv.*, tensor.eltwise.ms_per_step -> step_ms_p50
//   - nn.{conv3x3,dwconv3x3,pwconv1x1,batchnorm,relu,mse}.* -> step_ms_p50, samples_per_s
//   - distill.* -> step_ms_p50
//   - engine.idle_share_* -> samples_per_s
//   - engine.wait_ms_per_step, engine.allreduce_ms_per_step -> step_ms_p50
//   - cluster.build_workbench_ms -> setup_s
//   - dataset.gen_ms_per_step -> setup_s, step_ms_p50
//   - runtime.alloc_mb_per_step, runtime.gc_cpu_share -> step_ms_p50
func convRing() *workload {
	tiny := distill.TinyConfig{Seed: 42, Blocks: 4, Channels: 32, Height: 16, Width: 16}
	const batch = 16
	return &workload{
		name: "conv-ring", topology: "ring", batch: batch, steps: 30,
		spec: cluster.TinySpec(tiny),
		recipe: func(seed int64, n int) wire.DataSpec {
			return wire.DataSpec{Seed: seed, N: n, C: 3, H: tiny.Height, W: tiny.Width,
				Classes: 4, Batch: batch}
		},
		ops: func(seed int64) []nnOp { return convOps(seed, batch, tiny.Channels, tiny.Height, tiny.Width) },
	}
}

// attnRing runs the same engine, cluster and wire code as conv-ring but
// other kernels: batched attention GEMMs, GELU, softmax and LayerNorm, with
// no depthwise conv and no im2col. A conv-kernel gain must show no change
// here, and an attention gain none on conv-ring. Per-layer metric and the
// end-to-end metric it should move here:
//   - tensor.gemm_batch.*, tensor.gemm.* -> step_ms_p50
//   - nn.{embedding,mha,layernorm,ffn,linear,kl}.* -> step_ms_p50, samples_per_s
//   - distill.* -> step_ms_p50
//   - dataset.gen_ms_per_step -> setup_s, step_ms_p50
func attnRing() *workload {
	tc := distill.TransformerConfig{Seed: 46, Blocks: 4, Dim: 64, Heads: 4,
		TeacherFF: 256, StudentFF: 64, SeqLen: 32, Vocab: 16, Classes: 4, Temp: 2}
	const batch = 16
	return &workload{
		name: "attn-ring", topology: "ring", batch: batch, steps: 30,
		spec: cluster.TransformerSpec(tc),
		recipe: func(seed int64, n int) wire.DataSpec {
			return wire.DataSpec{Seed: seed, N: n, Classes: tc.Classes, Batch: batch,
				Kind: "tokens", L: tc.SeqLen, Vocab: tc.Vocab}
		},
		ops: func(seed int64) []nnOp { return transformerOps(seed, batch, tc) },
	}
}

// ctrlHub is the control-plane workload: the CLI-default 6-channel
// workbench on 4x4 inputs, so per-step compute is well under a
// millisecond and frame round trips, hub relay and fold, snapshots,
// ledger appends and link replay set the step time. Conv GEMMs have m = 6
// rows and stay on the reference path. Hub-topology and event-stream
// changes move this workload first. Per-layer metric and the end-to-end
// metric it should move here:
//   - tensor.gemm.* -> step_ms_p50 (reference GEMM path)
//   - engine.wait_ms_per_step, engine.allreduce_ms_per_step -> step_ms_p50
//   - cluster.overhead_ms_per_step, cluster.snapshot* -> step_ms_p50
//   - cluster.frames_replayed -> step_ms_p90
//   - transport.*, wire.*, ledger.* -> step_ms_p50, step_ms_p90
//
// The flaps are a check, not a metric: every session must absorb each
// scheduled flap exactly once (cluster.faults_absorbed) with no restart
// (cluster.restarts = 0), or it fails.
func ctrlHub() *workload {
	tiny := distill.DefaultTinyConfig()
	tiny.Height, tiny.Width = 4, 4
	const batch = 4
	return &workload{
		name: "ctrl-hub", topology: "hub", batch: batch, steps: 100,
		spec: cluster.TinySpec(tiny),
		recipe: func(seed int64, n int) wire.DataSpec {
			return wire.DataSpec{Seed: seed, N: n, C: 3, H: tiny.Height, W: tiny.Width,
				Classes: 4, Batch: batch}
		},
		durable: true,
		ops:     func(seed int64) []nnOp { return convOps(seed, batch, tiny.Channels, tiny.Height, tiny.Width) },
	}
}

// clusterConfig is the coordinator configuration of one session.
func (w *workload) clusterConfig(seed int64, ledgerDir string) cluster.Config {
	cfg := cluster.Config{
		Plan: hybridPlan(), DPU: true, LR: lr, Momentum: momentum, Buffer: buffer,
		Backend: "serial", Topology: w.topology, Spec: w.spec,
		JoinTimeout: 10 * time.Second,
	}
	if w.topology == "ring" {
		cfg.Data = w.recipe(seed, w.steps*w.batch)
	}
	if w.durable {
		cfg.LedgerDir = ledgerDir
		cfg.Fsync = ledger.SyncPolicy{Mode: ledger.SyncNone}
		// The reconnect backoff and the ack interval keep the program's
		// defaults (10 ms, every 8 frames), as a -retry-budget run of the
		// CLI does; the budget only has to outlast a flap.
		cfg.Retry = wire.RetrySpec{BudgetMillis: 2000}
	}
	return cfg
}

// flapsPer100Steps control-link flaps hit every durable session.
const flapsPer100Steps = 2

// flaps derives the durable sessions' fault schedule from the seed: each
// flap breaks the control link that carries the first loss report of a
// distinct seeded step, and the resumable link must absorb it.
func (w *workload) flaps(seed int64) []transport.Fault {
	if !w.durable {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	n := flapsPer100Steps * w.steps / 100
	steps := rng.Perm(w.steps)[:n]
	out := make([]transport.Fault, n)
	for i, s := range steps {
		out[i] = transport.Fault{
			Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
				Kind: wire.KindLosses, Step: int32(s), Count: 1},
			Action: transport.ActFlap,
		}
	}
	return out
}
