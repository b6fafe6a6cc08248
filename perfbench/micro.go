package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"pipebd/internal/cluster"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/nn"
	"pipebd/internal/tensor"
)

// microBudget is how long one microbenchmark samples its function.
const microBudget = 150 * time.Millisecond

// timeCalls samples f for about microBudget (at least 5 calls), running
// prep untimed before each call, and returns the median call time in µs.
func timeCalls(prep, f func()) float64 {
	if prep != nil {
		prep()
	}
	f() // warm-up: first-call allocations and caches
	var samples []float64
	start := time.Now()
	for len(samples) < 5 || (time.Since(start) < microBudget && len(samples) < 20000) {
		if prep != nil {
			prep()
		}
		s := time.Now()
		f()
		samples = append(samples, float64(time.Since(s))/1e3)
	}
	return median(samples)
}

// allocsPer counts heap allocations per call of f, with the collector
// off: a collection empties the tensor pools and adds allocations that
// depend on when it ran. It takes three samples; exact reports whether
// they agreed, and the least is returned.
func allocsPer(f func()) (allocs float64, exact bool) {
	const n, samples = 20, 3
	f()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var got [samples]float64
	for i := range got {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for j := 0; j < n; j++ {
			f()
		}
		runtime.ReadMemStats(&b)
		got[i] = float64(b.Mallocs-a.Mallocs) / n
	}
	lo, hi := min(got[0], got[1], got[2]), max(got[0], got[1], got[2])
	return lo, lo == hi
}

// nnOp is one nn op of a workbench at the workload's shapes: the full
// batch at an interior block, which is what device 2 runs. Teacher-only
// ops time their forward in evaluation mode, as the workbench runs them.
type nnOp struct {
	name  string
	layer nn.Layer // nil for a loss, whose one call returns value and gradient
	x     *tensor.Tensor
	train bool
	loss  func()
}

type opResult struct {
	name                string
	fwdUs, bwdUs, alloc float64
	hasBwd, allocExact  bool
}

// measure times the op's public Forward and Backward; allocs counts one
// training forward plus one backward.
func (op nnOp) measure(rng *rand.Rand) opResult {
	if op.layer == nil {
		r := opResult{name: op.name, fwdUs: timeCalls(nil, op.loss)}
		r.alloc, r.allocExact = allocsPer(op.loss)
		return r
	}
	r := opResult{name: op.name, hasBwd: true}
	r.fwdUs = timeCalls(nil, func() { op.layer.Forward(op.x, op.train) })
	grad := tensor.Rand(rng, -1, 1, op.layer.Forward(op.x, true).Shape()...)
	fwd := func() { op.layer.Forward(op.x, true) }
	bwd := func() { op.layer.Backward(grad) }
	r.bwdUs = timeCalls(fwd, bwd)
	r.alloc, r.allocExact = allocsPer(func() { fwd(); bwd() })
	return r
}

// convOps are the conv workbench's ops: conv3x3-BN-ReLU teacher blocks,
// DW3x3-PW1x1-ReLU student blocks, MSE block loss.
func convOps(seed int64, n, c, h, w int) []nnOp {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.Rand(rng, -1, 1, n, c, h, w)
	pred, target := tensor.Rand(rng, -1, 1, n, c, h, w), tensor.Rand(rng, -1, 1, n, c, h, w)
	return []nnOp{
		{name: "conv3x3", layer: nn.NewConv2d(rng, c, c, 3, 1, 1, false), x: x},
		{name: "dwconv3x3", layer: nn.NewDWConv2d(rng, c, 3, 1, 1, false), x: x, train: true},
		{name: "pwconv1x1", layer: nn.NewConv2d(rng, c, c, 1, 1, 0, true), x: x, train: true},
		{name: "batchnorm", layer: nn.NewBatchNorm2d(c), x: x},
		{name: "relu", layer: nn.NewReLU(), x: x, train: true},
		{name: "mse", loss: func() { nn.MSELoss(pred, target) }},
	}
}

// transformerOps are the transformer workbench's ops: token+position
// embedding, encoder layers (attention, LayerNorm, the student's
// feed-forward), the classifier head and the KL logit loss.
func transformerOps(seed int64, n int, tc distill.TransformerConfig) []nnOp {
	rng := rand.New(rand.NewSource(seed))
	tokens := tensor.New(n, tc.SeqLen)
	for i := range tokens.Data() {
		tokens.Data()[i] = float32(rng.Intn(tc.Vocab))
	}
	h := tensor.Rand(rng, -1, 1, n, tc.SeqLen, tc.Dim)
	pooled := tensor.Rand(rng, -1, 1, n, tc.Dim)
	student, teacher := tensor.Rand(rng, -2, 2, n, tc.Classes), tensor.Rand(rng, -2, 2, n, tc.Classes)
	return []nnOp{
		{name: "embedding", layer: nn.NewEmbedding(rng, tc.Vocab, tc.SeqLen, tc.Dim), x: tokens, train: true},
		{name: "mha", layer: nn.NewMultiHeadAttention(rng, tc.Dim, tc.Heads), x: h, train: true},
		{name: "layernorm", layer: nn.NewLayerNorm(tc.Dim), x: h, train: true},
		{name: "ffn", layer: nn.NewFeedForward(rng, tc.Dim, tc.StudentFF), x: h, train: true},
		{name: "linear", layer: nn.NewLinear(rng, tc.Dim, tc.Classes, true), x: pooled, train: true},
		{name: "kl", loss: func() { nn.KLDivLoss(student, teacher, tc.Temp) }},
	}
}

// components are the microbenchmarks of the session's building blocks.
type components struct {
	ops            []opResult
	buildMs        float64 // cluster.BuildWorkbench at the workload spec
	genMsPerStep   float64 // dataset recipe regeneration, per step
	codecMsPerStep float64 // wire encode+decode of one step's frames
	codecMBPerS    float64
	codecFrames    int
	codecBytes     int64
}

func measureComponents(b *bench, frames []*wire.Frame) (components, error) {
	var c components
	rng := rand.New(rand.NewSource(b.seed))
	for _, op := range b.wl.ops(b.seed) {
		c.ops = append(c.ops, op.measure(rng))
	}
	var buildErr error
	c.buildMs = timeCalls(nil, func() {
		if _, err := cluster.BuildWorkbench(b.wl.spec); err != nil {
			buildErr = err
		}
	}) / 1e3
	if buildErr != nil {
		return c, buildErr
	}
	recipe := b.wl.recipe(b.seed, b.wl.steps*b.wl.batch)
	var genErr error
	c.genMsPerStep = timeCalls(nil, func() {
		if _, err := recipe.Batches(); err != nil {
			genErr = err
		}
	}) / 1e3 / float64(b.wl.steps)
	if genErr != nil {
		return c, genErr
	}
	if len(frames) == 0 {
		return c, fmt.Errorf("no frames captured for the codec benchmark")
	}
	c.codecFrames = len(frames)
	for _, f := range frames {
		c.codecBytes += frameBytes(f)
	}
	var buf bytes.Buffer
	var codecErr error
	c.codecMsPerStep = timeCalls(nil, func() {
		buf.Reset()
		for _, f := range frames {
			if err := wire.WriteFrame(&buf, f); err != nil {
				codecErr = err
			}
		}
		r := bytes.NewReader(buf.Bytes())
		for range frames {
			if _, err := wire.ReadFrame(r); err != nil {
				codecErr = err
			}
		}
	}) / 1e3
	if codecErr != nil {
		return c, fmt.Errorf("wire codec: %w", codecErr)
	}
	c.codecMBPerS = float64(c.codecBytes) / 1e6 / (c.codecMsPerStep / 1e3)
	return c, nil
}
