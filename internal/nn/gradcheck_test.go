package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pipebd/internal/tensor"
)

// lossOf computes a fixed linear functional of the layer output:
// L = Σ w_i · out_i. Its gradient with respect to the output is exactly w,
// giving full coverage of every output element during gradient checks.
func lossOf(l Layer, x, w *tensor.Tensor, train bool) float64 {
	out := l.Forward(x, train)
	var s float64
	od, wd := out.Data(), w.Data()
	for i := range od {
		s += float64(od[i]) * float64(wd[i])
	}
	return s
}

// checkGradients verifies analytic input and parameter gradients of layer l
// against central finite differences at input x.
func checkGradients(t *testing.T, name string, l Layer, x *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	out := l.Forward(x.Clone(), true)
	w := tensor.Rand(rng, -1, 1, out.Shape()...)

	ZeroGrads(l.Params())
	dx := l.Backward(w)

	const eps = 1e-2
	const tol = 2e-2 // float32 arithmetic; relative + absolute mix below

	compare := func(kind string, analytic float64, probe func(delta float32) float64) {
		t.Helper()
		plus := probe(eps)
		minus := probe(-eps)
		numeric := (plus - minus) / (2 * eps)
		diff := math.Abs(analytic - numeric)
		scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
		if diff/scale > tol {
			t.Errorf("%s: %s gradient mismatch: analytic %v numeric %v", name, kind, analytic, numeric)
		}
	}

	// Input gradient: probe a spread of elements to bound test time.
	n := x.Numel()
	stride := n/7 + 1
	for i := 0; i < n; i += stride {
		i := i
		compare("input", float64(dx.Data()[i]), func(delta float32) float64 {
			xp := x.Clone()
			xp.Data()[i] += delta
			return lossOf(l, xp, w, true)
		})
	}

	// Parameter gradients.
	for _, p := range l.Params() {
		np := p.Value.Numel()
		pstride := np/7 + 1
		for i := 0; i < np; i += pstride {
			i, p := i, p
			compare("param "+p.Name, float64(p.Grad.Data()[i]), func(delta float32) float64 {
				old := p.Value.Data()[i]
				p.Value.Data()[i] = old + delta
				loss := lossOf(l, x.Clone(), w, true)
				p.Value.Data()[i] = old
				return loss
			})
		}
	}
}

func TestConv2dGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewConv2d(rng, 3, 4, 3, 1, 1, true)
	checkGradients(t, "Conv2d/s1", l, tensor.Rand(rng, -1, 1, 2, 3, 5, 5))

	l2 := NewConv2d(rng, 2, 3, 3, 2, 1, false)
	checkGradients(t, "Conv2d/s2-nobias", l2, tensor.Rand(rng, -1, 1, 2, 2, 6, 6))

	l3 := NewConv2d(rng, 4, 2, 1, 1, 0, true)
	checkGradients(t, "Conv2d/1x1", l3, tensor.Rand(rng, -1, 1, 1, 4, 4, 4))
}

func TestDWConv2dGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewDWConv2d(rng, 3, 3, 1, 1, true)
	checkGradients(t, "DWConv2d/s1", l, tensor.Rand(rng, -1, 1, 2, 3, 5, 5))

	l2 := NewDWConv2d(rng, 2, 3, 2, 1, false)
	checkGradients(t, "DWConv2d/s2", l2, tensor.Rand(rng, -1, 1, 1, 2, 6, 6))
}

// dwConvForwardRef and dwConvBackwardRef are the original naive
// depthwise loops (minus the backward's old g == 0 skip), kept as the
// oracle the production kernels must match bit for bit: forward sums taps
// in (ki, kj) order per output, backward scatters every output over its
// taps in raster order, into dx and into the accumulated weight grad.
func dwConvForwardRef(x, wt []float32, n, c, h, w, k, s, p int) []float32 {
	oh, ow := tensor.ConvOutSize(h, k, s, p), tensor.ConvOutSize(w, k, s, p)
	out := make([]float32, n*c*oh*ow)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			inBase, outBase, wBase := (ni*c+ci)*h*w, (ni*c+ci)*oh*ow, ci*k*k
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					var v float32
					for ki := 0; ki < k; ki++ {
						ih := oi*s - p + ki
						if ih < 0 || ih >= h {
							continue
						}
						for kj := 0; kj < k; kj++ {
							iw := oj*s - p + kj
							if iw < 0 || iw >= w {
								continue
							}
							v += x[inBase+ih*w+iw] * wt[wBase+ki*k+kj]
						}
					}
					out[outBase+oi*ow+oj] = v
				}
			}
		}
	}
	return out
}

func dwConvBackwardRef(x, wt, g, dw []float32, n, c, h, w, k, s, p int) []float32 {
	oh, ow := tensor.ConvOutSize(h, k, s, p), tensor.ConvOutSize(w, k, s, p)
	dx := make([]float32, len(x))
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			inBase, outBase, wBase := (ni*c+ci)*h*w, (ni*c+ci)*oh*ow, ci*k*k
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					gv := g[outBase+oi*ow+oj]
					for ki := 0; ki < k; ki++ {
						ih := oi*s - p + ki
						if ih < 0 || ih >= h {
							continue
						}
						for kj := 0; kj < k; kj++ {
							iw := oj*s - p + kj
							if iw < 0 || iw >= w {
								continue
							}
							dw[wBase+ki*k+kj] += gv * x[inBase+ih*w+iw]
							dx[inBase+ih*w+iw] += gv * wt[wBase+ki*k+kj]
						}
					}
				}
			}
		}
	}
	return dx
}

// bitsDiff compares raw float bits, so zero signs and infinities count.
// Two NaNs compare equal whatever their payloads: which operand's payload
// survives an add is left to the instruction order, not to the kernels.
func bitsDiff(got, want []float32) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d vs %d", len(got), len(want))
	}
	for i := range got {
		gn, wn := math.IsNaN(float64(got[i])), math.IsNaN(float64(want[i]))
		if gn && wn {
			continue
		}
		if gn != wn || math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Sprintf("element %d: got %v (%#08x), want %v (%#08x)",
				i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	return ""
}

// fillAdversarial fills d with values in [-2, 2), exact zeros at every
// fifth element (ReLU-gated gradients), and — for which > 0 — ±0, NaN or
// ±Inf at positions that depend on salt.
func fillAdversarial(rng *rand.Rand, d []float32, which, salt int) {
	for i := range d {
		d[i] = rng.Float32()*4 - 2
		if i%5 == 4 {
			d[i] = 0
		}
	}
	specials := [][]float32{
		nil,
		{float32(math.Copysign(0, -1)), 0, float32(math.Copysign(0, -1))},
		{float32(math.NaN()), float32(math.Copysign(0, -1))},
		{float32(math.Inf(1)), float32(math.Inf(-1)), 0},
	}
	for i, v := range specials[which] {
		d[(i*7+3+salt)%len(d)] = v
	}
}

// TestDWConv2dMatchesReferenceBits pins the depthwise kernels to the
// naive loops bit for bit: forward, dx, and dWeight/dBias across two
// accumulating Backward calls, over prime batch and channel counts,
// non-square and tiny planes, kernels 1/3/5, strides 1-3, every padding
// 0..k-1, ±0/NaN/±Inf values, and the benchmark's conv-ring and ctrl-hub
// shapes.
func TestDWConv2dMatchesReferenceBits(t *testing.T) {
	type dims struct{ n, c, h, w int }
	type cfg struct {
		dims
		k, s, p int
	}
	var cases []cfg
	for _, d := range []dims{{3, 5, 1, 1}, {2, 3, 2, 3}, {3, 2, 5, 7}, {1, 7, 8, 6}, {2, 2, 11, 4}} {
		for _, k := range []int{1, 3, 5} {
			for s := 1; s <= 3; s++ {
				for p := 0; p < k; p++ {
					if d.h+2*p >= k && d.w+2*p >= k {
						cases = append(cases, cfg{d, k, s, p})
					}
				}
			}
		}
	}
	cases = append(cases,
		cfg{dims{16, 32, 16, 16}, 3, 1, 1}, // conv-ring
		cfg{dims{4, 6, 4, 4}, 3, 1, 1},     // ctrl-hub
	)
	rng := rand.New(rand.NewSource(41))
	for ci, c := range cases {
		for which := 0; which < 4; which++ {
			label := fmt.Sprintf("n=%d c=%d %dx%d k=%d s=%d p=%d specials=%d",
				c.n, c.c, c.h, c.w, c.k, c.s, c.p, which)
			l := NewDWConv2d(rng, c.c, c.k, c.s, c.p, ci%2 == 0)
			x := tensor.New(c.n, c.c, c.h, c.w)
			fillAdversarial(rng, x.Data(), which, 0)
			fillAdversarial(rng, l.Weight.Value.Data(), (which+1)%4, 1)
			wt := l.Weight.Value.Data()
			if l.Bias != nil {
				fillAdversarial(rng, l.Bias.Value.Data(), 0, 0)
			}

			out := l.Forward(x, true)
			want := dwConvForwardRef(x.Data(), wt, c.n, c.c, c.h, c.w, c.k, c.s, c.p)
			if l.Bias != nil {
				addChannelBias(tensor.FromSlice(want, out.Shape()...), l.Bias.Value)
			}
			if diff := bitsDiff(out.Data(), want); diff != "" {
				t.Fatalf("forward (%s): %s", label, diff)
			}

			ZeroGrads(l.Params())
			wantDW := make([]float32, len(wt))
			var wantDB *tensor.Tensor
			if l.Bias != nil {
				wantDB = tensor.New(c.c)
			}
			for call := 0; call < 2; call++ {
				g := tensor.New(out.Shape()...)
				fillAdversarial(rng, g.Data(), (which+2+call)%4, call)
				dx := l.Backward(g)
				wantDX := dwConvBackwardRef(x.Data(), wt, g.Data(), wantDW, c.n, c.c, c.h, c.w, c.k, c.s, c.p)
				if diff := bitsDiff(dx.Data(), wantDX); diff != "" {
					t.Fatalf("dx call %d (%s): %s", call, label, diff)
				}
				if diff := bitsDiff(l.Weight.Grad.Data(), wantDW); diff != "" {
					t.Fatalf("dW call %d (%s): %s", call, label, diff)
				}
				if l.Bias != nil {
					accumulateChannelBiasGrad(wantDB, g)
					if diff := bitsDiff(l.Bias.Grad.Data(), wantDB.Data()); diff != "" {
						t.Fatalf("dBias call %d (%s): %s", call, label, diff)
					}
				}
			}
		}
	}
}

// TestDWConv2dBackwardPropagatesNaN: a NaN input under an exactly-zero
// gradient must still reach the weight gradient (0·NaN = NaN), and an
// infinite weight must reach dx, matching the reference GEMMs; an old
// g == 0 skip dropped both.
func TestDWConv2dBackwardPropagatesNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	l := NewDWConv2d(rng, 2, 3, 1, 1, false)
	x := tensor.Rand(rng, -1, 1, 1, 2, 3, 3)
	x.Data()[9+4] = float32(math.NaN()) // channel 1, centre
	l.Weight.Value.Data()[4] = float32(math.Inf(1))
	l.Forward(x, true)
	ZeroGrads(l.Params())
	dx := l.Backward(tensor.New(1, 2, 3, 3)) // every g is exactly 0
	dw := l.Weight.Grad.Data()
	for i, v := range dw {
		if nan := math.IsNaN(float64(v)); nan != (i >= 9) {
			t.Errorf("dW[%d] = %v: NaN only in channel 1 expected", i, v)
		}
	}
	for i, v := range dx.Data() {
		if nan := math.IsNaN(float64(v)); nan != (i < 9) {
			t.Errorf("dx[%d] = %v: NaN only in channel 0 expected", i, v)
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear(rng, 6, 4, true)
	checkGradients(t, "Linear", l, tensor.Rand(rng, -1, 1, 3, 6))
}

func TestBatchNorm2dGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewBatchNorm2d(3)
	// Non-trivial gamma/beta so their gradients are exercised.
	l.Gamma.Value.CopyFrom(tensor.Rand(rng, 0.5, 1.5, 3))
	l.Beta.Value.CopyFrom(tensor.Rand(rng, -0.5, 0.5, 3))
	checkGradients(t, "BatchNorm2d", l, tensor.Rand(rng, -2, 2, 4, 3, 3, 3))
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Keep values away from the kinks at 0 and 6 so finite differences
	// are well-defined.
	x := tensor.Rand(rng, 0.5, 5.5, 2, 3, 4, 4)
	for i, v := range x.Data() {
		if i%2 == 0 {
			x.Data()[i] = -v // clearly negative
		}
	}
	checkGradients(t, "ReLU", NewReLU(), x)
	checkGradients(t, "ReLU6", NewReLU6(), x)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Distinct values avoid argmax ties that break finite differences.
	x := tensor.New(1, 2, 4, 4)
	perm := rng.Perm(x.Numel())
	for i, p := range perm {
		x.Data()[i] = float32(p)
	}
	checkGradients(t, "MaxPool2d", NewMaxPool2d(2), x)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkGradients(t, "GlobalAvgPool2d", NewGlobalAvgPool2d(), tensor.Rand(rng, -1, 1, 2, 3, 4, 4))
}

func TestFlattenGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	checkGradients(t, "Flatten", NewFlatten(), tensor.Rand(rng, -1, 1, 2, 3, 2, 2))
}

func TestResidualGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	body := NewSequential(
		NewConv2d(rng, 3, 3, 3, 1, 1, false),
		NewReLU(),
		NewConv2d(rng, 3, 3, 3, 1, 1, false),
	)
	checkGradients(t, "Residual", NewResidual(body), tensor.Rand(rng, -1, 1, 2, 3, 4, 4))
}

func TestGELUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checkGradients(t, "GELU", NewGELU(), tensor.Rand(rng, -2, 2, 2, 3, 4))
	// Non-square and degenerate shapes.
	checkGradients(t, "GELU/1elem", NewGELU(), tensor.Rand(rng, -2, 2, 1, 1))
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewLayerNorm(6)
	l.Gain.Value.CopyFrom(tensor.Rand(rng, 0.5, 1.5, 6))
	l.Bias.Value.CopyFrom(tensor.Rand(rng, -0.5, 0.5, 6))
	checkGradients(t, "LayerNorm", l, tensor.Rand(rng, -2, 2, 2, 3, 6))

	// Seq-len-1 rows: statistics over a single token per sample.
	l1 := NewLayerNorm(5)
	l1.Gain.Value.CopyFrom(tensor.Rand(rng, 0.5, 1.5, 5))
	checkGradients(t, "LayerNorm/L1", l1, tensor.Rand(rng, -2, 2, 2, 1, 5))
}

func TestMultiHeadAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Non-square: L=5 ≠ D=8, two heads.
	l := NewMultiHeadAttention(rng, 8, 2)
	checkGradients(t, "MHA/L5D8H2", l, tensor.Rand(rng, -1, 1, 2, 5, 8))

	// Seq-len-1: softmax over a single position (probability exactly 1).
	l1 := NewMultiHeadAttention(rng, 6, 3)
	checkGradients(t, "MHA/L1", l1, tensor.Rand(rng, -1, 1, 2, 1, 6))

	// Single head.
	lh := NewMultiHeadAttention(rng, 4, 1)
	checkGradients(t, "MHA/H1", lh, tensor.Rand(rng, -1, 1, 1, 3, 4))
}

func TestFeedForwardGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	checkGradients(t, "FeedForward", NewFeedForward(rng, 6, 10), tensor.Rand(rng, -1, 1, 2, 3, 6))
	checkGradients(t, "FeedForward/L1", NewFeedForward(rng, 4, 4), tensor.Rand(rng, -1, 1, 2, 1, 4))
}

func TestMeanPoolSeqGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	checkGradients(t, "MeanPoolSeq", NewMeanPoolSeq(), tensor.Rand(rng, -1, 1, 2, 4, 3))
	checkGradients(t, "MeanPoolSeq/L1", NewMeanPoolSeq(), tensor.Rand(rng, -1, 1, 2, 1, 3))
}

// TestEmbeddingGradients checks the scatter-add parameter gradients by
// finite differences; the input (integer token ids) is not
// differentiable, so only the tables are probed.
func TestEmbeddingGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const vocab, seqLen, dim = 7, 3, 4
	e := NewEmbedding(rng, vocab, seqLen, dim)
	ids := tensor.New(2, seqLen)
	for i := range ids.Data() {
		ids.Data()[i] = float32(rng.Intn(vocab))
	}
	w := tensor.Rand(rng, -1, 1, 2, seqLen, dim)
	ZeroGrads(e.Params())
	e.Forward(ids, true)
	e.Backward(w)

	const eps = 1e-2
	const tol = 2e-2
	for _, p := range e.Params() {
		for i := 0; i < p.Value.Numel(); i++ {
			probe := func(delta float32) float64 {
				old := p.Value.Data()[i]
				p.Value.Data()[i] = old + delta
				loss := lossOf(e, ids, w, true)
				p.Value.Data()[i] = old
				return loss
			}
			numeric := (probe(eps) - probe(-eps)) / (2 * eps)
			analytic := float64(p.Grad.Data()[i])
			diff := math.Abs(analytic - numeric)
			scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
			if diff/scale > tol {
				t.Errorf("Embedding %s[%d]: analytic %v numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

// TestSoftmaxBackwardGradients drives the max-subtracted softmax backward
// against finite differences of Σ w ⊙ softmax(x), including a width-1
// row (gradient exactly zero: the output is constant 1).
func TestSoftmaxBackwardGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, shape := range [][]int{{3, 5}, {2, 3, 4}, {2, 1}} {
		x := tensor.Rand(rng, -2, 2, shape...)
		w := tensor.Rand(rng, -1, 1, shape...)
		probs := SoftmaxLastDim(x)
		dx := SoftmaxBackwardLastDim(probs, w)
		const eps = 1e-2
		const tol = 2e-2
		for i := 0; i < x.Numel(); i++ {
			probe := func(delta float32) float64 {
				xp := x.Clone()
				xp.Data()[i] += delta
				out := SoftmaxLastDim(xp)
				var s float64
				for j, v := range out.Data() {
					s += float64(v) * float64(w.Data()[j])
				}
				return s
			}
			numeric := (probe(eps) - probe(-eps)) / (2 * eps)
			analytic := float64(dx.Data()[i])
			diff := math.Abs(analytic - numeric)
			scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
			if diff/scale > tol {
				t.Errorf("SoftmaxBackward %v[%d]: analytic %v numeric %v", shape, i, analytic, numeric)
			}
		}
	}
}

// TestKLDivLossGradients checks the temperature-scaled distillation loss
// gradient with respect to the student logits by finite differences, at
// several temperatures and on a single-class edge shape (loss exactly 0).
func TestKLDivLossGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, temp := range []float64{1, 2, 4} {
		for _, shape := range [][]int{{3, 5}, {2, 1}} {
			student := tensor.Rand(rng, -2, 2, shape...)
			teacher := tensor.Rand(rng, -2, 2, shape...)
			_, grad := KLDivLoss(student, teacher, temp)
			const eps = 1e-2
			const tol = 2e-2
			for i := 0; i < student.Numel(); i++ {
				probe := func(delta float32) float64 {
					sp := student.Clone()
					sp.Data()[i] += delta
					loss, _ := KLDivLoss(sp, teacher, temp)
					return loss
				}
				numeric := (probe(eps) - probe(-eps)) / (2 * eps)
				analytic := float64(grad.Data()[i])
				diff := math.Abs(analytic - numeric)
				scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
				if diff/scale > tol {
					t.Errorf("KLDivLoss T=%v %v[%d]: analytic %v numeric %v", temp, shape, i, analytic, numeric)
				}
			}
		}
	}
}

// TestTransformerBlockGradients runs the full encoder-layer composition —
// attention and MLP residuals, both layer norms — through the gradient
// checker, the same structure the transformer workbench blocks use.
func TestTransformerBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const dim = 6
	block := NewSequential(
		NewResidual(NewMultiHeadAttention(rng, dim, 2)),
		NewLayerNorm(dim),
		NewResidual(NewFeedForward(rng, dim, 8)),
		NewLayerNorm(dim),
	)
	checkGradients(t, "TransformerBlock", block, tensor.Rand(rng, -1, 1, 2, 3, dim))
}

func TestSequentialCNNGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewSequential(
		NewConv2d(rng, 2, 4, 3, 1, 1, false),
		NewBatchNorm2d(4),
		NewReLU6(),
		NewMaxPool2d(2),
		NewFlatten(),
		NewLinear(rng, 4*3*3, 5, true),
	)
	// Avoid BN kinks by using a reasonably spread input.
	checkGradients(t, "SequentialCNN", net, tensor.Rand(rng, -2, 2, 3, 2, 6, 6))
}
