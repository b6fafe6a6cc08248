package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pipebd/internal/tensor"
)

// Regression tests for the stale-activation-cache bug: a train-mode
// Forward followed by an eval-mode Forward (teacher inference, metrics, a
// differently shaped probe batch) used to leave the training cache from
// the first batch in place, so a subsequent Backward silently gated with
// the wrong mask — or indexed out of range on a shape change. Every
// caching layer must now invalidate its cache on eval forwards and
// length-check it in Backward.

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok {
			if err, isErr := r.(error); isErr {
				msg = err.Error()
			}
		}
		if !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not contain %q", msg, substr)
		}
	}()
	f()
}

// TestReLUEvalForwardInvalidatesMask is the original bug: train forward,
// eval forward, then backward. The eval forward must clear the mask so
// the backward fails loudly instead of applying batch-1 gating to
// batch-2 gradients.
func TestReLUEvalForwardInvalidatesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewReLU()
	r.Forward(tensor.Rand(rng, -1, 1, 2, 3), true)
	r.Forward(tensor.Rand(rng, -1, 1, 2, 3), false)
	mustPanic(t, "before Forward(train=true)", func() {
		r.Backward(tensor.Rand(rng, -1, 1, 2, 3))
	})
}

// TestReLUShapeMismatchCaught: a train forward on one shape followed by a
// backward for another must be rejected by the length check rather than
// silently gating a prefix (or panicking with a bare index error).
func TestReLUShapeMismatchCaught(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := NewReLU()
	r.Forward(tensor.Rand(rng, -1, 1, 4, 4), true)
	mustPanic(t, "stale forward", func() {
		r.Backward(tensor.Rand(rng, -1, 1, 2, 3))
	})
}

// TestReLUTrainEvalTrainBackward: the legitimate sequence — train, eval,
// train, backward — must keep working, with the backward consuming the
// second train forward's mask.
func TestReLUTrainEvalTrainBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewReLU()
	r.Forward(tensor.Rand(rng, -1, 1, 2, 2), true)
	r.Forward(tensor.Rand(rng, -1, 1, 5, 5), false)
	x := tensor.Rand(rng, -1, 1, 3, 3)
	out := r.Forward(x, true)
	grad := tensor.Rand(rng, -1, 1, 3, 3)
	dx := r.Backward(grad)
	for i, v := range x.Data() {
		want := float32(0)
		if out.Data()[i] > 0 {
			want = grad.Data()[i]
		}
		if dx.Data()[i] != want {
			t.Fatalf("element %d (x=%v): got %v want %v", i, v, dx.Data()[i], want)
		}
	}
}

// reluRef is the original branchy rectifier, kept as the oracle for the
// branch-free one: the clamped forward output and the pass-through mask.
func reluRef(capv float32, xd []float32) (out []float32, pass []bool) {
	out, pass = make([]float32, len(xd)), make([]bool, len(xd))
	for i, v := range xd {
		pass[i] = v > 0 && (capv <= 0 || v < capv)
		switch {
		case v <= 0:
			out[i] = 0
		case capv > 0 && v >= capv:
			out[i] = capv
		default:
			out[i] = v
		}
	}
	return out, pass
}

// checkReLUBits runs a train forward and a backward of r on x and grad
// and compares every output bit, NaN payloads included, with reluRef.
func checkReLUBits(t *testing.T, label string, r *ReLU, x, grad []float32) {
	t.Helper()
	wantOut, pass := reluRef(r.Cap, x)
	out := r.Forward(tensor.FromSlice(x, len(x)), true)
	dx := r.Backward(tensor.FromSlice(grad, len(grad)))
	for i, v := range x {
		if got, want := math.Float32bits(out.Data()[i]), math.Float32bits(wantOut[i]); got != want {
			t.Errorf("%s forward x=%v (%#08x): got %#08x want %#08x", label, v, math.Float32bits(v), got, want)
		}
		want := uint32(0)
		if pass[i] {
			want = math.Float32bits(grad[i])
		}
		if got := math.Float32bits(dx.Data()[i]); got != want {
			t.Errorf("%s backward x=%v grad=%v: got %#08x want %#08x", label, v, grad[i], got, want)
		}
	}
}

// TestReLUMatchesReferenceBits pins the branch-free rectifier to the
// original switch on ±0, NaN, ±Inf, the ReLU6 cap and its neighbours,
// and denormals, for both NewReLU and NewReLU6.
func TestReLUMatchesReferenceBits(t *testing.T) {
	nan := math.Float32frombits(0x7fc00001) // a payload the backward must carry
	x := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.NaN()), -nan,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		6, math.Nextafter32(6, 7), math.Nextafter32(6, 0), -6,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
		math.MaxFloat32, -math.MaxFloat32, 1, -1, 0.5, 5.999, 7,
	}
	grad := make([]float32, len(x))
	for i := range grad {
		grad[i] = float32(i) - 7.5
	}
	grad[1], grad[2], grad[3] = nan, float32(math.Copysign(0, -1)), float32(math.Inf(-1))
	grad[len(grad)-3] = nan // x = 1 passes the NaN through
	for _, c := range []struct {
		name string
		r    *ReLU
	}{{"ReLU", NewReLU()}, {"ReLU6", NewReLU6()}, {"Cap0", &ReLU{Cap: 0}}} {
		checkReLUBits(t, c.name, c.r, x, grad)
	}
}

// TestReLUMaskReuseAcrossBatches drives the reused mask buffer: a train
// forward on a large batch, then on a smaller and a larger one, each
// followed by a bit-exact Backward; then an eval forward must still
// invalidate the mask and a wrong-length grad must still be rejected.
func TestReLUMaskReuseAcrossBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, r := range []*ReLU{NewReLU(), NewReLU6()} {
		for _, n := range []int{64, 9, 80} {
			x := tensor.Rand(rng, -8, 8, n).Data()
			grad := tensor.Rand(rng, -1, 1, n).Data()
			checkReLUBits(t, fmt.Sprintf("cap=%v n=%d", r.Cap, n), r, x, grad)
		}
		r.Forward(tensor.Rand(rng, -1, 1, 2, 3), false)
		mustPanic(t, "before Forward(train=true)", func() {
			r.Backward(tensor.Rand(rng, -1, 1, 2, 3))
		})
		r.Forward(tensor.Rand(rng, -1, 1, 2, 3), true)
		mustPanic(t, "stale forward", func() {
			r.Backward(tensor.Rand(rng, -1, 1, 4, 4))
		})
	}
}

// TestTransformerCachesInvalidatedByEvalForward applies the same guard
// contract to every caching layer the transformer workload introduced.
func TestTransformerCachesInvalidatedByEvalForward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []struct {
		name  string
		layer Layer
		input func() *tensor.Tensor
	}{
		{"GELU", NewGELU(), func() *tensor.Tensor { return tensor.Rand(rng, -1, 1, 2, 3) }},
		{"LayerNorm", NewLayerNorm(4), func() *tensor.Tensor { return tensor.Rand(rng, -1, 1, 2, 4) }},
		{"MHA", NewMultiHeadAttention(rng, 4, 2), func() *tensor.Tensor { return tensor.Rand(rng, -1, 1, 2, 3, 4) }},
		{"MeanPoolSeq", NewMeanPoolSeq(), func() *tensor.Tensor { return tensor.Rand(rng, -1, 1, 2, 3, 4) }},
		{"Embedding", NewEmbedding(rng, 5, 3, 4), func() *tensor.Tensor {
			ids := tensor.New(2, 3)
			for i := range ids.Data() {
				ids.Data()[i] = float32(rng.Intn(5))
			}
			return ids
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := c.input()
			out := c.layer.Forward(x, true)
			c.layer.Forward(c.input(), false)
			mustPanic(t, "before Forward(train=true)", func() {
				c.layer.Backward(tensor.New(out.Shape()...))
			})
			// And after a fresh train forward the backward runs again.
			out = c.layer.Forward(x, true)
			c.layer.Backward(tensor.New(out.Shape()...))
		})
	}
}

// TestTransformerCachesLengthChecked: shape-changing train forwards are
// legal (the cache is replaced), but a backward whose gradient shape
// disagrees with the cache must fail the length check.
func TestTransformerCachesLengthChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewGELU()
	g.Forward(tensor.Rand(rng, -1, 1, 2, 3), true)
	mustPanic(t, "stale forward", func() { g.Backward(tensor.Rand(rng, -1, 1, 4, 4)) })

	ln := NewLayerNorm(4)
	ln.Forward(tensor.Rand(rng, -1, 1, 2, 4), true)
	mustPanic(t, "stale forward", func() { ln.Backward(tensor.Rand(rng, -1, 1, 3, 4)) })

	a := NewMultiHeadAttention(rng, 4, 2)
	a.Forward(tensor.Rand(rng, -1, 1, 2, 3, 4), true)
	mustPanic(t, "stale forward", func() { a.Backward(tensor.Rand(rng, -1, 1, 1, 3, 4)) })

	e := NewEmbedding(rng, 5, 3, 4)
	ids := tensor.New(2, 3)
	e.Forward(ids, true)
	mustPanic(t, "stale forward", func() { e.Backward(tensor.Rand(rng, -1, 1, 1, 3, 4)) })
}
