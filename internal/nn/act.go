package nn

import (
	"fmt"
	"math"

	"pipebd/internal/tensor"
)

// ReLU is max(0, x). Cap < 0 disables the upper clamp; Cap = 6 yields the
// ReLU6 used throughout MobileNet-family models.
type ReLU struct {
	Cap float32 // upper clamp; <= 0 means unbounded

	mask []uint8 // 1 where the gradient passes through; nil after an eval forward
	buf  []uint8 // backing store for mask, reused across training steps
}

// NewReLU returns an unbounded rectifier.
func NewReLU() *ReLU { return &ReLU{Cap: -1} }

// NewReLU6 returns the clamped rectifier min(max(0,x),6).
func NewReLU6() *ReLU { return &ReLU{Cap: 6} }

// Forward clamps the input elementwise. NaN passes through as NaN and -0
// becomes +0; neither passes gradient.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	od = od[:len(xd)]
	// An eval-mode forward invalidates any cached mask: a Backward after
	// it would otherwise gate with state from a stale (possibly
	// differently-shaped) batch.
	var mask []uint8
	if train {
		if cap(r.buf) < len(xd) {
			r.buf = make([]uint8, len(xd))
		}
		mask = r.buf[:len(xd)]
	}
	// Selects on comparison masks rather than the max/min builtins, which
	// clear the sign bit of a NaN.
	hi, capped := r.Cap, r.Cap > 0
	hiBits := math.Float32bits(hi)
	for i, v := range xd {
		o, pass := math.Float32bits(v)&^-b2u(v <= 0), b2u(v > 0)
		if capped {
			over := -b2u(v >= hi)
			o, pass = o&^over|hiBits&over, pass&b2u(v < hi)
		}
		od[i] = math.Float32frombits(o)
		if mask != nil {
			mask[i] = uint8(pass)
		}
	}
	r.mask = mask
	return out
}

// b2u is 1 for true and 0 for false, compiled to a flag store.
func b2u(b bool) uint32 {
	var u uint32
	if b {
		u = 1
	}
	return u
}

// Backward gates the gradient by the forward-pass mask.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil {
		panic("nn: ReLU.Backward called before Forward(train=true)")
	}
	gd := grad.Data()
	if len(r.mask) != len(gd) {
		panic(fmt.Sprintf("nn: ReLU.Backward grad has %d elements but cached mask has %d (stale forward?)", len(gd), len(r.mask)))
	}
	out := tensor.New(grad.Shape()...)
	od, m := out.Data()[:len(gd)], r.mask[:len(gd)]
	for i, g := range gd {
		od[i] = math.Float32frombits(math.Float32bits(g) & -uint32(m[i]))
	}
	return out
}

// Params returns nil; ReLU has no trainable parameters.
func (r *ReLU) Params() []*Param { return nil }

var _ Layer = (*ReLU)(nil)
