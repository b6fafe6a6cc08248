package nn

import (
	"fmt"
	"math/rand"

	"pipebd/internal/tensor"
)

// Conv2d is a standard 2-D convolution with square kernels, symmetric
// zero-padding, and optional bias, implemented via the backend's fused
// im2col GEMMs: kernel taps are packed straight from the input into the
// GEMM's panel layout, so no column matrix is ever materialized.
type Conv2d struct {
	InC, OutC, Kernel, Stride, Pad int
	Weight                         *Param // [OutC, InC, K, K]
	Bias                           *Param // [OutC], nil when disabled

	be      tensor.Backend // nil: process default
	scratch *tensor.Arena  // recycles GEMM temporaries across steps

	// Backward cache. The fused conv GEMMs (ConvForwardInto /
	// ConvGradWeightInto) gather kernel taps straight from the input, so
	// the layer no longer materializes an im2col column matrix at all —
	// backward only needs the input tensor itself, which is retained by
	// reference like Linear does.
	lastInput          *tensor.Tensor
	ready              bool // Forward(train=true) ran since last Backward reset
	inN, inH, inW      int
	lastOutH, lastOutW int
}

// NewConv2d constructs a Conv2d with Kaiming-normal weight initialization.
// bias selects whether an additive per-channel bias is trained.
func NewConv2d(rng *rand.Rand, inC, outC, kernel, stride, pad int, bias bool) *Conv2d {
	fanIn := inC * kernel * kernel
	c := &Conv2d{
		InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad,
		Weight: NewParam("conv.weight", tensor.KaimingNormal(rng, fanIn, outC, inC, kernel, kernel)),
	}
	if bias {
		c.Bias = NewParam("conv.bias", tensor.New(outC))
	}
	return c
}

// SetBackend routes the layer's im2col and GEMMs through be (nil
// restores the process default).
func (c *Conv2d) SetBackend(be tensor.Backend) { c.be = be }

func (c *Conv2d) arena() *tensor.Arena {
	if c.scratch == nil {
		c.scratch = tensor.NewArena()
	}
	return c.scratch
}

// Forward computes the convolution of an NCHW input.
func (c *Conv2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 4 || shape[1] != c.InC {
		panic(fmt.Sprintf("nn: Conv2d expects [N,%d,H,W], got %v", c.InC, shape))
	}
	n, h, w := shape[0], shape[2], shape[3]
	oh := tensor.ConvOutSize(h, c.Kernel, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(w, c.Kernel, c.Stride, c.Pad)

	be := backendOr(c.be)
	ar := c.arena()
	wm := c.Weight.Value.Reshape(c.OutC, c.InC*c.Kernel*c.Kernel)
	flat := ar.Get(c.OutC, n*oh*ow)
	be.ConvForwardInto(flat, wm, x, c.Kernel, c.Kernel, c.Stride, c.Pad) // [OutC, N*OH*OW]

	out := flatToNCHW(flat, n, c.OutC, oh, ow)
	ar.Release(flat) // copied into out; safe to recycle immediately
	if c.Bias != nil {
		addChannelBias(out, c.Bias.Value)
	}
	if train {
		c.lastInput = x
		c.ready = true
		c.inN, c.inH, c.inW = n, h, w
		c.lastOutH, c.lastOutW = oh, ow
	}
	// Evaluation forwards leave the backward cache untouched:
	// Forward(train) → Forward(eval) → Backward still differentiates the
	// training batch.
	return out
}

// Backward propagates grad (NCHW) and accumulates dWeight/dBias.
func (c *Conv2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !c.ready {
		panic("nn: Conv2d.Backward called before Forward(train=true)")
	}
	be := backendOr(c.be)
	ar := c.arena()
	kk := c.InC * c.Kernel * c.Kernel
	spatial := c.inN * c.lastOutH * c.lastOutW

	dFlat := ar.Get(c.OutC, spatial) // [OutC, N*OH*OW]
	nchwToFlatInto(dFlat, grad, c.OutC)

	// dW = dFlat · im2col(x)ᵀ, gathered straight from the cached input
	// and folded back to [OutC, InC, K, K].
	dW := ar.Get(c.OutC, kk)
	be.ConvGradWeightInto(dW, dFlat, c.lastInput, c.Kernel, c.Kernel, c.Stride, c.Pad)
	be.Axpy(c.Weight.Grad, 1, dW.Reshape(c.Weight.Value.Shape()...))

	if c.Bias != nil {
		accumulateChannelBiasGrad(c.Bias.Grad, grad)
	}

	// dx = Col2Im(Wᵀ · dFlat).
	wm := c.Weight.Value.Reshape(c.OutC, kk)
	dCols := ar.Get(kk, spatial)
	be.MatMulTAInto(dCols, wm, dFlat)
	dx := tensor.New(c.inN, c.InC, c.inH, c.inW)
	be.Col2ImInto(dx, dCols, c.Kernel, c.Kernel, c.Stride, c.Pad)
	ar.Release(dFlat, dW, dCols)
	return dx
}

// Params returns weight (and bias when present).
func (c *Conv2d) Params() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

// DWConv2d is a depthwise 2-D convolution (channel multiplier 1): each
// input channel is convolved with its own K×K filter.
type DWConv2d struct {
	C, Kernel, Stride, Pad int
	Weight                 *Param // [C, 1, K, K]
	Bias                   *Param // [C], nil when disabled

	lastInput *tensor.Tensor
}

// NewDWConv2d constructs a depthwise convolution with Kaiming init.
func NewDWConv2d(rng *rand.Rand, c, kernel, stride, pad int, bias bool) *DWConv2d {
	l := &DWConv2d{
		C: c, Kernel: kernel, Stride: stride, Pad: pad,
		Weight: NewParam("dwconv.weight", tensor.KaimingNormal(rng, kernel*kernel, c, 1, kernel, kernel)),
	}
	if bias {
		l.Bias = NewParam("dwconv.bias", tensor.New(c))
	}
	return l
}

// Forward computes the depthwise convolution of an NCHW input.
func (d *DWConv2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 4 || shape[1] != d.C {
		panic(fmt.Sprintf("nn: DWConv2d expects [N,%d,H,W], got %v", d.C, shape))
	}
	n, h, w := shape[0], shape[2], shape[3]
	oh := tensor.ConvOutSize(h, d.Kernel, d.Stride, d.Pad)
	ow := tensor.ConvOutSize(w, d.Kernel, d.Stride, d.Pad)
	out := tensor.New(n, d.C, oh, ow)
	xd, od, wd := x.Data(), out.Data(), d.Weight.Value.Data()
	g := dwGeom{h, w, oh, ow, d.Kernel, d.Stride, d.Pad}
	kk := d.Kernel * d.Kernel
	for p := 0; p < n*d.C; p++ {
		ci := p % d.C
		dwPlane(od[p*oh*ow:(p+1)*oh*ow], xd[p*h*w:(p+1)*h*w], wd[ci*kk:(ci+1)*kk], &g)
	}
	if d.Bias != nil {
		addChannelBias(out, d.Bias.Value)
	}
	if train {
		d.lastInput = x
	}
	return out
}

// Backward propagates grad and accumulates parameter gradients.
//
// Every element keeps the accumulation order of a scatter over outputs in
// raster order: each weight tap sums g·x over (n, oi, oj) ascending, and
// each dx element sums g·w over its (oi, oj) ascending, which for stride 1
// is the forward kernel run over grad with the taps reversed.
func (d *DWConv2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.lastInput == nil {
		panic("nn: DWConv2d.Backward called before Forward(train=true)")
	}
	x := d.lastInput
	n, h, w := x.Shape()[0], x.Shape()[2], x.Shape()[3]
	oh, ow := grad.Shape()[2], grad.Shape()[3]
	dx := tensor.New(n, d.C, h, w)
	xd, gd := x.Data(), grad.Data()
	dxd, dwd := dx.Data(), d.Weight.Grad.Data()
	wd := d.Weight.Value.Data()
	k, s := d.Kernel, d.Stride
	kk := k * k
	fwd := dwGeom{h, w, oh, ow, k, s, d.Pad}
	bwd := dwGeom{oh, ow, h, w, k, 1, k - 1 - d.Pad} // dx as a stride-1 pass over grad
	flipped := make([]float32, len(wd))
	for i := range flipped {
		flipped[i] = wd[i-i%kk+kk-1-i%kk]
	}
	for p := 0; p < n*d.C; p++ {
		ci := p % d.C
		xp, gp, dxp := xd[p*h*w:(p+1)*h*w], gd[p*oh*ow:(p+1)*oh*ow], dxd[p*h*w:(p+1)*h*w]
		dwGradWeightPlane(dwd[ci*kk:(ci+1)*kk], gp, xp, &fwd)
		if s == 1 {
			dwPlane(dxp, gp, flipped[ci*kk:(ci+1)*kk], &bwd)
		} else {
			dwGradInputStrided(dxp, gp, wd[ci*kk:(ci+1)*kk], &fwd)
		}
	}
	if d.Bias != nil {
		accumulateChannelBiasGrad(d.Bias.Grad, grad)
	}
	return dx
}

// dwGeom is the shape of one depthwise plane pass: an h×w input, an oh×ow
// output and a k×k kernel at stride s and padding p.
type dwGeom struct{ h, w, oh, ow, k, s, p int }

// cols returns the output columns [lo, hi) whose kernel column kj lands
// inside the input.
func (g *dwGeom) cols(kj int) (lo, hi int) {
	for lo < g.ow && lo*g.s-g.p+kj < 0 {
		lo++
	}
	hi = g.ow
	for hi > lo && (hi-1)*g.s-g.p+kj >= g.w {
		hi--
	}
	return lo, hi
}

// rows returns the in-range kernel rows [lo, hi) of output row oi.
func (g *dwGeom) rows(oi int) (lo, hi int) {
	ih := oi*g.s - g.p
	return max(0, -ih), min(g.k, g.h-ih)
}

// interior3 reports whether output row oi of a 3×3 kernel has all three
// kernel rows in range, so dwRow3 and dwGradWeightRow3 can take it.
func (g *dwGeom) interior3(oi int) bool {
	ih := oi*g.s - g.p
	return g.k == 3 && ih >= 0 && ih+3 <= g.h
}

// dwPlane writes one plane of a depthwise convolution into the zeroed out:
// each output sums x·w over its in-range taps from +0 in (ki, kj)
// ascending order.
func dwPlane(out, x, wt []float32, g *dwGeom) {
	for oi := 0; oi < g.oh; oi++ {
		row := out[oi*g.ow : (oi+1)*g.ow]
		if g.interior3(oi) {
			dwRow3(row, x[(oi*g.s-g.p)*g.w:], wt, g.w, g.s, g.p)
		} else {
			dwRowClipped(row, x, wt, g, oi)
		}
	}
}

// dwRowClipped accumulates output row oi tap by tap, each over the
// output columns it reaches, in (ki, kj) ascending order; row must be zero.
func dwRowClipped(row, x, wt []float32, g *dwGeom, oi int) {
	ka, kb := g.rows(oi)
	for ki := ka; ki < kb; ki++ {
		xr := x[(oi*g.s-g.p+ki)*g.w:][:g.w]
		for kj := 0; kj < g.k; kj++ {
			wv := wt[ki*g.k+kj]
			lo, hi := g.cols(kj)
			for oj := lo; oj < hi; oj++ {
				row[oj] += xr[oj*g.s-g.p+kj] * wv
			}
		}
	}
}

// dwRow3 writes an output row of a 3×3 plane whose three input rows, w
// apart from top, are all in range. Interior columns run the nine taps
// straight through with the weights in registers; border columns skip
// the taps that fall outside the row.
func dwRow3(dst, top, wt []float32, w, s, p int) {
	wt = wt[:9]
	w00, w01, w02 := wt[0], wt[1], wt[2]
	w10, w11, w12 := wt[3], wt[4], wt[5]
	w20, w21, w22 := wt[6], wt[7], wt[8]
	r0, r1, r2 := top[:w], top[w:2*w], top[2*w:3*w]
	for j := range dst {
		c := j*s - p
		var v float32
		if c >= 0 && c+3 <= w {
			a, b, e := r0[c:c+3:c+3], r1[c:c+3:c+3], r2[c:c+3:c+3]
			v += a[0] * w00
			v += a[1] * w01
			v += a[2] * w02
			v += b[0] * w10
			v += b[1] * w11
			v += b[2] * w12
			v += e[0] * w20
			v += e[1] * w21
			v += e[2] * w22
			dst[j] = v
			continue
		}
		in0, in1, in2 := c >= 0 && c < w, c+1 >= 0 && c+1 < w, c+2 >= 0 && c+2 < w
		for ki, r := range [3][]float32{r0, r1, r2} {
			if in0 {
				v += r[c] * wt[3*ki]
			}
			if in1 {
				v += r[c+1] * wt[3*ki+1]
			}
			if in2 {
				v += r[c+2] * wt[3*ki+2]
			}
		}
		dst[j] = v
	}
}

// dwGradWeightPlane adds one plane's contribution to its channel's k×k
// weight gradient: each tap's running sum takes g·x over its in-range
// outputs in raster order.
func dwGradWeightPlane(dw, gp, x []float32, g *dwGeom) {
	for oi := 0; oi < g.oh; oi++ {
		row := gp[oi*g.ow : (oi+1)*g.ow]
		if g.interior3(oi) {
			dwGradWeightRow3(dw, row, x[(oi*g.s-g.p)*g.w:], g.w, g.s, g.p)
		} else {
			dwGradWeightRowClipped(dw, row, x, g, oi)
		}
	}
}

// dwGradWeightRowClipped adds output row oi to each in-range tap's sum.
func dwGradWeightRowClipped(dw, gr, x []float32, g *dwGeom, oi int) {
	ka, kb := g.rows(oi)
	for ki := ka; ki < kb; ki++ {
		xr := x[(oi*g.s-g.p+ki)*g.w:][:g.w]
		for kj := 0; kj < g.k; kj++ {
			acc := dw[ki*g.k+kj]
			lo, hi := g.cols(kj)
			for oj := lo; oj < hi; oj++ {
				acc += gr[oj] * xr[oj*g.s-g.p+kj]
			}
			dw[ki*g.k+kj] = acc
		}
	}
}

// dwGradWeightRow3 adds an output row of a 3×3 plane, laid out as in
// dwRow3, to the nine tap sums, which it keeps in registers.
func dwGradWeightRow3(dw, gr, top []float32, w, s, p int) {
	dw = dw[:9]
	a0, a1, a2, a3, a4, a5, a6, a7, a8 := dw[0], dw[1], dw[2], dw[3], dw[4], dw[5], dw[6], dw[7], dw[8]
	r0, r1, r2 := top[:w], top[w:2*w], top[2*w:3*w]
	for j, gv := range gr {
		c := j*s - p
		if c >= 0 && c+3 <= w {
			a, b, e := r0[c:c+3:c+3], r1[c:c+3:c+3], r2[c:c+3:c+3]
			a0 += gv * a[0]
			a1 += gv * a[1]
			a2 += gv * a[2]
			a3 += gv * b[0]
			a4 += gv * b[1]
			a5 += gv * b[2]
			a6 += gv * e[0]
			a7 += gv * e[1]
			a8 += gv * e[2]
			continue
		}
		if c >= 0 && c < w {
			a0 += gv * r0[c]
			a3 += gv * r1[c]
			a6 += gv * r2[c]
		}
		if c+1 >= 0 && c+1 < w {
			a1 += gv * r0[c+1]
			a4 += gv * r1[c+1]
			a7 += gv * r2[c+1]
		}
		if c+2 >= 0 && c+2 < w {
			a2 += gv * r0[c+2]
			a5 += gv * r1[c+2]
			a8 += gv * r2[c+2]
		}
	}
	dw[0], dw[1], dw[2], dw[3], dw[4], dw[5], dw[6], dw[7], dw[8] = a0, a1, a2, a3, a4, a5, a6, a7, a8
}

// dwGradInputStrided gathers one plane's dx for stride > 1 (g is the
// forward geometry): each element sums grad·w over the outputs its taps
// reach, in (oi, oj) ascending order.
func dwGradInputStrided(dx, gp, wt []float32, g *dwGeom) {
	k, s, p := g.k, g.s, g.p
	for ih := 0; ih < g.h; ih++ {
		for iw := 0; iw < g.w; iw++ {
			var v float32
			for ki := k - 1; ki >= 0; ki-- {
				t := ih + p - ki
				if t < 0 || t%s != 0 || t/s >= g.oh {
					continue
				}
				for kj := k - 1; kj >= 0; kj-- {
					u := iw + p - kj
					if u < 0 || u%s != 0 || u/s >= g.ow {
						continue
					}
					v += gp[t/s*g.ow+u/s] * wt[ki*k+kj]
				}
			}
			dx[ih*g.w+iw] = v
		}
	}
}

// Params returns weight (and bias when present).
func (d *DWConv2d) Params() []*Param {
	if d.Bias != nil {
		return []*Param{d.Weight, d.Bias}
	}
	return []*Param{d.Weight}
}

// flatToNCHW rearranges [C, N*OH*OW] (im2col result layout) to NCHW.
func flatToNCHW(flat *tensor.Tensor, n, c, oh, ow int) *tensor.Tensor {
	out := tensor.New(n, c, oh, ow)
	fd, od := flat.Data(), out.Data()
	spatial := oh * ow
	for ci := 0; ci < c; ci++ {
		rowBase := ci * n * spatial
		for ni := 0; ni < n; ni++ {
			copy(od[(ni*c+ci)*spatial:(ni*c+ci+1)*spatial], fd[rowBase+ni*spatial:rowBase+(ni+1)*spatial])
		}
	}
	return out
}

// nchwToFlat rearranges NCHW to [C, N*OH*OW].
func nchwToFlat(x *tensor.Tensor, c int) *tensor.Tensor {
	n, oh, ow := x.Shape()[0], x.Shape()[2], x.Shape()[3]
	out := tensor.New(c, n*oh*ow)
	nchwToFlatInto(out, x, c)
	return out
}

// nchwToFlatInto rearranges NCHW into a preallocated [C, N*OH*OW] tensor,
// overwriting every element.
func nchwToFlatInto(out, x *tensor.Tensor, c int) {
	n, oh, ow := x.Shape()[0], x.Shape()[2], x.Shape()[3]
	spatial := oh * ow
	xd, od := x.Data(), out.Data()
	for ci := 0; ci < c; ci++ {
		rowBase := ci * n * spatial
		for ni := 0; ni < n; ni++ {
			copy(od[rowBase+ni*spatial:rowBase+(ni+1)*spatial], xd[(ni*c+ci)*spatial:(ni*c+ci+1)*spatial])
		}
	}
}

func addChannelBias(x *tensor.Tensor, bias *tensor.Tensor) {
	n, c := x.Shape()[0], x.Shape()[1]
	spatial := x.Shape()[2] * x.Shape()[3]
	xd, bd := x.Data(), bias.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			b := bd[ci]
			base := (ni*c + ci) * spatial
			for i := 0; i < spatial; i++ {
				xd[base+i] += b
			}
		}
	}
}

func accumulateChannelBiasGrad(dst *tensor.Tensor, grad *tensor.Tensor) {
	n, c := grad.Shape()[0], grad.Shape()[1]
	spatial := grad.Shape()[2] * grad.Shape()[3]
	gd, dd := grad.Data(), dst.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * spatial
			var s float32
			for i := 0; i < spatial; i++ {
				s += gd[base+i]
			}
			dd[ci] += s
		}
	}
}

var (
	_ Layer       = (*Conv2d)(nil)
	_ Layer       = (*DWConv2d)(nil)
	_ BackendUser = (*Conv2d)(nil)
)
