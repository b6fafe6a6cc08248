package main

import (
	"sync"
	"sync/atomic"
	"time"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/tensor"
)

// kernel classes of the tensor.Backend calls.
const (
	kGemm      = iota // MatMul, MatMulTA, MatMulTB
	kGemmBatch        // the batched GEMMs
	kConv             // fused conv GEMMs, im2col and col2im
	kElt              // Add, Sub, Mul, Scale, Axpy
	numKernels
)

var kernelNames = [numKernels]string{"gemm", "gemm_batch", "conv", "eltwise"}

// timedBackend wraps a tensor.Backend and accumulates, per kernel class,
// the calls, the time spent in them and the flops their shapes imply.
// Devices call it concurrently.
type timedBackend struct {
	inner tensor.Backend
	calls [numKernels]atomic.Int64
	ns    [numKernels]atomic.Int64
	flops [numKernels]atomic.Int64
}

func (t *timedBackend) Name() string { return t.inner.Name() }

func (t *timedBackend) record(k int, start time.Time, flops int) {
	t.ns[k].Add(int64(time.Since(start)))
	t.calls[k].Add(1)
	t.flops[k].Add(int64(flops))
}

// gemmFlops is 2·m·n·k for an output of m·n elements.
func gemmFlops(out *tensor.Tensor, k int) int { return 2 * out.Numel() * k }

func (t *timedBackend) MatMulInto(out, a, b *tensor.Tensor) {
	s := time.Now()
	t.inner.MatMulInto(out, a, b)
	t.record(kGemm, s, gemmFlops(out, a.Dim(1)))
}

func (t *timedBackend) MatMulTAInto(out, a, b *tensor.Tensor) {
	s := time.Now()
	t.inner.MatMulTAInto(out, a, b)
	t.record(kGemm, s, gemmFlops(out, a.Dim(0)))
}

func (t *timedBackend) MatMulTBInto(out, a, b *tensor.Tensor) {
	s := time.Now()
	t.inner.MatMulTBInto(out, a, b)
	t.record(kGemm, s, gemmFlops(out, a.Dim(1)))
}

func (t *timedBackend) MatMulBatchInto(out, a, b *tensor.Tensor) {
	s := time.Now()
	t.inner.MatMulBatchInto(out, a, b)
	t.record(kGemmBatch, s, gemmFlops(out, a.Dim(2)))
}

func (t *timedBackend) MatMulTABatchInto(out, a, b *tensor.Tensor) {
	s := time.Now()
	t.inner.MatMulTABatchInto(out, a, b)
	t.record(kGemmBatch, s, gemmFlops(out, a.Dim(1)))
}

func (t *timedBackend) MatMulTBBatchInto(out, a, b *tensor.Tensor) {
	s := time.Now()
	t.inner.MatMulTBBatchInto(out, a, b)
	t.record(kGemmBatch, s, gemmFlops(out, a.Dim(2)))
}

func (t *timedBackend) Add(dst, a, b *tensor.Tensor) {
	s := time.Now()
	t.inner.Add(dst, a, b)
	t.record(kElt, s, dst.Numel())
}

func (t *timedBackend) Sub(dst, a, b *tensor.Tensor) {
	s := time.Now()
	t.inner.Sub(dst, a, b)
	t.record(kElt, s, dst.Numel())
}

func (t *timedBackend) Mul(dst, a, b *tensor.Tensor) {
	s := time.Now()
	t.inner.Mul(dst, a, b)
	t.record(kElt, s, dst.Numel())
}

func (t *timedBackend) Scale(dst, a *tensor.Tensor, v float32) {
	s := time.Now()
	t.inner.Scale(dst, a, v)
	t.record(kElt, s, dst.Numel())
}

func (t *timedBackend) Axpy(dst *tensor.Tensor, alpha float32, src *tensor.Tensor) {
	s := time.Now()
	t.inner.Axpy(dst, alpha, src)
	t.record(kElt, s, 2*dst.Numel())
}

func (t *timedBackend) Im2ColInto(out, x *tensor.Tensor, kh, kw, stride, pad int) {
	s := time.Now()
	t.inner.Im2ColInto(out, x, kh, kw, stride, pad)
	t.record(kConv, s, 0)
}

func (t *timedBackend) Col2ImInto(out, cols *tensor.Tensor, kh, kw, stride, pad int) {
	s := time.Now()
	t.inner.Col2ImInto(out, cols, kh, kw, stride, pad)
	t.record(kConv, s, 0)
}

func (t *timedBackend) ConvForwardInto(out, w, x *tensor.Tensor, kh, kw, stride, pad int) {
	s := time.Now()
	t.inner.ConvForwardInto(out, w, x, kh, kw, stride, pad)
	t.record(kConv, s, gemmFlops(out, w.Dim(1)))
}

func (t *timedBackend) ConvGradWeightInto(out, grad, x *tensor.Tensor, kh, kw, stride, pad int) {
	s := time.Now()
	t.inner.ConvGradWeightInto(out, grad, x, kh, kw, stride, pad)
	t.record(kConv, s, gemmFlops(out, grad.Dim(1)))
}

// role says which endpoint a connection belongs to.
type role int

const (
	roleCoord  role = iota // dialed by the coordinator: the control plane
	rolePeer               // dialed by a worker: the peer data plane
	roleAccept             // accepted by a worker: the far end of either
)

// netStats times the transport.Conn calls of every endpoint. Bytes and
// frames are counted on the dialing side only, which sees both directions
// of its connection, so no frame is counted twice.
type netStats struct {
	sendNs, recvNs atomic.Int64
	bytes          [roleAccept]atomic.Int64
	frames         [roleAccept]atomic.Int64

	// Frames sent with Step == captureStep are copied while capturing,
	// for the wire codec benchmark.
	mu          sync.Mutex
	capturing   bool
	captureStep int32
	captured    []*wire.Frame
}

func (st *netStats) wrap(inner transport.Network, r role) transport.Network {
	return timedNet{inner: inner, st: st, role: r}
}

func (st *netStats) capture(f *wire.Frame) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.capturing && f.Step == st.captureStep {
		st.captured = append(st.captured, &wire.Frame{Kind: f.Kind, Dev: f.Dev, Step: f.Step,
			Payload: append([]byte(nil), f.Payload...)})
	}
}

type timedNet struct {
	inner transport.Network
	st    *netStats
	role  role
}

func (n timedNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return timedListener{Listener: l, st: n.st}, nil
}

func (n timedNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return timedConn{inner: c, st: n.st, role: n.role}, nil
}

type timedListener struct {
	transport.Listener
	st *netStats
}

func (l timedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return timedConn{inner: c, st: l.st, role: roleAccept}, nil
}

type timedConn struct {
	inner transport.Conn
	st    *netStats
	role  role
}

// frameBytes is a frame's size on the wire: 16 header bytes plus payload.
func frameBytes(f *wire.Frame) int64 { return 16 + int64(len(f.Payload)) }

func (c timedConn) count(f *wire.Frame) {
	if c.role != roleAccept {
		c.st.bytes[c.role].Add(frameBytes(f))
		c.st.frames[c.role].Add(1)
	}
}

func (c timedConn) Send(f *wire.Frame) error {
	c.st.capture(f)
	s := time.Now()
	err := c.inner.Send(f)
	c.st.sendNs.Add(int64(time.Since(s)))
	if err == nil {
		c.count(f)
	}
	return err
}

func (c timedConn) Recv() (*wire.Frame, error) {
	s := time.Now()
	f, err := c.inner.Recv()
	c.st.recvNs.Add(int64(time.Since(s)))
	if err == nil {
		c.count(f)
	}
	return f, err
}

func (c timedConn) Close() error { return c.inner.Close() }
