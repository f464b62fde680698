package cmat

import "sync/atomic"

// FlopCounter accumulates floating-point operation counts of the kernels in
// this package. A complex multiply-add is counted as 8 real flops (6 for the
// multiply, 2 for the add), matching the convention the paper uses when
// quoting Pflop figures for complex arithmetic (64·… byte/flop expressions
// in §4.3 assume 8 flops per complex MAC).
//
// Counting is always on, at one atomic add on this shared counter per
// kernel call. That is cheap next to the O(n³) work of a large product, but
// not for Norb×Norb blocks: when several cores each run millions of 2×2
// products, the counter's cache line bounces between them and the adds
// cost more than the arithmetic. Block-level kernels (the DaCe SSE tiles)
// therefore tally their flops locally and add them once per call.
type FlopCounter struct {
	flops atomic.Uint64
}

// Counter is the package-global flop counter used by all kernels.
var Counter FlopCounter

// AddGEMM records the flops of an R×K by K×C matrix multiplication.
func (c *FlopCounter) AddGEMM(r, k, cols int) {
	c.flops.Add(uint64(8 * r * k * cols))
}

// AddFlops records an arbitrary number of real flops.
func (c *FlopCounter) AddFlops(n uint64) { c.flops.Add(n) }

// Flops returns the total real flops recorded so far.
func (c *FlopCounter) Flops() uint64 { return c.flops.Load() }

// Reset zeroes the counter and returns the value it held.
func (c *FlopCounter) Reset() uint64 { return c.flops.Swap(0) }
