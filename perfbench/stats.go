package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// orZero is x, or 0 when x is NaN (an empty sample: the layer did no work).
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// heapSampler records the peak Go heap in use (live and not yet swept
// objects) while it runs, sampling runtime/metrics every 2 ms; reading
// runtime/metrics does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.mu.Lock()
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap in MB (10^6 bytes).
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / 1e6
}
