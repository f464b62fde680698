package main

import (
	"math/rand"

	"negfsim/internal/core"
)

// The serve-mix request stream. Each base config is requested at every
// bias of a 0.01 V ladder, with Zipf-shaped popularity: the i-th most
// popular bias is requested about 1/i as often as the most popular one.
// The key set and the popularity profile are the same for every seed, so
// every stream has the same number of distinct keys and repeats; the seed
// picks which biases are popular and the order of the stream. Repeated
// keys are served from the front's cache; a new key runs on the worker,
// warm-started from the nearest cached bias of its config.
const (
	ladderRungs       = 30 // biases 0.10, 0.11, …, 0.39 V
	requestsPerConfig = 80
)

// request is one generated submission: a base config at a ladder rung.
type request struct{ base, rung int }

// bias is the rung's bias in volts, an exact two-decimal value.
func (q request) bias() float64 { return float64(10+q.rung) / 100 }

// config is the RunConfig the program receives for the request.
func (q request) config(bases []core.RunConfig) core.RunConfig {
	cfg := bases[q.base]
	cfg.Bias = q.bias()
	return cfg
}

type requestStream []request

// generate returns the seeded request stream: the same seed gives the
// same stream.
func generate(seed int64) requestStream {
	rng := rand.New(rand.NewSource(seed))
	counts := zipfCounts(ladderRungs, requestsPerConfig)
	var out requestStream
	for base := 0; base < 2; base++ {
		rungs := rng.Perm(ladderRungs)
		for rank, n := range counts {
			for i := 0; i < n; i++ {
				out = append(out, request{base: base, rung: rungs[rank]})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// zipfCounts splits total requests over n keys: one each, and the rest in
// proportion to 1/rank, the leftover of the rounding going to the largest
// remainders.
func zipfCounts(n, total int) []int {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	left := total - n
	spread := left
	for i := range counts {
		x := float64(spread) / (float64(i+1) * h)
		counts[i] = 1 + int(x)
		rem[i] = x - float64(int(x))
		left -= int(x)
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// mostRequested is the request that occurs most often in the stream
// (the first such in stream order on ties).
func (s requestStream) mostRequested() request {
	n := map[request]int{}
	best := s[0]
	for _, q := range s {
		n[q]++
		if n[q] > n[best] {
			best = q
		}
	}
	return best
}
