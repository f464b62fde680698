package main

import (
	"reflect"
	"testing"
)

// TestGenerateDeterministic pins the seeded request stream: the same seed
// gives the same stream, another seed (the unseen seed 2 next to the
// development seed 1) a different order over the same key profile.
func TestGenerateDeterministic(t *testing.T) {
	a, b := generate(1), generate(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 gave two different streams")
	}
	c := generate(2)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 gave the same stream")
	}
	for _, s := range []requestStream{a, c} {
		if len(s) != 2*requestsPerConfig {
			t.Fatalf("stream of %d requests, want %d", len(s), 2*requestsPerConfig)
		}
		if keys := distinct(s); keys != 2*ladderRungs {
			t.Fatalf("%d distinct keys, want %d", keys, 2*ladderRungs)
		}
	}
}

func distinct(s requestStream) int {
	seen := map[request]bool{}
	for _, q := range s {
		seen[q] = true
	}
	return len(seen)
}

func TestZipfCounts(t *testing.T) {
	counts := zipfCounts(ladderRungs, requestsPerConfig)
	sum := 0
	for _, c := range counts {
		if c < 1 || c > counts[0] {
			t.Fatalf("counts %v: want at least 1 each, none above the first", counts)
		}
		sum += c
	}
	if sum != requestsPerConfig {
		t.Fatalf("counts %v sum to %d, want %d", counts, sum, requestsPerConfig)
	}
}
