package core

import (
	"hash/fnv"
	"math"
	"testing"
)

// selfEnergyDigest hashes every bit of Σ≷ and Π≷ of a run.
func selfEnergyDigest(r *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(f float64) {
		u := math.Float64bits(f)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, data := range [][]complex128{r.SigmaLess.Data, r.SigmaGtr.Data, r.PiLess.Data, r.PiGtr.Data} {
		for _, v := range data {
			word(real(v))
			word(imag(v))
		}
	}
	return h.Sum64()
}

// TestBornWorkersBitwise pins the serial Born loop as a bitwise function of
// its config whatever the worker count: at Workers 2 and 8 the SSE phase
// runs as atom tiles on the pool (8 tiles of 3 atoms on this device), and
// the observables, G≷/D≷ and Σ≷/Π≷ must equal the Workers=1 run bit for bit.
func TestBornWorkersBitwise(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIter = 3
	type digest struct {
		run  runDigest
		self uint64
	}
	var ref digest
	for _, workers := range []int{1, 2, 8} {
		o := opts
		o.Workers = workers
		res, err := leadSim(t, o).Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := digest{digestOf(res), selfEnergyDigest(res)}
		if workers == 1 {
			ref = got
		} else if got != ref {
			t.Fatalf("workers=%d: %+v differs from Workers=1 %+v", workers, got, ref)
		}
	}
}
