package bench

import (
	"bytes"
	"testing"
)

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range all {
		def := workloadDefs[name]
		a := def.plan(42, 2).encode()
		if b := def.plan(42, 2).encode(); !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different op plans", name)
		}
		if c := def.plan(43, 2).encode(); bytes.Equal(a, c) && name != StreamCold {
			t.Errorf("%s: seeds 42 and 43 gave the same op plan", name)
		}
		if got := len(def.plan(42, 2).Actors); got != 2 {
			t.Errorf("%s: %d actors for 2 clients; the load must never exceed the client count", name, got)
		}
		if got := len(def.plan(42, 1).Actors); got < 1 || got > 2 {
			t.Errorf("%s: %d actors for 1 client", name, got)
		}
	}
	// stream_cold's viewers differ by seed even though its prober does not.
	if a, b := streamCold.plan(42, 2).encode(), streamCold.plan(43, 2).encode(); bytes.Equal(a, b) {
		t.Error("stream_cold: seeds 42 and 43 gave the same op plan")
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	for _, s := range []float64{1.0, 1.1} {
		z := newZipf(256, s)
		r := newRNG(1)
		counts := make([]int, 256)
		for i := 0; i < 100000; i++ {
			counts[z.draw(r)]++
		}
		if counts[0] <= counts[1] || counts[1] <= counts[9] || counts[9] <= counts[99] {
			t.Errorf("s=%v: counts not decreasing with rank: %d %d %d %d", s, counts[0], counts[1], counts[9], counts[99])
		}
		// P(0) = 1/H(256, s): 0.163 for s=1, 0.211 for s=1.1.
		if share := float64(counts[0]) / 100000; share < 0.14 || share > 0.24 {
			t.Errorf("s=%v: rank 0 drew %.3f of the sample", s, share)
		}
	}
}

func TestContentIsAFunctionOfRefAndVersion(t *testing.T) {
	a := makeContent(7, "library/x", 3, 8<<10)
	if len(a) != 8<<10 || contentVersion(a) != 3 {
		t.Fatalf("got %d bytes, version %d", len(a), contentVersion(a))
	}
	if !bytes.Equal(a, makeContent(7, "library/x", 3, 8<<10)) {
		t.Error("same (seed, ref, version) gave different bytes")
	}
	for _, other := range [][]byte{
		makeContent(8, "library/x", 3, 8<<10),
		makeContent(7, "library/y", 3, 8<<10),
		makeContent(7, "library/x", 4, 8<<10),
	} {
		if digest(other) == digest(a) {
			t.Error("changing seed, ref or version left the digest unchanged")
		}
	}
	if digest(a) != crcUpdate(crcUpdate(0, a[:1000]), a[1000:]) {
		t.Error("a digest taken chunk by chunk differs from one taken whole")
	}
}
