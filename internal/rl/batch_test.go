package rl

import (
	"math"
	"math/rand"
	"testing"

	"libra/internal/nn"
)

func randObsMatrix(rng *rand.Rand, b, dim int) *nn.Matrix {
	x := nn.NewMatrix(b, dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func TestMeanBatchMatchesMean(t *testing.T) {
	const obsDim = 12
	p := NewPPO(5, obsDim, 2, Config{})
	rng := rand.New(rand.NewSource(6))
	X := randObsMatrix(rng, 9, obsDim)
	out := p.MeanBatch(X)
	for r := 0; r < X.Rows; r++ {
		want := p.Policy.Mean(X.Data[r*obsDim : (r+1)*obsDim])
		for c := range want {
			if out.At(r, c) != want[c] {
				t.Fatalf("row %d col %d: %v != %v", r, c, out.At(r, c), want[c])
			}
		}
	}
}

// Seeded noise is deterministic per seed and roughly unit-normal
// across seeds.
func TestSeededNormalStatistics(t *testing.T) {
	if seededNormal(42, 0) != seededNormal(42, 0) {
		t.Fatal("seededNormal not deterministic")
	}
	if seededNormal(42, 0) == seededNormal(43, 0) {
		t.Fatal("distinct seeds produced identical noise")
	}
	const n = 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := seededNormal(uint64(i)*0x9E3779B97F4A7C15, 0)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean) > 0.05 || std < 0.9 || std > 1.1 {
		t.Fatalf("seeded noise mean %v std %v, want ~N(0,1)", mean, std)
	}
}

// SampleFrom writes into the supplied buffer without allocating.
func TestSampleFromNoAllocs(t *testing.T) {
	p := NewPPO(7, 4, 1, Config{})
	mean := []float64{0.25}
	dst := make([]float64, 1)
	allocs := testing.AllocsPerRun(100, func() { p.Policy.SampleFrom(mean, 99, dst) })
	if allocs != 0 {
		t.Fatalf("SampleFrom allocates %v/op", allocs)
	}
}
