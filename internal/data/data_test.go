package data

import (
	"math"
	"testing"
	"testing/quick"

	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

func TestDatasetValidate(t *testing.T) {
	good := &Dataset{X: [][]float64{{1, 2}}, Y: []int{0}, Dim: 2, Classes: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	badLen := &Dataset{X: [][]float64{{1, 2}}, Y: []int{0, 1}, Dim: 2, Classes: 2}
	if err := badLen.Validate(); err == nil {
		t.Fatal("expected X/Y mismatch error")
	}
	badDim := &Dataset{X: [][]float64{{1}}, Y: []int{0}, Dim: 2, Classes: 2}
	if err := badDim.Validate(); err == nil {
		t.Fatal("expected dim error")
	}
	badLabel := &Dataset{X: [][]float64{{1, 2}}, Y: []int{5}, Dim: 2, Classes: 2}
	if err := badLabel.Validate(); err == nil {
		t.Fatal("expected label error")
	}
}

func TestSubsetAndConcat(t *testing.T) {
	d := &Dataset{
		X: [][]float64{{0}, {1}, {2}, {3}}, Y: []int{0, 1, 0, 1},
		Dim: 1, Classes: 2,
	}
	s := &Dataset{X: [][]float64{{3}, {1}}, Y: []int{1, 1}, Dim: 1, Classes: 2}
	c, err := Concat([]*Dataset{d, s})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 6 || c.X[4][0] != 3 || c.Y[5] != 1 {
		t.Fatalf("concat wrong: %+v", c)
	}
	if _, err := Concat(nil); err == nil {
		t.Fatal("expected empty concat error")
	}
	other := &Dataset{Dim: 2, Classes: 2}
	if _, err := Concat([]*Dataset{d, other}); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestComputeWeights(t *testing.T) {
	clients := []*Dataset{
		{X: make([][]float64, 30), Y: make([]int, 30), Dim: 1, Classes: 2},
		{X: make([][]float64, 10), Y: make([]int, 10), Dim: 1, Classes: 2},
	}
	w, err := ComputeWeights(clients)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-0.75) > 1e-12 || math.Abs(w[1]-0.25) > 1e-12 {
		t.Fatalf("weights %v", w)
	}
	if _, err := ComputeWeights(nil); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := ComputeWeights([]*Dataset{{Dim: 1, Classes: 2}}); err == nil {
		t.Fatal("expected all-empty error")
	}
}

func TestGenerateSyntheticShape(t *testing.T) {
	r := stats.NewRNG(1)
	cfg := DefaultSyntheticConfig()
	cfg.NumClients = 8
	cfg.TotalSamples = 900
	fed, err := GenerateSynthetic(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fed.NumClients() != 8 {
		t.Fatalf("clients %d", fed.NumClients())
	}
	var wsum float64
	totalTrain := 0
	for n, c := range fed.Clients {
		if err := c.Validate(); err != nil {
			t.Fatalf("client %d: %v", n, err)
		}
		totalTrain += c.Len()
		wsum += fed.Weights[n]
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum %v", wsum)
	}
	if fed.Train.Len() != totalTrain {
		t.Fatalf("train %d vs shards %d", fed.Train.Len(), totalTrain)
	}
	if fed.Test.Len() == 0 {
		t.Fatal("empty test set")
	}
	if err := fed.Test.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateSyntheticDeterministic(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.NumClients = 4
	cfg.TotalSamples = 400
	a, err := GenerateSynthetic(stats.NewRNG(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSynthetic(stats.NewRNG(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := range a.Clients {
		if a.Clients[n].Len() != b.Clients[n].Len() {
			t.Fatal("sizes differ across identical seeds")
		}
		for i := range a.Clients[n].X {
			if a.Clients[n].Y[i] != b.Clients[n].Y[i] {
				t.Fatal("labels differ across identical seeds")
			}
			for j := range a.Clients[n].X[i] {
				if a.Clients[n].X[i][j] != b.Clients[n].X[i][j] {
					t.Fatal("features differ across identical seeds")
				}
			}
		}
	}
}

// TestLabelMatchesPerSampleScores holds label to the per-sample form it
// replaced — MulVec, + bias, ArgMax — bit for bit in every score and label,
// at even and odd class counts, dims on and off the vector kernel's multiple
// of 4, and part sizes around LogitsBatch's pair and 8-sample edges.
func TestLabelMatchesPerSampleScores(t *testing.T) {
	r := stats.NewRNG(77)
	for _, classes := range []int{2, 3, 4, 5, 10} {
		for _, dim := range []int{4, 7, 60} {
			for _, n := range []int{0, 1, 2, 7, 8, 9, 17, 24} {
				wk, err := tensor.NewMat(classes, dim)
				if err != nil {
					t.Fatal(err)
				}
				bias := make(tensor.Vec, classes)
				r.NormFloat64s(wk.Data)
				r.NormFloat64s(bias)
				ds := newDataset(n, dim, classes)
				for _, x := range ds.X {
					r.NormFloat64s(x)
				}
				z := make(tensor.Vec, n*classes)
				if err := label(ds, wk, bias, z); err != nil {
					t.Fatal(err)
				}
				want := make(tensor.Vec, classes)
				for i, x := range ds.X {
					if err := wk.MulVec(x, want); err != nil {
						t.Fatal(err)
					}
					for c := range want {
						want[c] += bias[c]
					}
					for c, w := range want {
						if got := z[i*classes+c]; math.Float64bits(got) != math.Float64bits(w) {
							t.Fatalf("classes=%d dim=%d n=%d: score %d,%d is %v, MulVec + bias gives %v",
								classes, dim, n, i, c, got, w)
						}
					}
					if y, _ := tensor.ArgMax(want); ds.Y[i] != y {
						t.Fatalf("classes=%d dim=%d n=%d: label %d is %d, want %d", classes, dim, n, i, ds.Y[i], y)
					}
				}
			}
		}
	}
}

func TestGenerateSyntheticValidation(t *testing.T) {
	r := stats.NewRNG(1)
	bad := DefaultSyntheticConfig()
	bad.NumClients = 0
	if _, err := GenerateSynthetic(r, bad); err == nil {
		t.Fatal("expected error for zero clients")
	}
	bad = DefaultSyntheticConfig()
	bad.TestFraction = 1.5
	if _, err := GenerateSynthetic(r, bad); err == nil {
		t.Fatal("expected error for invalid test fraction")
	}
	bad = DefaultSyntheticConfig()
	bad.Classes = 1
	if _, err := GenerateSynthetic(r, bad); err == nil {
		t.Fatal("expected error for single class")
	}
}

func TestGenerateImageLikeShapes(t *testing.T) {
	for name, cfg := range map[string]ImageLikeConfig{
		"mnist":  MNISTLikeConfig(),
		"emnist": EMNISTLikeConfig(),
	} {
		cfg.NumClients = 10
		cfg.TotalSamples = 1500
		cfg.TestSamples = 300
		fed, err := GenerateImageLike(stats.NewRNG(3), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fed.NumClients() != 10 {
			t.Fatalf("%s: clients %d", name, fed.NumClients())
		}
		total := 0
		for _, c := range fed.Clients {
			if err := c.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			total += c.Len()
		}
		if total != cfg.TotalSamples {
			t.Fatalf("%s: total %d want %d", name, total, cfg.TotalSamples)
		}
		if fed.Test.Len() != cfg.TestSamples {
			t.Fatalf("%s: test %d", name, fed.Test.Len())
		}
	}
}

func TestImageLikeClassRestriction(t *testing.T) {
	cfg := MNISTLikeConfig()
	cfg.NumClients = 12
	cfg.TotalSamples = 2400
	fed, err := GenerateImageLike(stats.NewRNG(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n, c := range fed.Clients {
		classes := 0
		for _, cnt := range LabelHistogram(c) {
			if cnt > 0 {
				classes++
			}
		}
		if classes < 1 || classes > cfg.MaxClasses {
			t.Fatalf("client %d holds %d classes, want 1..%d", n, classes, cfg.MaxClasses)
		}
	}
}

func TestImageLikeNonIID(t *testing.T) {
	cfg := MNISTLikeConfig()
	cfg.NumClients = 10
	cfg.TotalSamples = 2000
	fed, err := GenerateImageLike(stats.NewRNG(9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var skews []float64
	for _, c := range fed.Clients {
		skews = append(skews, SkewIndex(c))
	}
	if stats.Mean(skews) < 0.3 {
		t.Fatalf("partition not skewed enough: mean skew %v", stats.Mean(skews))
	}
	// The pooled train set should be much less skewed than shards.
	if SkewIndex(fed.Train) > stats.Mean(skews) {
		t.Fatal("pooled train set more skewed than shards")
	}
}

func TestImageLikeValidation(t *testing.T) {
	r := stats.NewRNG(1)
	bad := MNISTLikeConfig()
	bad.MinClasses = 0
	if _, err := GenerateImageLike(r, bad); err == nil {
		t.Fatal("expected error for zero min classes")
	}
	bad = MNISTLikeConfig()
	bad.NoiseStd = 0
	if _, err := GenerateImageLike(r, bad); err == nil {
		t.Fatal("expected error for zero noise")
	}
	bad = MNISTLikeConfig()
	bad.TestSamples = -1
	if _, err := GenerateImageLike(r, bad); err == nil {
		t.Fatal("expected error for negative test samples")
	}
}

func TestSkewIndexBounds(t *testing.T) {
	uniform := &Dataset{Dim: 1, Classes: 2,
		X: [][]float64{{0}, {0}}, Y: []int{0, 1}}
	if s := SkewIndex(uniform); math.Abs(s) > 1e-12 {
		t.Fatalf("uniform skew %v", s)
	}
	single := &Dataset{Dim: 1, Classes: 2,
		X: [][]float64{{0}, {0}}, Y: []int{1, 1}}
	if s := SkewIndex(single); math.Abs(s-1) > 1e-12 {
		t.Fatalf("single-class skew %v", s)
	}
	if SkewIndex(&Dataset{Classes: 3}) != 0 {
		t.Fatal("empty dataset skew should be 0")
	}
}

func TestQuickWeightsAlwaysNormalized(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := MNISTLikeConfig()
		cfg.NumClients = 6
		cfg.TotalSamples = 600
		cfg.TestSamples = 50
		fed, err := GenerateImageLike(stats.NewRNG(seed), cfg)
		if err != nil {
			return false
		}
		var sum float64
		for _, w := range fed.Weights {
			if w <= 0 {
				return false
			}
			sum += w
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
