package jl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeterministicBySeed(t *testing.T) {
	a := New(50, 3, 7)
	b := New(50, 3, 7)
	c := New(50, 3, 8)
	x := make([]float64, 50)
	for i := range x {
		x[i] = float64(i)
	}
	ya, yb, yc := a.Apply(x), b.Apply(x), c.Apply(x)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatalf("same seed produced different transforms")
		}
	}
	same := true
	for i := range ya {
		if ya[i] != yc[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical transforms")
	}
}

func TestDimensions(t *testing.T) {
	tf := New(10, 3, 1)
	if tf.InDim() != 10 || tf.OutDim() != 3 {
		t.Fatalf("dims = %d/%d, want 10/3", tf.InDim(), tf.OutDim())
	}
	if got := len(tf.Apply(make([]float64, 10))); got != 3 {
		t.Fatalf("Apply returned %d dims", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input dimension did not panic")
		}
	}()
	tf.Apply(make([]float64, 9))
}

func TestApplyAllMatchesApply(t *testing.T) {
	tf := New(8, 3, 2)
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 5*8)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	all := tf.ApplyAll(xs)
	for i := 0; i < 5; i++ {
		one := tf.Apply(xs[i*8 : (i+1)*8])
		for j := 0; j < 3; j++ {
			if all[i*3+j] != one[j] {
				t.Fatalf("ApplyAll differs from Apply at point %d dim %d", i, j)
			}
		}
	}
}

func TestLinearity(t *testing.T) {
	// The transform is linear: T(ax + by) = aT(x) + bT(y).
	tf := New(6, 2, 5)
	f := func(seed int64, a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a, b = math.Mod(a, 100), math.Mod(b, 100)
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 6)
		y := make([]float64, 6)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		comb := make([]float64, 6)
		for i := range comb {
			comb[i] = a*x[i] + b*y[i]
		}
		tc := tf.Apply(comb)
		tx, ty := tf.Apply(x), tf.Apply(y)
		for i := range tc {
			want := a*tx[i] + b*ty[i]
			if math.Abs(tc[i]-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem1UpperTail checks the Theorem 1 upper bound by Monte Carlo:
// the observed frequency of l2 >= sqrt(1+eps) * l1 must not exceed the bound
// (with sampling slack).
func TestTheorem1UpperTail(t *testing.T) {
	const (
		d      = 50
		alpha  = 3
		trials = 4000
	)
	rng := rand.New(rand.NewSource(11))
	for _, eps := range []float64{0.5, 1, 3} {
		bound := DeltaUpper(eps, alpha)
		exceed := 0
		for i := 0; i < trials; i++ {
			tf := New(d, alpha, int64(i+1))
			u := make([]float64, d)
			v := make([]float64, d)
			for j := range u {
				u[j], v[j] = rng.NormFloat64(), rng.NormFloat64()
			}
			l1 := dist(u, v)
			l2 := dist(tf.Apply(u), tf.Apply(v))
			if l2 >= math.Sqrt(1+eps)*l1 {
				exceed++
			}
		}
		freq := float64(exceed) / trials
		if freq > bound+0.02 {
			t.Fatalf("eps=%v: observed tail %v exceeds Theorem 1 bound %v", eps, freq, bound)
		}
	}
}

// TestTheorem1LowerTail is the symmetric Monte Carlo check for the lower
// bound.
func TestTheorem1LowerTail(t *testing.T) {
	const (
		d      = 50
		alpha  = 3
		trials = 4000
	)
	rng := rand.New(rand.NewSource(13))
	for _, eps := range []float64{0.5, 15.0 / 16} {
		bound := DeltaLower(eps, alpha)
		below := 0
		for i := 0; i < trials; i++ {
			tf := New(d, alpha, int64(1000+i))
			u := make([]float64, d)
			v := make([]float64, d)
			for j := range u {
				u[j], v[j] = rng.NormFloat64(), rng.NormFloat64()
			}
			l1 := dist(u, v)
			l2 := dist(tf.Apply(u), tf.Apply(v))
			if l2 <= math.Sqrt(1-eps)*l1 {
				below++
			}
		}
		freq := float64(below) / trials
		if freq > bound+0.02 {
			t.Fatalf("eps=%v: observed tail %v exceeds Theorem 1 bound %v", eps, freq, bound)
		}
	}
}

// TestPaperExamples reproduces the two worked examples below Theorem 1:
// eps=3, alpha=3 gives >= 91.2% confidence that l2 < 2*l1; eps=15/16 gives
// >= 94% confidence that l2 > l1/4.
func TestPaperExamples(t *testing.T) {
	// The paper rounds to "91.2%"; the exact value is 0.91113.
	if conf := 1 - DeltaUpper(3, 3); conf < 0.911 {
		t.Fatalf("upper example: confidence %v, want >= 0.911", conf)
	}
	// The paper states "at least 94%"; the exact bound value is 0.93624,
	// which the paper evidently rounded up.
	if conf := 1 - DeltaLower(15.0/16, 3); conf < 0.93 {
		t.Fatalf("lower example: confidence %v, want >= 0.93", conf)
	}
}

func TestBoundsMonotonicity(t *testing.T) {
	// Larger alpha means tighter bounds at fixed eps.
	for _, eps := range []float64{0.5, 1, 2} {
		for alpha := 1; alpha < 8; alpha++ {
			if DeltaUpper(eps, alpha+1) > DeltaUpper(eps, alpha)+1e-15 {
				t.Fatalf("DeltaUpper not decreasing in alpha at eps=%v alpha=%d", eps, alpha)
			}
		}
	}
	// Bounds are probabilities.
	f := func(eps float64, a int) bool {
		alpha := 1 + (a%8+8)%8
		eps = math.Abs(math.Mod(eps, 10))
		u := DeltaUpper(eps, alpha)
		l := DeltaLower(eps, alpha)
		return u >= 0 && u <= 1 && l >= 0 && l <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKRecallBound(t *testing.T) {
	rStar := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	p := TopKRecallLowerBound(rStar, 0.75, 3)
	if p < 0 || p > 1 {
		t.Fatalf("recall bound %v outside [0,1]", p)
	}
	// More expansion -> better recall bound.
	if TopKRecallLowerBound(rStar, 2, 3) < p {
		t.Fatalf("recall bound not monotone in eps")
	}
	// Expected misses consistent with the product bound.
	misses := ExpectedTopKMisses(rStar, 0.75, 3)
	if misses < 0 || misses > 5 {
		t.Fatalf("expected misses %v outside [0,k]", misses)
	}
	// Degenerate cases.
	if TopKRecallLowerBound(nil, 0.5, 3) != 1 {
		t.Fatalf("empty rStar should give recall bound 1")
	}
	if got := TopKRecallLowerBound([]float64{0, 0}, 0.5, 3); got != 1 {
		t.Fatalf("zero distances should give recall bound 1, got %v", got)
	}
}

func TestFalsePositiveBound(t *testing.T) {
	for _, epsP := range []float64{0.1, 0.5, 0.9} {
		b := FalsePositiveBound(epsP, 3)
		if b <= 0 || b > 1 {
			t.Fatalf("bound %v outside (0,1] at eps'=%v", b, epsP)
		}
	}
	if FalsePositiveBound(0, 3) != 1 || FalsePositiveBound(1, 3) != 1 {
		t.Fatalf("out-of-range eps' should clamp to 1")
	}
	// Tighter in alpha.
	if FalsePositiveBound(0.5, 6) > FalsePositiveBound(0.5, 3) {
		t.Fatalf("bound not decreasing in alpha")
	}
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
