package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p90 over fewer than 100 samples rests on fewer than ten points and
// is not reported as one.
const minBeyond = 10

// rank is the 1-based nearest-rank position of quantile q in n sorted
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// beyond is how many of n samples lie above the nearest-rank quantile q.
func beyond(n int, q float64) int { return n - rank(n, q) }

// minSamples is the smallest sample count whose quantile q has at least
// minBeyond samples above it.
func minSamples(q float64) int {
	n := 1
	for beyond(n, q) < minBeyond {
		n++
	}
	return n
}

// quantile returns the nearest-rank quantile q of xs (xs need not be
// sorted; it is not modified). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// median is the middle of xs, averaging the two middle samples of an
// even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// hdQuantile is the Harrell-Davis estimate of quantile q of xs: a
// weighted mean of all order statistics, with the weights of a Beta(q(n+1),
// (1-q)(n+1)) distribution over the ranks, so it rests on the samples
// around rank qn rather than on the one sample there. Ops of a sweep
// differ in size, so neighbouring ranks hold different cells, and noise
// that swaps two of them moves a nearest-rank percentile by their whole
// difference; this estimate moves by a share of it. It returns 0 for no
// samples.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		c := betaInc(a, b, float64(i)/float64(n))
		est += (c - prev) * s[i-1]
		prev = c
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b), by its
// continued fraction (modified Lentz).
func betaInc(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - betaInc(b, a, 1-x)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	const tiny, eps = 1e-300, 1e-15
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	f := d
	for m := 1; m < 100000; m++ {
		fm := float64(m)
		for k := 0; k < 2; k++ {
			var num float64
			if k == 0 {
				num = fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
			} else {
				num = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
			}
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			f *= c * d
		}
		if math.Abs(c*d-1) < eps {
			break
		}
	}
	return front * f / a
}

// latency summarizes a set of per-op timings.
type latency struct {
	// P50 and P90 are Harrell-Davis estimates.
	P50, P90 float64
	// N is the sample count; Beyond90 how many samples lie above the
	// nearest-rank p90.
	N, Beyond90 int
}

func summarize(xs []float64) latency {
	return latency{
		P50: hdQuantile(xs, 0.5), P90: hdQuantile(xs, 0.9),
		N: len(xs), Beyond90: beyond(len(xs), 0.9),
	}
}

// p90OK reports whether the p90 has enough samples above it.
func (l latency) p90OK() bool { return l.Beyond90 >= minBeyond }

// ratio is a share reported together with its base.
type ratio struct {
	Num, Den float64
}

// Value is Num/Den, or 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4f (%g/%g)", r.Value(), r.Num, r.Den)
}
