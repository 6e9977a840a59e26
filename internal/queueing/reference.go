package queueing

import (
	"errors"
	"math"
	"math/big"
	"sync"
)

// This file keeps the original, straightforward Crommelin evaluation —
// every term rebuilt from scratch in extended precision with its own
// exponential — and the original bracket-plus-bisect percentile search.
// They are the ground truth the differential tests pin the float64
// kernel against, and the "old" side of the old-vs-new benchmarks;
// nothing outside tests and benchmarks should call them. This file and
// kernelreference.go, its extension to the other kernels, are the
// package's only users of math/big.

// crommelinBasePrec is the minimum big.Float mantissa precision for the
// alternating Crommelin sum. The term magnitudes grow like e^(2*lambda*t)
// while the result stays in [0,1], so the working precision must scale
// with lambda*t; crommelinPrec computes the required bits.
const crommelinBasePrec = 256

// crommelinMaxPrec caps the working precision. Past lambda*t ~ 2,650
// the cap no longer covers the cancellation and the oracle itself is
// inexact; the differential tests stay well inside it.
const crommelinMaxPrec = 1 << 13

// crommelinPrec returns the working precision for arguments lambda and t:
// enough bits to absorb e^(2*lambda*t) cancellation plus guard bits.
func crommelinPrec(lambda, t float64) uint {
	// log2(e^(2*lambda*t)) = 2*lambda*t/ln2 ≈ 2.885*lambda*t bits.
	need := uint(3*lambda*t) + crommelinBasePrec
	if need > crommelinMaxPrec {
		return crommelinMaxPrec
	}
	// Round up to a multiple of 64 so repeated queries share precisions.
	return (need + 63) &^ 63
}

// waitCDFReference evaluates P(W <= t) term by term: O(j) big.Float
// multiplications per term plus one full extended-precision exponential
// per term.
func (q MD1) waitCDFReference(t float64) float64 {
	if t < 0 {
		return 0
	}
	rho := q.Rho()
	if rho >= 1 {
		return 0
	}
	if q.Lambda == 0 {
		return 1
	}
	k := int(math.Floor(t / q.D))
	prec := crommelinPrec(q.Lambda, t)
	lb := new(big.Float).SetPrec(prec).SetFloat64(q.Lambda)
	db := new(big.Float).SetPrec(prec).SetFloat64(q.D)
	tb := new(big.Float).SetPrec(prec).SetFloat64(t)
	sum := new(big.Float).SetPrec(prec)
	term := new(big.Float).SetPrec(prec)
	xb := new(big.Float).SetPrec(prec)
	for j := 0; j <= k; j++ {
		// xb = lambda * (j*D - t), <= 0 for j <= k.
		xb.SetInt64(int64(j))
		xb.Mul(xb, db)
		xb.Sub(xb, tb)
		xb.Mul(xb, lb)
		// term = xb^j / j! * e^{-xb}
		term.SetFloat64(1)
		for i := 1; i <= j; i++ {
			term.Mul(term, xb)
			term.Quo(term, new(big.Float).SetPrec(prec).SetInt64(int64(i)))
		}
		neg := new(big.Float).SetPrec(prec).Neg(xb)
		term.Mul(term, bigExpBig(neg, prec))
		sum.Add(sum, term)
	}
	sum.Mul(sum, new(big.Float).SetPrec(prec).SetFloat64(1-rho))
	v, _ := sum.Float64()
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// waitPercentileReference is the original search: geometric bracketing
// from the mean wait followed by ~60-100 blind bisection steps, each a
// full reference CDF evaluation. No caching, no interpolation.
func (q MD1) waitPercentileReference(p float64) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	target := p / 100
	if q.waitCDFReference(0) >= target {
		return 0, nil
	}
	hi := q.MeanWait()
	if hi <= 0 {
		hi = q.D
	}
	for i := 0; q.waitCDFReference(hi) < target; i++ {
		hi *= 2
		if i > 60 {
			return 0, errors.New("queueing: percentile bracket failed to converge")
		}
	}
	lo := 0.0
	for i := 0; i < 100 && hi-lo > 1e-12*math.Max(1, hi); i++ {
		mid := (lo + hi) / 2
		if q.waitCDFReference(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// ln2Cache memoizes ln 2 at the highest precision requested so far. The
// argument reduction in bigExpBig must happen in extended precision:
// reducing with float64 ln2 caps the whole CDF at float64 accuracy,
// which the alternating sum then amplifies catastrophically for large t.
var ln2Cache struct {
	mu   sync.Mutex
	prec uint
	val  *big.Float
}

// bigLn2 returns ln 2 accurate to at least prec bits, computed from the
// fast-converging series ln 2 = 2*atanh(1/3) = 2*sum (1/3)^(2k+1)/(2k+1),
// which gains ~3.17 bits per term.
func bigLn2(prec uint) *big.Float {
	ln2Cache.mu.Lock()
	defer ln2Cache.mu.Unlock()
	if ln2Cache.val != nil && ln2Cache.prec >= prec {
		return ln2Cache.val
	}
	work := prec + 32
	sum := new(big.Float).SetPrec(work)
	x := new(big.Float).SetPrec(work)
	x.Quo(new(big.Float).SetPrec(work).SetInt64(1), new(big.Float).SetPrec(work).SetInt64(3))
	nine := new(big.Float).SetPrec(work).SetInt64(9)
	pow := new(big.Float).SetPrec(work).Copy(x) // (1/3)^(2k+1)
	term := new(big.Float).SetPrec(work)
	div := new(big.Float).SetPrec(work)
	// Each term shrinks by 9x (3.17 bits); iterate until below precision.
	iters := int(work/3) + 4
	for k := 0; k < iters; k++ {
		term.Quo(pow, div.SetInt64(int64(2*k+1)))
		sum.Add(sum, term)
		pow.Quo(pow, nine)
	}
	sum.Mul(sum, new(big.Float).SetPrec(work).SetInt64(2))
	ln2Cache.prec = prec
	ln2Cache.val = sum
	return sum
}

// bigExpBig computes e^x at the given precision via argument reduction
// and Taylor series: x = n*ln2 + r with |r| <= ln2/2, e^x = 2^n * e^r.
func bigExpBig(x *big.Float, prec uint) *big.Float {
	if x.Sign() == 0 {
		return new(big.Float).SetPrec(prec).SetFloat64(1)
	}
	xf, _ := x.Float64()
	n := int(math.Round(xf / math.Ln2))
	rb := new(big.Float).SetPrec(prec).SetInt64(int64(n))
	rb.Mul(rb, bigLn2(prec))
	rb.Sub(x, rb) // r = x - n*ln2, |r| <= ~0.35
	// Taylor series for e^r: term k contributes ~|r|^k/k!; stop once the
	// term vanishes or cannot affect the result at this precision.
	sum := new(big.Float).SetPrec(prec).SetFloat64(1)
	term := new(big.Float).SetPrec(prec).SetFloat64(1)
	div := new(big.Float).SetPrec(prec)
	// |r| <= 0.35 shrinks terms by >= ~1.5 bits plus log2(k) each step;
	// prec/1.4 iterations are always enough.
	iters := int(prec/2) + 16
	for i := 1; i <= iters; i++ {
		term.Mul(term, rb)
		term.Quo(term, div.SetInt64(int64(i)))
		sum.Add(sum, term)
		if term.Sign() == 0 || term.MantExp(nil) < -int(prec)-8 {
			break
		}
	}
	// Scale by 2^n.
	mant := new(big.Float).SetPrec(prec)
	exp := sum.MantExp(mant)
	return sum.SetMantExp(mant, exp+n)
}
