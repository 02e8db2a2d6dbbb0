package stats

// RepetitionErrorRate evaluates the paper's Equation 1: the residual error
// after majority-voting n copies of a payload bit over a channel whose
// per-bit success probability is p (so per-bit error is 1−p):
//
//	Error = 1 − Σ_{i=(n+1)/2}^{n} C(n,i) · pⁱ · (1−p)^{n−i}
//
// n must be odd; "10% error becomes 2.8% when three copies are encoded"
// (§5.2) is the canonical check: RepetitionErrorRate(0.9, 3) ≈ 0.028.
func RepetitionErrorRate(p float64, n int) float64 {
	if n < 1 || n%2 == 0 {
		panic("stats: RepetitionErrorRate requires odd n >= 1")
	}
	if p < 0 || p > 1 {
		panic("stats: success probability out of [0,1]")
	}
	var success float64
	for i := (n + 1) / 2; i <= n; i++ {
		success += BinomialCoefficient(n, i) * pow(p, i) * pow(1-p, n-i)
	}
	e := 1 - success
	if e < 0 {
		return 0
	}
	return e
}

// HammingResidual74 returns the post-correction bit error rate of a
// Hamming(7,4) code over a binary symmetric channel with bit error rate p.
// Hamming(7,4) corrects any single-bit error per 7-bit codeword; two or
// more errors mis-correct. The standard union expression for the decoded
// data-bit error probability counts codewords with ≥2 channel errors and
// scales by the expected fraction of corrupted data bits after a wrong
// "correction" (a miscorrection leaves ≈(e+1)/7 of the word wrong for e
// channel errors; we use the conventional upper-bound form used for ECC
// sizing, which matches the paper's "combined codes work more efficiently"
// behaviour).
func HammingResidual74(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	// P(block decode error) = P(>=2 errors in 7 bits).
	var pOK float64
	pOK = pow(1-p, 7) + 7*p*pow(1-p, 6)
	pBlockErr := 1 - pOK
	// On a block decode failure, the decoder flips one more bit; with e
	// channel errors the residual wrong-bit fraction is about (e+1)/7.
	// Conditioning on e>=2, E[e | e>=2] is close to 2 for small p, giving
	// ~3/7 of bits wrong in failed blocks.
	return pBlockErr * 3.0 / 7.0
}

func pow(x float64, n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= x
	}
	return r
}
