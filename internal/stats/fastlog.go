package stats

import "math"

// fastLog is a table-driven natural logarithm for the geometric-gap fast
// path (GeometricGap.certify). It is not correctly rounded and is never used
// where a result must equal math.Log's: certify only trusts it when an
// error margin far wider than fastLog's worst case cannot change the integer
// it derives, and the walk recomputes with math.Log otherwise. On amd64
// with AVX2, UniformBlock takes its logs from logBlock, which computes the
// same bits four at a time.
//
// x = 2^k * z with z in [logTabOff, 2*logTabOff) ≈ [0.707, 1.414), so
// log x = k*ln2 + log z never cancels badly. The top logTabBits bits of z's
// offset mantissa pick a cell with constants (invc ≈ 1/c, logc = log c) for
// a point c near the cell's centre; then log z = logc + log1p(r) with
// r = z*invc - 1, |r| < 2^-9, and log1p(r) is its degree-5 Taylor
// polynomial (truncation below |r|^6/6 ≤ 2^-54/6). The cell ending at 1.0
// uses c = 1 exactly, so for x just below 1 (where log x → 0) r = z - 1 is
// exact and the error stays relative to log x, not absolute.
//
// Worst case over x in [2^-1022, 1): relative error well below 1e-13
// (TestFastLogRelativeError). The domain is positive normal x; the caller
// passes uniforms from RNG.Float64Open, which are multiples of 2^-53.
func fastLog(x float64) float64 {
	// Kept under the inlining budget, so UniformBlock.fill can run it
	// inline: tmp's top bits pick the cell, its arithmetic shift by 52 is k
	// (floor, negative for x < logTabOff), and its low 52 bits on top of
	// logTabOff are z. Every product is wrapped in float64(), which the Go
	// spec makes round, so no compiler may fuse it with an add: the result
	// has the same bits on every target, and equals logBlock's.
	tmp := math.Float64bits(x) - logTabOff
	c := logTab[(tmp>>(52-logTabBits))%(1<<logTabBits)]
	r := float64(math.Float64frombits(tmp&(1<<52-1)+logTabOff)*c.invc) - 1
	return float64(float64(int64(tmp)>>52)*math.Ln2) + c.logc + (r + float64(float64(r*r)*(-1.0/2+float64(r*(1.0/3+float64(r*(-1.0/4+float64(r*(1.0/5)))))))))
}

const (
	logTabBits = 8
	// logTabOff is the bit pattern of 0.70703125 (just under 1/√2). Its low
	// 52-logTabBits mantissa bits are zero, so cell boundaries fall on
	// multiples of 2^-9 below 1.0 and of 2^-8 above, and 1.0 itself is the
	// start of cell logTabOne.
	logTabOff = 0x3fe6a00000000000
	logTabOne = (0x3ff0000000000000 - logTabOff) >> (52 - logTabBits)
)

type logCell struct{ invc, logc float64 }

var logTab = func() (tab [1 << logTabBits]logCell) {
	for i := range tab {
		if i == logTabOne-1 {
			tab[i] = logCell{invc: 1, logc: 0} // [1-2^-9, 1): keep r exact
			continue
		}
		lo := math.Float64frombits(logTabOff + uint64(i)<<(52-logTabBits))
		hi := math.Float64frombits(logTabOff + uint64(i+1)<<(52-logTabBits))
		invc := 2 / (lo + hi)
		// c is exactly 1/invc, so log c = -log(invc) is the matching constant.
		tab[i] = logCell{invc: invc, logc: -math.Log(invc)}
	}
	return tab
}()
