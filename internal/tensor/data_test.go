package tensor

import (
	"math"
	"testing"
)

// TestQuantizeRoundTrip pins the invariant the arena checker depends on:
// storing a quantized value through the byte encoding is lossless.
func TestQuantizeRoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1, 0.5, -0.25, 3.14159265358979, 1e-3, -1e-3,
		65504, 70000, 1e-8, -2.5e-8, 255, 256, 257, 1e6, -1e6, 0.1}
	buf := make([]byte, 8)
	for _, dt := range []DType{F32, TF32, BF16, F16, I64, I32, Bool} {
		for _, v := range vals {
			q := dt.Quantize(v)
			dt.PutElem(buf, q)
			got := dt.GetElem(buf)
			if got != q && !(math.IsNaN(got) && math.IsNaN(q)) {
				t.Errorf("%v: PutElem/GetElem(%g) = %g, want quantized %g", dt, v, got, q)
			}
			// Quantize must be idempotent.
			if q2 := dt.Quantize(q); q2 != q && !(math.IsNaN(q2) && math.IsNaN(q)) {
				t.Errorf("%v: Quantize not idempotent on %g: %g then %g", dt, v, q, q2)
			}
		}
	}
}

func TestQuantizeKnownValues(t *testing.T) {
	cases := []struct {
		dt   DType
		in   float64
		want float64
	}{
		{F32, 0.1, float64(float32(0.1))},
		{BF16, 1.0, 1.0},
		{BF16, math.Pi, 3.140625},
		{F16, math.Pi, 3.140625},
		{F16, 65504, 65504},                           // max finite f16
		{F16, 65520, math.Inf(1)},                     // rounds past max finite
		{F16, math.Ldexp(1, -24), math.Ldexp(1, -24)}, // min subnormal
		{F16, math.Ldexp(1, -26), 0},                  // underflow
		{I64, 3.9, 3},
		{I64, -3.9, -3},
		{I32, math.NaN(), 0},
		{Bool, 0.3, 1},
		{Bool, 0, 0},
	}
	for _, c := range cases {
		if got := c.dt.Quantize(c.in); got != c.want {
			t.Errorf("%v.Quantize(%g) = %g, want %g", c.dt, c.in, got, c.want)
		}
	}
}

func TestF16BF16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and the next f16 (1+2^-10):
	// ties to even → 1. Just above the tie rounds up.
	if got := F16.Quantize(1 + math.Ldexp(1, -11)); got != 1 {
		t.Errorf("f16 tie: got %g, want 1", got)
	}
	if got := F16.Quantize(1 + math.Ldexp(1, -11) + math.Ldexp(1, -13)); got != 1+math.Ldexp(1, -10) {
		t.Errorf("f16 above tie: got %g, want %g", got, 1+math.Ldexp(1, -10))
	}
	// Same structure for bf16 (8 mantissa bits): tie at 1 + 2^-9.
	if got := BF16.Quantize(1 + math.Ldexp(1, -9)); got != 1 {
		t.Errorf("bf16 tie: got %g, want 1", got)
	}
}
