#include "textflag.h"
#include "go_asm.h"

// AVX2 tier of (*Acc).AddScaledDiff (see fixpoint.go for the per-element
// operation sequence both tiers implement). Four lanes are four consecutive
// parameters; every lane performs addScaledDiffPortable's own float and
// integer operations on its own parameter, with the loop's branches replaced
// by what a variable shift does with a count of 64 or more — it yields 0 — so
// no lane ever looks at another and the limbs are bit-identical to the Go
// loop's. The constants are the Go
// constants of fixpoint.go, read through go_asm.h. Pointers are not
// bounds-checked here: foldVector's slicing is the only guard.

// BROADCAST fills the four lanes of reg with the 64-bit constant v. VMOVQ, not
// MOVQ: a legacy-SSE write to an X register while upper YMM halves are live
// pays a state transition, ~100 ns apiece when measured here.
#define BROADCAST(v, xreg, reg) \
	MOVQ v, AX; \
	VMOVQ AX, xreg; \
	VPBROADCASTQ xreg, reg

// func foldAVX2(scale, factor float64, w, base *float64, lo, hi *uint64, n int) bool
//
// Folds n parameters (a positive multiple of 4): lo[j]:hi[j] += the 128-bit
// two's-complement quantization of fl(scale·fl(factor·fl(w[j] − base[j])))
// onto the 2^-fixShift grid, round half to even. A lane whose addend is NaN,
// ±Inf or above the cap adds nothing and sets the result. Reads only w[0:n]
// and base[0:n], writes only lo[0:n] and hi[0:n]. (The Go side calls base g;
// g names a register in Go assembly.)
TEXT ·foldAVX2(SB), NOSPLIT, $0-57
	MOVQ w+16(FP), DI
	MOVQ base+24(FP), R8
	MOVQ lo+32(FP), SI
	MOVQ hi+40(FP), DX
	MOVQ n+48(FP), CX
	SHLQ $3, CX                   // bytes of w, base, lo and hi to cover
	VBROADCASTSD scale+0(FP), Y15
	VBROADCASTSD factor+8(FP), Y6
	VPXOR Y14, Y14, Y14           // lanes that saturated so far
	BROADCAST($1, X13, Y13)
	BROADCAST($const_f64SignBit, X12, Y12)
	BROADCAST($const_fixCapBits, X11, Y11)
	BROADCAST($const_f64FracMask, X10, Y10)
	BROADCAST($const_f64Implicit, X9, Y9)
	BROADCAST($const_fixExpBias, X8, Y8)
	BROADCAST($(const_fixExpBias+64), X7, Y7)
	XORQ AX, AX                   // byte offset of the current four parameters

block:
	VMOVUPD  (DI)(AX*1), Y0
	VSUBPD   (R8)(AX*1), Y0, Y0   // fl(w − base)
	VMULPD   Y6, Y0, Y0           // fl(factor·…)
	VMULPD   Y15, Y0, Y0          // b = fl(scale·…): the last float rounding
	VPANDN   Y0, Y12, Y1          // mag = b &^ sign
	VPCMPGTQ Y0, Y1, Y0           // sign mask: mag > b (signed) only where b's top bit is set
	VPCMPGTQ Y11, Y1, Y2          // mag > cap; signed compare is right, mag ≥ 0
	VPOR     Y2, Y14, Y14
	VPANDN   Y1, Y2, Y1           // a saturating lane adds ±0: e = 0 shifts m out, and −0 is ^0 + 1 = 0
	VPSRLQ   $const_f64FracBits, Y1, Y3 // e
	VPAND    Y10, Y1, Y1
	VPOR     Y9, Y1, Y1           // m, implicit bit ORed in without looking
	VPSUBQ   Y8, Y3, Y4           // s = e − bias
	VPSLLVQ  Y4, Y1, Y4           // m << s: 0 when s < 0
	VPSUBQ   Y3, Y7, Y5           // 64 − s
	VPSRLVQ  Y5, Y1, Y5           // x.hi = m >> (64−s): 0 when s ≤ 0
	VPSUBQ   Y3, Y8, Y3           // r = −s
	VPSUBQ   Y13, Y3, Y2          // r − 1
	VPSRLVQ  Y3, Y1, Y3
	VPANDN   Y13, Y3, Y3          // 1 − parity of the kept part m >> r
	VPSUBQ   Y3, Y1, Y1           // m − 1 + parity
	VPSLLVQ  Y2, Y13, Y3          // half = 1 << (r−1)
	VPADDQ   Y3, Y1, Y1           // m + half − 1 + parity (mod 2^64, any order)
	VPSRLVQ  Y2, Y1, Y1           // >> r in two steps, so that r = 0 (count −1)
	VPSRLQ   $1, Y1, Y1           // and r > 54 both come out 0
	VPOR     Y1, Y4, Y4           // x.lo: at most one of the two shifts is non-zero
	VPXOR    Y0, Y4, Y4           // ^x when negative;
	VPXOR    Y0, Y5, Y5           // the + 1 is the low add's carry in
	VMOVDQU  (SI)(AX*1), Y1
	VPADDQ   Y4, Y1, Y2
	VPSUBQ   Y0, Y2, Y2           // sum = lo + x.lo + sign
	VPAND    Y4, Y1, Y3
	VPOR     Y4, Y1, Y1
	VPANDN   Y1, Y2, Y1
	VPOR     Y3, Y1, Y1
	VPSRLQ   $63, Y1, Y1          // carry out = ((lo&x)|((lo|x)&^sum)) >> 63
	VPADDQ   (DX)(AX*1), Y5, Y5
	VPADDQ   Y1, Y5, Y5           // hi + x.hi + carry
	VMOVDQU  Y2, (SI)(AX*1)
	VMOVDQU  Y5, (DX)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  block

	VPTEST Y14, Y14
	SETNE  ret+56(FP)
	VZEROUPPER
	RET
