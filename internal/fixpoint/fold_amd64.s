#include "textflag.h"
#include "go_asm.h"

// AVX2 tier of (*Acc).AddScaledDiff (see fixpoint.go for the per-element
// operation sequence both tiers implement). Four lanes are four consecutive
// parameters; every lane performs addScaledDiffPortable's own float and
// integer operations on its own parameter, a saturating lane zeroed where the
// loop skips it (+0 adds 0 to every digit), so the digits are bit-identical
// to the Go loop's. The constants come from fixpoint.go through go_asm.h; a
// magic constant's register serves as the float and as its bits. Pointers
// are not bounds-checked here: foldVector's slicing is the only guard.

// BROADCAST fills the four lanes of reg with the 64-bit constant v. VMOVQ, not
// MOVQ: a legacy-SSE write to an X register while upper YMM halves are live
// pays a state transition, ~100 ns apiece when measured here.
#define BROADCAST(v, xreg, reg) \
	MOVQ v, AX; \
	VMOVQ AX, xreg; \
	VPBROADCASTQ xreg, reg

// func foldAVX2(scale, factor float64, w, base *float64, d0, d1, d2 *int64, n int) bool
//
// Folds n parameters (a positive multiple of 4): d0[j], d1[j] and d2[j] +=
// the digits of fl(scale·fl(factor·fl(w[j] − base[j]))) on the 2^-fixShift
// grid. A lane whose addend is NaN, ±Inf or above the cap adds nothing and
// sets the result. Reads only w and base [0:n], writes only d0, d1 and d2
// [0:n]. (The Go side calls base g; g names a register in Go assembly.)
TEXT ·foldAVX2(SB), NOSPLIT, $0-65
	MOVQ w+16(FP), DI
	MOVQ base+24(FP), R8
	MOVQ d0+32(FP), SI
	MOVQ d1+40(FP), DX
	MOVQ d2+48(FP), R9
	MOVQ n+56(FP), CX
	SHLQ $3, CX                   // bytes of each slice to cover
	VBROADCASTSD scale+0(FP), Y15
	VBROADCASTSD factor+8(FP), Y14
	VPXOR Y13, Y13, Y13           // lanes that saturated so far
	BROADCAST($const_f64SignBit, X12, Y12)
	BROADCAST($const_fixCapBits, X11, Y11)
	BROADCAST($const_fixGridBits, X10, Y10)
	BROADCAST($const_magic2Bits, X9, Y9)
	BROADCAST($const_magic1Bits, X8, Y8)
	BROADCAST($const_magic0Bits, X7, Y7)
	XORQ AX, AX                   // byte offset of the current four parameters

block:
	VMOVUPD  (DI)(AX*1), Y0
	VSUBPD   (R8)(AX*1), Y0, Y0   // fl(w − base)
	VMULPD   Y14, Y0, Y0          // fl(factor·…)
	VMULPD   Y15, Y0, Y0          // x = fl(scale·…): the last rounding before the digits
	VPANDN   Y0, Y12, Y1          // x &^ sign
	VPCMPGTQ Y11, Y1, Y1          // above the cap; signed compare is right, the sign is clear
	VPOR     Y1, Y13, Y13
	VPANDN   Y0, Y1, Y0           // a saturating lane folds +0
	VMULPD   Y10, Y0, Y0          // B = x·2^80, exact
	VADDPD   Y9, Y0, Y1           // T2 = B + c2
	VSUBPD   Y9, Y1, Y2           // H = T2 − c2
	VSUBPD   Y2, Y0, Y0           // R = B − H
	VADDPD   Y8, Y0, Y2           // T1 = R + c1
	VSUBPD   Y8, Y2, Y3           // M = T1 − c1
	VSUBPD   Y3, Y0, Y0           // L = R − M
	VADDPD   Y7, Y0, Y0           // T0 = L + c0
	VPSUBQ   Y9, Y1, Y1           // digit 2 = bits(T2) − bits(c2)
	VPADDQ   (R9)(AX*1), Y1, Y1
	VMOVDQU  Y1, (R9)(AX*1)
	VPSUBQ   Y8, Y2, Y2           // digit 1
	VPADDQ   (DX)(AX*1), Y2, Y2
	VMOVDQU  Y2, (DX)(AX*1)
	VPSUBQ   Y7, Y0, Y0           // digit 0
	VPADDQ   (SI)(AX*1), Y0, Y0
	VMOVDQU  Y0, (SI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  block

	VPTEST Y13, Y13
	SETNE  ret+64(FP)
	VZEROUPPER
	RET
