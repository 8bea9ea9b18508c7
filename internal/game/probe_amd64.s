#include "textflag.h"

// AVX2 tier of Solver.probeRange (see engine.go for the per-client operation
// sequence both tiers implement). Four lanes are four consecutive clients;
// every lane performs the Go loop's own IEEE operations in the Go loop's
// order — math.Cbrt's fdlibm sequence ($GOROOT/src/math/cbrt.go) included,
// VMULPD then VADDPD, never a fused multiply-add — and the spend is the Go
// loop's one chain of additions, lane by lane in index order, so every q, term
// and spend bit equals the scalar loop's. Pointers are not bounds-checked
// here: spendVector's length checks are the only guard.

#define CONST4(name, off, bits) \
	DATA name<>+(off)(SB)/8, $bits; \
	DATA name<>+(off+8)(SB)/8, $bits; \
	DATA name<>+(off+16)(SB)/8, $bits; \
	DATA name<>+(off+24)(SB)/8, $bits

CONST4(cbrtc, 0, 0x3FE15F15F15F15F1)   // C = 19/35
CONST4(cbrtc, 32, 0xBFE691DE2532C834)  // D = -864/1225
CONST4(cbrtc, 64, 0x3FF6A0EA0EA0EA0F)  // E = 99/70
CONST4(cbrtc, 96, 0x3FF9B6DB6DB6DB6E)  // F = 45/28
CONST4(cbrtc, 128, 0x3FD6DB6DB6DB6DB7) // G = 5/14
CONST4(cbrtc, 160, 0x0010000000000000) // SmallestNormal = 2^-1022
CONST4(cbrtc, 192, 0x7FF0000000000000) // +Inf
CONST4(cbrtc, 224, 0x00000000AAAAAAAB) // ⌈2^33/3⌉: x/3 = (x·this)>>33 for any 32-bit x
CONST4(cbrtc, 256, 0x0000000055555555) // (2^32 − 1)/3
CONST4(cbrtc, 288, 0x00000000FFFFFFFF) // the low 32 bits
CONST4(cbrtc, 320, 0x0000000000000002)
CONST4(cbrtc, 352, 0x000000002A9F7893) // B1 = (682 − 0.03306235651)·2^20
CONST4(cbrtc, 384, 0xFFFFFFFFC0000000) // the 22-bit chop, 0xFFFFFFFFC<<28
CONST4(cbrtc, 416, 0x0000000040000000) // 1<<30
CONST4(cbrtc, 448, 0x4000000000000000) // 2.0
GLOBL cbrtc<>(SB), RODATA|NOPTR, $480

// func spendAVX2(q, coef, gain, c, v, terms *float64, groups int, u, qMin, qMax, spend float64) (done int, sum float64)
//
// For λ > 0, u = 1/λ, runs probeRange's body on groups × 4 consecutive
// clients, four per pass, one client per lane:
//
//	slack = u − v; x = coef·slack
//	y = Cbrt(x)                                  (math.Cbrt's sequence)
//	q = y > qMax ? qMax : y; q = y < qMin ? qMin : q; q = slack ≤ 0 ? qMin : q
//	term = ((2·c)·q − gain/(q·q))·q
//
// stores q (and term, when terms is not nil) and adds the terms to spend one
// at a time in index order. A group where some lane has slack > 0 (or NaN)
// and an x outside [2^-1022, +Inf) — Cbrt's special branches: zero, subnormal,
// Inf, NaN, and the negative x the sign branch takes — or where some term is
// NaN is left untouched: the kernel stops before it and returns how many
// groups it finished and the spend after them. Declining NaN terms keeps the
// NaN payloads of the chain out of the kernel's hands.
TEXT ·spendAVX2(SB), NOSPLIT, $0-104
	MOVQ q+0(FP), DI
	MOVQ coef+8(FP), SI
	MOVQ gain+16(FP), DX
	MOVQ c+24(FP), R8
	MOVQ v+32(FP), R9
	MOVQ terms+40(FP), R10
	MOVQ groups+48(FP), BX
	VBROADCASTSD u+56(FP), Y13
	VBROADCASTSD qMin+64(FP), Y14
	VBROADCASTSD qMax+72(FP), Y15
	VMOVSD spend+80(FP), X9
	VXORPD Y12, Y12, Y12
	XORQ AX, AX                          // groups finished
	XORQ CX, CX                          // byte offset of the current four clients
	TESTQ BX, BX
	JZ   out

group:
	VMOVUPD (R9)(CX*1), Y0
	VSUBPD Y0, Y13, Y11                  // slack = u − v
	VMULPD (SI)(CX*1), Y11, Y0           // x = coef·slack
	VCMPPD $0x12, Y12, Y11, Y11          // slack ≤ 0: the lanes that take qMin
	VCMPPD $0x19, cbrtc<>+160(SB), Y0, Y1 // !(x ≥ 2^-1022): zero, subnormal, negative or NaN
	VCMPPD $0x15, cbrtc<>+192(SB), Y0, Y2 // !(x < +Inf)
	VORPD Y2, Y1, Y1
	VANDNPD Y1, Y11, Y10                 // declined lanes so far: bad x where slack > 0 or NaN

	// t = Float64frombits(Float64bits(x)/3 + B1<<32). With b = h·2^32 + l
	// and m = h mod 3: b/3 = (h/3)·2^32 + m·0x55555555 + l/3 + [m + l mod 3 ≥ 3].
	VPSRLQ $32, Y0, Y1                   // h
	VPMULUDQ cbrtc<>+224(SB), Y1, Y2
	VPSRLQ $33, Y2, Y2                   // h/3
	VPMULUDQ cbrtc<>+224(SB), Y0, Y3
	VPSRLQ $33, Y3, Y3                   // l/3
	VPSLLQ $1, Y2, Y4
	VPADDQ Y2, Y4, Y4                    // 3·(h/3)
	VPSUBQ Y4, Y1, Y1                    // m = h mod 3
	VPAND cbrtc<>+288(SB), Y0, Y4        // l
	VPSLLQ $1, Y3, Y5
	VPADDQ Y3, Y5, Y5                    // 3·(l/3)
	VPSUBQ Y5, Y4, Y4                    // l mod 3
	VPADDQ Y1, Y4, Y4
	VPCMPGTQ cbrtc<>+320(SB), Y4, Y4     // m + l mod 3 > 2: the carry, as −1
	VPMULUDQ cbrtc<>+256(SB), Y1, Y1     // m·0x55555555
	VPADDQ cbrtc<>+352(SB), Y2, Y2       // h/3 + B1
	VPSLLQ $32, Y2, Y2
	VPADDQ Y1, Y2, Y2
	VPADDQ Y3, Y2, Y2
	VPSUBQ Y4, Y2, Y2                    // t

	// New cbrt to 23 bits: t *= G + F/(s+E+D/s), s = C + r·t, r = t·t/x.
	VMULPD Y2, Y2, Y3
	VDIVPD Y0, Y3, Y3                    // r = t·t/x
	VMULPD Y2, Y3, Y3
	VADDPD cbrtc<>+0(SB), Y3, Y3         // s = C + r·t
	VADDPD cbrtc<>+64(SB), Y3, Y4        // s + E
	VMOVUPD cbrtc<>+32(SB), Y5
	VDIVPD Y3, Y5, Y5                    // D/s
	VADDPD Y5, Y4, Y4                    // (s + E) + D/s
	VMOVUPD cbrtc<>+96(SB), Y5
	VDIVPD Y4, Y5, Y5                    // F/(…)
	VADDPD cbrtc<>+128(SB), Y5, Y5       // G + F/(…)
	VMULPD Y5, Y2, Y2                    // t·(…)

	// Chop to 22 bits, then one Newton step.
	VPAND cbrtc<>+384(SB), Y2, Y2
	VPADDQ cbrtc<>+416(SB), Y2, Y2
	VMULPD Y2, Y2, Y3                    // s = t·t
	VDIVPD Y3, Y0, Y3                    // r = x/s
	VADDPD Y2, Y2, Y4                    // w = t + t
	VSUBPD Y2, Y3, Y5                    // r − t
	VADDPD Y3, Y4, Y4                    // w + r
	VDIVPD Y4, Y5, Y5                    // r = (r − t)/(w + r)
	VMULPD Y5, Y2, Y5                    // t·r
	VADDPD Y5, Y2, Y2                    // y = t + t·r

	// clamp(y, qMin, qMax): the masks are y's, so the later blend wins
	// exactly as clamp's earlier test does; slack ≤ 0 overrides both.
	VCMPPD $0x1E, Y15, Y2, Y3            // y > qMax
	VCMPPD $0x11, Y14, Y2, Y4            // y < qMin
	VBLENDVPD Y3, Y15, Y2, Y2
	VBLENDVPD Y4, Y14, Y2, Y2
	VBLENDVPD Y11, Y14, Y2, Y2           // q

	// term = eq17Price(c, gain, q)·q = ((2·c)·q − gain/(q·q))·q.
	VMOVUPD (R8)(CX*1), Y3
	VMULPD cbrtc<>+448(SB), Y3, Y3       // 2·c
	VMULPD Y2, Y3, Y3                    // (2·c)·q
	VMULPD Y2, Y2, Y4                    // q·q
	VMOVUPD (DX)(CX*1), Y5
	VDIVPD Y4, Y5, Y5                    // gain/(q·q)
	VSUBPD Y5, Y3, Y3
	VMULPD Y2, Y3, Y3                    // term
	VCMPPD $0x03, Y3, Y3, Y4             // NaN terms
	VORPD Y4, Y10, Y10
	VMOVMSKPD Y10, R11
	TESTL R11, R11
	JNZ  out

	VMOVUPD Y2, (DI)(CX*1)
	TESTQ R10, R10
	JZ   chain
	VMOVUPD Y3, (R10)(CX*1)

chain:
	VADDSD X3, X9, X9                    // spend += term, clients 0 to 3 of the group
	VPERMILPD $1, X3, X4
	VADDSD X4, X9, X9
	VEXTRACTF128 $1, Y3, X3
	VADDSD X3, X9, X9
	VPERMILPD $1, X3, X4
	VADDSD X4, X9, X9
	ADDQ $32, CX
	INCQ AX
	CMPQ AX, BX
	JB   group

out:
	MOVQ AX, done+88(FP)
	VMOVSD X9, sum+96(FP)
	VZEROUPPER
	RET
