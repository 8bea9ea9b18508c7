#include "textflag.h"
#include "funcdata.h"

// AVX2 micro-kernels behind LogitsBatch, AddScaledTMul, SoftmaxRows,
// SGDUpdate, PolarScale, ExpSlice and LogSlice (see kernels.go for the
// per-output operation order they must reproduce, and exp.go for the
// sequences of Exp, Log and the polar transform; each of Exp's and Log's is
// written once here, as EXP_LANES and LOG_LANES). Vector lanes carry four
// independent outputs; every lane performs the portable code's own sequence
// of IEEE operations — VMULPD then VADDPD, never a fused multiply-add, never
// a reduction across lanes — so results are bit-identical to the Go code.
// Pointers are not bounds-checked here: the length checks in the exported
// functions are the only guard.

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7 EBX bit 5) and the OS saves
// the YMM state (leaf 1 ECX OSXSAVE+AVX, XCR0 bits 1 and 2). The kernels use
// 256-bit floating-point instructions only, which AVX already has; asking for
// AVX2 keeps them off the first AVX generations, whose 256-bit units are half
// width or slow on unaligned rows.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JLT   done
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   done
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   done
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX
	JCC   done
	MOVB  $1, ret+0(FP)
done:
	RET

// COLUMN adds one weight column (four classes in col) times that column's
// feature of each of the eight samples into the samples' accumulators.
#define COLUMN(off, col) \
	VBROADCASTSD off(AX)(R8*1), Y12; VMULPD Y12, col, Y12; VADDPD Y12, Y0, Y0; \
	VBROADCASTSD off(BX)(R8*1), Y13; VMULPD Y13, col, Y13; VADDPD Y13, Y1, Y1; \
	VBROADCASTSD off(CX)(R8*1), Y14; VMULPD Y14, col, Y14; VADDPD Y14, Y2, Y2; \
	VBROADCASTSD off(DX)(R8*1), Y15; VMULPD Y15, col, Y15; VADDPD Y15, Y3, Y3; \
	VBROADCASTSD off(SI)(R8*1), Y12; VMULPD Y12, col, Y12; VADDPD Y12, Y4, Y4; \
	VBROADCASTSD off(DI)(R8*1), Y13; VMULPD Y13, col, Y13; VADDPD Y13, Y5, Y5; \
	VBROADCASTSD off(R9)(R8*1), Y14; VMULPD Y14, col, Y14; VADDPD Y14, Y6, Y6; \
	VBROADCASTSD off(R10)(R8*1), Y15; VMULPD Y15, col, Y15; VADDPD Y15, Y7, Y7

// func logitsAVX2(w *float64, dim int, xs *[]float64, n int, bias, out *float64, classes int)
//
// Scores n samples (a positive multiple of 8, slice headers at xs) against the
// four consecutive weight rows at w (dim a positive multiple of 4):
// out[i*classes+c] = Σ_j w[c*dim+j]·xs[i][j], one accumulator per output
// summed in ascending j from +0, then + bias[c] when bias is non-nil. Lanes
// are the four classes; eight samples per pass keep eight independent add
// chains in flight.
TEXT ·logitsAVX2(SB), NOSPLIT, $24-56
	NO_LOCAL_POINTERS
	MOVQ dim+8(FP), R15
	SHLQ $3, R15               // row bytes
	MOVQ w+0(FP), R11
	ADDQ R15, R11              // end of weight row 0; R8 runs from -row bytes to 0
	LEAQ (R11)(R15*1), R12
	LEAQ (R12)(R15*1), R13
	LEAQ (R13)(R15*1), R14
	MOVQ xs+16(FP), AX
	MOVQ n+24(FP), BX
	MOVQ out+40(FP), CX
	MOVQ BX, 8(SP)             // samples left
	MOVQ CX, 16(SP)            // their first output

group:
	MOVQ AX, 0(SP)             // the group's first slice header
	MOVQ 24(AX), BX
	MOVQ 48(AX), CX
	MOVQ 72(AX), DX
	MOVQ 96(AX), SI
	MOVQ 120(AX), DI
	MOVQ 144(AX), R9
	MOVQ 168(AX), R10
	MOVQ 0(AX), AX
	ADDQ R15, AX
	ADDQ R15, BX
	ADDQ R15, CX
	ADDQ R15, DX
	ADDQ R15, SI
	ADDQ R15, DI
	ADDQ R15, R9
	ADDQ R15, R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ R15, R8
	NEGQ R8

columns:
	// Four rows × four columns, transposed so each register holds one column.
	VMOVUPD (R11)(R8*1), Y8
	VMOVUPD (R12)(R8*1), Y9
	VMOVUPD (R13)(R8*1), Y10
	VMOVUPD (R14)(R8*1), Y11
	VUNPCKLPD Y9, Y8, Y12
	VUNPCKHPD Y9, Y8, Y13
	VUNPCKLPD Y11, Y10, Y14
	VUNPCKHPD Y11, Y10, Y15
	VPERM2F128 $0x20, Y14, Y12, Y8
	VPERM2F128 $0x20, Y15, Y13, Y9
	VPERM2F128 $0x31, Y14, Y12, Y10
	VPERM2F128 $0x31, Y15, Y13, Y11
	COLUMN(0, Y8)
	COLUMN(8, Y9)
	COLUMN(16, Y10)
	COLUMN(24, Y11)
	ADDQ $32, R8
	JNZ  columns

	MOVQ bias+32(FP), AX
	TESTQ AX, AX
	JZ   store
	VMOVUPD (AX), Y8
	VADDPD Y8, Y0, Y0
	VADDPD Y8, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y8, Y3, Y3
	VADDPD Y8, Y4, Y4
	VADDPD Y8, Y5, Y5
	VADDPD Y8, Y6, Y6
	VADDPD Y8, Y7, Y7

store:
	MOVQ 16(SP), AX
	MOVQ classes+48(FP), BX
	SHLQ $3, BX                // output row bytes
	VMOVUPD Y0, (AX)
	ADDQ BX, AX
	VMOVUPD Y1, (AX)
	ADDQ BX, AX
	VMOVUPD Y2, (AX)
	ADDQ BX, AX
	VMOVUPD Y3, (AX)
	ADDQ BX, AX
	VMOVUPD Y4, (AX)
	ADDQ BX, AX
	VMOVUPD Y5, (AX)
	ADDQ BX, AX
	VMOVUPD Y6, (AX)
	ADDQ BX, AX
	VMOVUPD Y7, (AX)
	ADDQ BX, AX
	MOVQ AX, 16(SP)
	MOVQ 0(SP), AX
	ADDQ $192, AX              // eight slice headers on
	SUBQ $8, 8(SP)
	JNZ  group

	VZEROUPPER
	RET

// PAIR folds the sample pair whose feature vectors are in Y8 and Y9 into one
// gradient row's accumulator: acc + (sp_i·x_i + sp_{i+1}·x_{i+1}), with the
// two scaled probabilities read from the scratch at off(R9) and next(R9).
#define PAIR(off, next, acc) \
	VBROADCASTSD off(R9), Y12; \
	VBROADCASTSD next(R9), Y13; \
	VMULPD Y8, Y12, Y12; \
	VMULPD Y9, Y13, Y13; \
	VADDPD Y13, Y12, Y12; \
	VADDPD Y12, acc, acc

// SINGLE folds the odd last sample (features in Y8): acc + sp·x.
#define SINGLE(off, acc) \
	VBROADCASTSD off(R9), Y12; \
	VMULPD Y8, Y12, Y12; \
	VADDPD Y12, acc, acc

// func addTMul4AVX2(s float64, p *float64, classes int, xs *[]float64, n, dim int, gr *float64)
//
// Accumulates n samples (1 ≤ n ≤ 64, slice headers at xs) into the four
// consecutive gradient rows at gr (dim a positive multiple of 4):
// gr[c*dim+j] += (s·p[i*classes+c])·xs[i][j] + (s·p[(i+1)*classes+c])·xs[i+1][j]
// for the sample pairs in ascending i, then += (s·p[i*classes+c])·xs[i][j] for
// an odd last sample. Lanes are four consecutive j; the 4×4 block of the
// gradient stays in registers across all samples. The scaled probabilities
// s·p are computed once into the frame (64 samples × 4 classes).
TEXT ·addTMul4AVX2(SB), 0, $2048-56
	NO_LOCAL_POINTERS
	VBROADCASTSD s+0(FP), Y15
	MOVQ p+8(FP), SI
	MOVQ classes+16(FP), BX
	SHLQ $3, BX                // probability row bytes
	MOVQ n+32(FP), CX
	MOVQ SP, DI

scale4:
	VMULPD (SI), Y15, Y0
	VMOVUPD Y0, (DI)
	ADDQ BX, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  scale4

	MOVQ dim+40(FP), R15
	SHLQ $3, R15               // row bytes
	MOVQ gr+48(FP), R11
	LEAQ (R11)(R15*1), R12
	LEAQ (R12)(R15*1), R13
	LEAQ (R13)(R15*1), R14
	MOVQ n+32(FP), R10
	SHRQ $1, R10               // sample pairs
	XORQ R8, R8                // byte offset of the current four columns

tile4:
	VMOVUPD (R11)(R8*1), Y0
	VMOVUPD (R12)(R8*1), Y1
	VMOVUPD (R13)(R8*1), Y2
	VMOVUPD (R14)(R8*1), Y3
	MOVQ xs+24(FP), AX
	MOVQ SP, R9
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   odd4

pair4:
	MOVQ 0(AX), BX
	MOVQ 24(AX), DX
	VMOVUPD (BX)(R8*1), Y8
	VMOVUPD (DX)(R8*1), Y9
	PAIR(0, 32, Y0)
	PAIR(8, 40, Y1)
	PAIR(16, 48, Y2)
	PAIR(24, 56, Y3)
	ADDQ $48, AX
	ADDQ $64, R9
	DECQ CX
	JNZ  pair4

odd4:
	BTQ  $0, n+32(FP)
	JCC  store4
	MOVQ 0(AX), BX
	VMOVUPD (BX)(R8*1), Y8
	SINGLE(0, Y0)
	SINGLE(8, Y1)
	SINGLE(16, Y2)
	SINGLE(24, Y3)

store4:
	VMOVUPD Y0, (R11)(R8*1)
	VMOVUPD Y1, (R12)(R8*1)
	VMOVUPD Y2, (R13)(R8*1)
	VMOVUPD Y3, (R14)(R8*1)
	ADDQ $32, R8
	CMPQ R8, R15
	JLT  tile4

	VZEROUPPER
	RET

// func addTMul2AVX2(s float64, p *float64, classes int, xs *[]float64, n, dim int, gr *float64)
//
// addTMul4AVX2 for the two gradient rows at gr (the 2-class tail block of an
// even class count that is not a multiple of 4); the scratch holds 64 × 2.
TEXT ·addTMul2AVX2(SB), 0, $1024-56
	NO_LOCAL_POINTERS
	VMOVDDUP s+0(FP), X15
	MOVQ p+8(FP), SI
	MOVQ classes+16(FP), BX
	SHLQ $3, BX
	MOVQ n+32(FP), CX
	MOVQ SP, DI

scale2:
	VMULPD (SI), X15, X0
	VMOVUPD X0, (DI)
	ADDQ BX, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  scale2

	MOVQ dim+40(FP), R15
	SHLQ $3, R15
	MOVQ gr+48(FP), R11
	LEAQ (R11)(R15*1), R12
	MOVQ n+32(FP), R10
	SHRQ $1, R10
	XORQ R8, R8

tile2:
	VMOVUPD (R11)(R8*1), Y0
	VMOVUPD (R12)(R8*1), Y1
	MOVQ xs+24(FP), AX
	MOVQ SP, R9
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   odd2

pair2:
	MOVQ 0(AX), BX
	MOVQ 24(AX), DX
	VMOVUPD (BX)(R8*1), Y8
	VMOVUPD (DX)(R8*1), Y9
	PAIR(0, 16, Y0)
	PAIR(8, 24, Y1)
	ADDQ $48, AX
	ADDQ $32, R9
	DECQ CX
	JNZ  pair2

odd2:
	BTQ  $0, n+32(FP)
	JCC  store2
	MOVQ 0(AX), BX
	VMOVUPD (BX)(R8*1), Y8
	SINGLE(0, Y0)
	SINGLE(8, Y1)

store2:
	VMOVUPD Y0, (R11)(R8*1)
	VMOVUPD Y1, (R12)(R8*1)
	ADDQ $32, R8
	CMPQ R8, R15
	JLT  tile2

	VZEROUPPER
	RET

// LANES writes one float64 bit pattern to the four lanes of a 32-byte entry
// of a constant table.
#define LANES(name, off, bits) \
	DATA name<>+(off)(SB)/8, $bits; \
	DATA name<>+(off+8)(SB)/8, $bits; \
	DATA name<>+(off+16)(SB)/8, $bits; \
	DATA name<>+(off+24)(SB)/8, $bits

// The constants of the softmax kernel: its range bound and those of Exp
// (exp.go).
LANES(expc, 0, 0x7fffffffffffffff)   // |x| mask
LANES(expc, 32, 0xc086200000000000)  // -708
LANES(expc, 64, 0x3e30000000000000)  // 2^-28
LANES(expc, 96, 0x3fe0000000000000)  // 0.5
LANES(expc, 128, 0x3ff71547652b82fe) // Log2e
LANES(expc, 160, 0x3fe62e42fee00000) // Ln2Hi
LANES(expc, 192, 0x3dea39ef35793c76) // Ln2Lo
LANES(expc, 224, 0x3e66376972bea4d0) // P5
LANES(expc, 256, 0xbebbbd41c5d26bf1) // P4
LANES(expc, 288, 0x3f11566aaf25de2c) // P3
LANES(expc, 320, 0xbf66c16c16bebd93) // P2
LANES(expc, 352, 0x3fc5555555555555) // P1
LANES(expc, 384, 0x3ff0000000000000) // 1
LANES(expc, 416, 0x4000000000000000) // 2
LANES(expc, 448, 0x8000000000000000) // sign bit
LANES(expc, 480, 0x4086200000000000) // 708
GLOBL expc<>(SB), RODATA|NOPTR, $512

// LOADCOL gathers the element at ptr of four consecutive rows (R9 bytes
// apart, R10 = 3·R9) into the lanes of y, whose low half is x; xt is scratch.
#define LOADCOL(ptr, x, y, xt) \
	VMOVSD (ptr), x; \
	VMOVHPD (ptr)(R9*1), x, x; \
	VMOVSD (ptr)(R9*2), xt; \
	VMOVHPD (ptr)(R10*1), xt, xt; \
	VINSERTF128 $1, xt, y, y

// STORECOL scatters the lanes of y (low half x) back to where LOADCOL
// gathered them from.
#define STORECOL(ptr, x, y, xt) \
	VMOVSD x, (ptr); \
	VMOVHPD x, (ptr)(R9*1); \
	VEXTRACTF128 $1, y, xt; \
	VMOVSD xt, (ptr)(R9*2); \
	VMOVHPD xt, (ptr)(R10*1)

// EXP_LANES is Exp's sequence (exp.go) in each lane of Y2, for |x| ≤ 708,
// where the result is a normal number; it leaves Exp(x) in Y11. Lanes where
// |x| < 2^-28 take 1 + x. Elsewhere k = trunc(Log2e·x ± 0.5), the half
// taking x's sign, and y·2^k adds k to the exponent field of y. ROUND is
// the step that adds the half to Y4 = Log2e·x: EXP_ROUND_SIGNED for any x,
// or EXP_ROUND_DOWN when every lane that keeps its k holds an x < 0. Y14
// must hold 2 and Y15 1; Y2–Y12 are clobbered.
#define EXP_LANES(ROUND) \
	VANDPD expc<>+0(SB), Y2, Y3          /* |x| */ \
	VCMPPD $0x11, expc<>+64(SB), Y3, Y3  /* |x| < 2^-28: the lanes that return 1 + x */ \
	VMULPD expc<>+128(SB), Y2, Y4        /* Log2e·x */ \
	ROUND                                /* Log2e·x ± 0.5 */ \
	VCVTTPD2DQY Y4, X4                   /* k, truncated */ \
	VCVTDQ2PD X4, Y5                     /* float64(k) */ \
	VMULPD expc<>+160(SB), Y5, Y6        /* k·Ln2Hi */ \
	VSUBPD Y6, Y2, Y6                    /* hi = x − k·Ln2Hi */ \
	VMULPD expc<>+192(SB), Y5, Y7        /* lo = k·Ln2Lo */ \
	VSUBPD Y7, Y6, Y8                    /* r = hi − lo */ \
	VMULPD Y8, Y8, Y9                    /* r·r */ \
	VMULPD expc<>+224(SB), Y9, Y10       /* r·r·P5 */ \
	VADDPD expc<>+256(SB), Y10, Y10      /* P4 + r·r·P5 */ \
	VMULPD Y10, Y9, Y10 \
	VADDPD expc<>+288(SB), Y10, Y10      /* P3 + r·r·(…) */ \
	VMULPD Y10, Y9, Y10 \
	VADDPD expc<>+320(SB), Y10, Y10      /* P2 + r·r·(…) */ \
	VMULPD Y10, Y9, Y10 \
	VADDPD expc<>+352(SB), Y10, Y10      /* P1 + r·r·(…) */ \
	VMULPD Y10, Y9, Y10 \
	VSUBPD Y10, Y8, Y10                  /* c = r − r·r·(…) */ \
	VMULPD Y10, Y8, Y11                  /* r·c */ \
	VSUBPD Y10, Y14, Y12                 /* 2 − c */ \
	VDIVPD Y12, Y11, Y11                 /* r·c/(2 − c) */ \
	VSUBPD Y11, Y7, Y11                  /* lo − r·c/(2 − c) */ \
	VSUBPD Y6, Y11, Y11                  /* (…) − hi */ \
	VSUBPD Y11, Y15, Y11                 /* y = 1 − (…) */ \
	VPMOVSXDQ X4, Y4 \
	VPSLLQ $52, Y4, Y4 \
	VPADDQ Y4, Y11, Y11                  /* y·2^k: k added to the exponent field */ \
	VADDPD Y15, Y2, Y2                   /* 1 + x */ \
	VBLENDVPD Y3, Y2, Y11, Y11

// EXP_ROUND_SIGNED adds copysign(0.5, x) to Y4; Y5 is scratch.
#define EXP_ROUND_SIGNED \
	VANDPD expc<>+448(SB), Y2, Y5        /* x's sign */ \
	VORPD expc<>+96(SB), Y5, Y5          /* copysign(0.5, x) */ \
	VADDPD Y5, Y4, Y4

// EXP_ROUND_DOWN subtracts 0.5 from Y4: Exp's step for x < 0.
#define EXP_ROUND_DOWN VSUBPD expc<>+96(SB), Y4, Y4

// func softmaxAVX2(p *float64, cols, groups int, maxes, sums *float64) int
//
// Runs the softmax of groups × 4 consecutive rows of cols elements at p, four
// rows per pass, one row per lane, each lane performing SoftmaxRows's own
// sequence (kernels.go) in three passes over the columns:
//
//  1. m = VMAXPD(x_j, m), j ascending from m = x_0: x_j > m ? x_j : m, which
//     is the portable comparison, NaN and ±0 included. The same pass keeps
//     the row minimum and whether any element is NaN.
//  2. e_j = Exp(x_j − m) by Exp's own sequence (exp.go), stored over x_j, and
//     sum += e_j from +0, j ascending.
//  3. With sums nil, e_j·(1/sum) stored over e_j. Otherwise the rows' m and
//     sum go to maxes and sums, four per group, for LogSumExp to finish.
//
// A group where any element is NaN or min − m is not ≥ −708 (a spread beyond
// 708, ±Inf) is left untouched: the kernel stops before it and returns how
// many groups it finished. In every group it does run, t = x − m lies in
// [−708, 0], where Exp's result is a normal number, so EXP_LANES needs no
// range check, and no sign: it rounds with EXP_ROUND_DOWN, and the lanes
// where t is ±0 take 1 + t.
TEXT ·softmaxAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ cols+8(FP), R9
	SHLQ $3, R9                          // row bytes
	LEAQ (R9)(R9*2), R10
	MOVQ groups+16(FP), BX
	MOVQ maxes+24(FP), R12
	MOVQ sums+32(FP), R13
	XORQ AX, AX
	VMOVUPD expc<>+384(SB), Y15          // 1
	VMOVUPD expc<>+416(SB), Y14          // 2

group:
	LEAQ (DI)(R9*1), R11                 // end of the group's first row
	LOADCOL(DI, X0, Y0, X13)             // m
	VMOVAPD Y0, Y1                       // min
	VCMPPD $3, Y0, Y0, Y2                // NaN lanes
	LEAQ 8(DI), R8
	CMPQ R8, R11
	JAE  bounds

maxcol:
	LOADCOL(R8, X3, Y3, X13)
	VMAXPD Y0, Y3, Y0                    // m = x > m ? x : m
	VMINPD Y1, Y3, Y1
	VCMPPD $3, Y3, Y3, Y4
	VORPD Y4, Y2, Y2
	ADDQ $8, R8
	CMPQ R8, R11
	JB   maxcol

bounds:
	VSUBPD Y0, Y1, Y1                    // min − m
	VCMPPD $0x19, expc<>+32(SB), Y1, Y1  // !(min − m >= −708): beyond the range, or NaN
	VORPD Y2, Y1, Y1
	VMOVMSKPD Y1, DX
	TESTL DX, DX
	JNZ  done

	VXORPD Y1, Y1, Y1                    // sum = +0
	MOVQ DI, R8

expcol:
	LOADCOL(R8, X2, Y2, X13)
	VSUBPD Y0, Y2, Y2                    // t = x − m
	EXP_LANES(EXP_ROUND_DOWN)            // e
	VADDPD Y11, Y1, Y1                   // sum += e
	STORECOL(R8, X11, Y11, X13)
	ADDQ $8, R8
	CMPQ R8, R11
	JB   expcol

	TESTQ R13, R13
	JZ   scale
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, (R13)
	ADDQ $32, R12
	ADDQ $32, R13
	JMP  next

scale:
	VDIVPD Y1, Y15, Y1                   // 1/sum
	MOVQ DI, R8

scalecol:
	LOADCOL(R8, X2, Y2, X13)
	VMULPD Y1, Y2, Y2                    // e·(1/sum)
	STORECOL(R8, X2, Y2, X13)
	ADDQ $8, R8
	CMPQ R8, R11
	JB   scalecol

next:
	LEAQ (DI)(R9*4), DI                  // the next four rows
	INCQ AX
	CMPQ AX, BX
	JB   group

done:
	MOVQ AX, ret+40(FP)
	VZEROUPPER
	RET

// func sgdUpdateAVX2(w, grad *float64, n int, mu, lr float64)
//
// SGDUpdate's step on the n elements at w (n a positive multiple of 4), four
// per pass, one element per lane: w − fl(fl(fl(w·mu) + grad)·lr) by the Go
// loop's own VMULPD, VADDPD, VMULPD, VSUBPD. Each instruction's first source
// operand is the Go loop's first operand — w, fl(mu·w), the sum, w — because
// that operand's payload is what a NaN pair propagates.
TEXT ·sgdUpdateAVX2(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD mu+24(FP), Y14
	VBROADCASTSD lr+32(FP), Y15

update:
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y2
	VMULPD  Y14, Y0, Y1                  // w·mu
	VADDPD  Y2, Y1, Y1                   // mu·w + grad
	VMULPD  Y15, Y1, Y1                  // (mu·w + grad)·lr
	VSUBPD  Y1, Y0, Y0                   // w − (mu·w + grad)·lr
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, CX
	JNZ  update

	VZEROUPPER
	RET

// The constants of the polar transform: its range bounds and those of Log
// (exp.go) that the softmax kernel's table does not already hold.
LANES(logc, 0, 0x000fffffffffffff)   // fraction mask
LANES(logc, 32, 0x3fe6a09e667f3bcd)  // √2/2
LANES(logc, 64, 0x0010000000000000)  // 2^-1022, the least normal number
LANES(logc, 96, 0x0010000000000000)  // 1 << 52, the exponent field's unit
LANES(logc, 128, 0x4330000000000000) // 2^52
LANES(logc, 160, 0x43300000000003fe) // 2^52 + 1022
LANES(logc, 192, 0x3fe5555555555593) // L1
LANES(logc, 224, 0x3fd999999997fa04) // L2
LANES(logc, 256, 0x3fd2492494229359) // L3
LANES(logc, 288, 0x3fcc71c51d8e78af) // L4
LANES(logc, 320, 0x3fc7466496cb03de) // L5
LANES(logc, 352, 0x3fc39a09d078c69f) // L6
LANES(logc, 384, 0x3fc2f112df3e5244) // L7
LANES(logc, 416, 0xc000000000000000) // -2
LANES(logc, 448, 0x7ff0000000000000) // +Inf
GLOBL logc<>(SB), RODATA|NOPTR, $480

// LOG_LANES is Log's sequence (exp.go) in each lane of Y0, for x a positive
// normal number; it leaves Log(x) in Y8 and x in Y0. The split x = f1·2^ki
// takes f1 from x's fraction bits under the exponent of 1/2 and ki from its
// exponent field; where f1 < √2/2, f1 is doubled by adding 1 to its exponent
// field and ki decremented. k = ki converts to a double exactly as
// (2^52 + biased exponent) − (2^52 + 1022). Y1–Y10 are clobbered.
#define LOG_LANES \
	VANDPD logc<>+0(SB), Y0, Y1          /* x's fraction bits */ \
	VORPD expc<>+96(SB), Y1, Y1          /* f1 in [1/2, 1): under the exponent of 0.5 */ \
	VPSRLQ $52, Y0, Y2                   /* biased exponent e = ki + 1022 */ \
	VCMPPD $0x11, logc<>+32(SB), Y1, Y3  /* f1 < √2/2: the lanes that double f1 */ \
	VANDPD logc<>+96(SB), Y3, Y4 \
	VPADDQ Y4, Y1, Y1                    /* 2·f1 there: 1 added to the exponent field */ \
	VSUBPD expc<>+384(SB), Y1, Y1        /* f = f1 − 1 */ \
	VPSRLQ $63, Y3, Y3                   /* d = 1 where doubled, else 0 */ \
	VPSUBQ Y3, Y2, Y2                    /* e − d */ \
	VPOR logc<>+128(SB), Y2, Y2          /* 2^52 + e − d */ \
	VSUBPD logc<>+160(SB), Y2, Y2        /* k = e − d − 1022 */ \
	VADDPD expc<>+416(SB), Y1, Y5        /* 2 + f */ \
	VDIVPD Y5, Y1, Y5                    /* s = f/(2 + f) */ \
	VMULPD Y5, Y5, Y6                    /* s2 = s·s */ \
	VMULPD Y6, Y6, Y7                    /* s4 = s2·s2 */ \
	VMULPD logc<>+384(SB), Y7, Y8        /* s4·L7 */ \
	VADDPD logc<>+320(SB), Y8, Y8        /* L5 + s4·L7 */ \
	VMULPD Y8, Y7, Y8 \
	VADDPD logc<>+256(SB), Y8, Y8        /* L3 + s4·(…) */ \
	VMULPD Y8, Y7, Y8 \
	VADDPD logc<>+192(SB), Y8, Y8        /* L1 + s4·(…) */ \
	VMULPD Y8, Y6, Y8                    /* t1 = s2·(…) */ \
	VMULPD logc<>+352(SB), Y7, Y9        /* s4·L6 */ \
	VADDPD logc<>+288(SB), Y9, Y9        /* L4 + s4·L6 */ \
	VMULPD Y9, Y7, Y9 \
	VADDPD logc<>+224(SB), Y9, Y9        /* L2 + s4·(…) */ \
	VMULPD Y9, Y7, Y9                    /* t2 = s4·(…) */ \
	VADDPD Y9, Y8, Y8                    /* R = t1 + t2 */ \
	VMULPD expc<>+96(SB), Y1, Y9         /* 0.5·f */ \
	VMULPD Y1, Y9, Y9                    /* hfsq = (0.5·f)·f */ \
	VADDPD Y8, Y9, Y8                    /* hfsq + R */ \
	VMULPD Y8, Y5, Y8                    /* s·(hfsq + R) */ \
	VMULPD expc<>+192(SB), Y2, Y10       /* k·Ln2Lo */ \
	VADDPD Y10, Y8, Y8                   /* s·(hfsq + R) + k·Ln2Lo */ \
	VSUBPD Y8, Y9, Y8                    /* hfsq − (…) */ \
	VSUBPD Y1, Y8, Y8                    /* (…) − f */ \
	VMULPD expc<>+160(SB), Y2, Y10       /* k·Ln2Hi */ \
	VSUBPD Y8, Y10, Y8                   /* Log(x) = k·Ln2Hi − (…) */

// func polarScaleAVX2(u, s *float64, groups int) int
//
// PolarScale on groups × 4 consecutive elements at u and s, four per pass,
// one element per lane: u·Sqrt((−2·Log(s))/s), with LOG_LANES and then
// VMULPD, VDIVPD, VSQRTPD, VMULPD.
//
// A group where any s is not in [2^-1022, 1) (NaN included) is left
// untouched: the kernel stops before it and returns how many groups it
// finished. In every group it does run, Log(s) is finite and not positive
// and the square root's operand is not negative, so no lane makes a NaN of
// its own: a NaN result is u's, the one NaN operand of the last product.
TEXT ·polarScaleAVX2(SB), NOSPLIT, $0-32
	MOVQ u+0(FP), DI
	MOVQ s+8(FP), SI
	MOVQ groups+16(FP), BX
	XORQ AX, AX

group:
	VMOVUPD (SI), Y0                     // s
	VCMPPD $0x19, logc<>+64(SB), Y0, Y1  // !(s >= 2^-1022): subnormal, ≤ 0 or NaN
	VCMPPD $0x15, expc<>+384(SB), Y0, Y2 // !(s < 1)
	VORPD Y2, Y1, Y1
	VMOVMSKPD Y1, DX
	TESTL DX, DX
	JNZ  done

	LOG_LANES                            // Log(s)
	VMULPD logc<>+416(SB), Y8, Y8        // −2·Log(s)
	VDIVPD Y0, Y8, Y8                    // (−2·Log(s))/s
	VSQRTPD Y8, Y8
	VMOVUPD (DI), Y9
	VMULPD Y8, Y9, Y9                    // u·Sqrt(…)
	VMOVUPD Y9, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	INCQ AX
	CMPQ AX, BX
	JB   group

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func expAVX2(x *float64, groups int) int
//
// ExpSlice on groups × 4 consecutive elements at x, in place, four per pass:
// EXP_LANES. A group where any |x| is not ≤ 708 (±Inf and NaN included) is
// left untouched: the kernel stops before it and returns how many groups it
// finished.
TEXT ·expAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ groups+8(FP), BX
	XORQ AX, AX
	VMOVUPD expc<>+384(SB), Y15          // 1
	VMOVUPD expc<>+416(SB), Y14          // 2

group:
	VMOVUPD (DI), Y2
	VANDPD expc<>+0(SB), Y2, Y3          // |x|
	VCMPPD $0x16, expc<>+480(SB), Y3, Y3 // !(|x| <= 708): beyond, ±Inf or NaN
	VMOVMSKPD Y3, DX
	TESTL DX, DX
	JNZ  done
	EXP_LANES(EXP_ROUND_SIGNED)
	VMOVUPD Y11, (DI)
	ADDQ $32, DI
	INCQ AX
	CMPQ AX, BX
	JB   group

done:
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET

// func logAVX2(x *float64, groups int) int
//
// LogSlice on groups × 4 consecutive elements at x, in place, four per pass:
// LOG_LANES. A group where any x is not in [2^-1022, +Inf) — zero, a
// subnormal, a negative, +Inf or NaN — is left untouched: the kernel stops
// before it and returns how many groups it finished.
TEXT ·logAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ groups+8(FP), BX
	XORQ AX, AX

group:
	VMOVUPD (DI), Y0
	VCMPPD $0x19, logc<>+64(SB), Y0, Y1  // !(x >= 2^-1022): subnormal, ≤ 0 or NaN
	VCMPPD $0x15, logc<>+448(SB), Y0, Y2 // !(x < +Inf)
	VORPD Y2, Y1, Y1
	VMOVMSKPD Y1, DX
	TESTL DX, DX
	JNZ  done
	LOG_LANES
	VMOVUPD Y8, (DI)
	ADDQ $32, DI
	INCQ AX
	CMPQ AX, BX
	JB   group

done:
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET
