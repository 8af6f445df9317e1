#include "textflag.h"

// mul4 runs the CIOS recurrence of mont.go's mulGeneric on one fixed
// width: for each limb xi of x, MACC adds xi·y to the accumulator t and
// REDC adds m·n with m = t0·ninv, which makes the low word vanish. The
// accumulator is six registers, R8–R13, named in rotated order by each
// row, so the shift by one word costs no moves: after a row, t1..t5 are
// the next row's t0..t4, and the old t0 is free to be the next row's t5.
// No stack frame, no branch.
//
// Registers: SI = x, DI = y, R14 = n, R15 = ninv; BX holds xi, then m; CX
// is the carry word; MULQ leaves the product in DX:AX. Each product step
// adds a two-word product, the running carry and one accumulator word:
// (2⁶⁴−1)² + 2·(2⁶⁴−1) = 2¹²⁸−1, so the carry never leaves DX. The low
// word of the product goes into t first, so the carry chain from step to
// step is one ADDQ and one ADCQ long.

// MACC: t += xi·y, where xi is the word at xoff(SI).
#define MACC(xoff, t0, t1, t2, t3, t4, t5) \
	XORQ t5, t5;       \
	MOVQ xoff(SI), BX; \
	MOVQ 0(DI), AX;    \
	MULQ BX;           \
	ADDQ AX, t0;       \
	ADCQ $0, DX;       \
	MOVQ DX, CX;       \
	MOVQ 8(DI), AX;    \
	MULQ BX;           \
	ADDQ AX, t1;       \
	ADCQ $0, DX;       \
	ADDQ CX, t1;       \
	ADCQ $0, DX;       \
	MOVQ DX, CX;       \
	MOVQ 16(DI), AX;   \
	MULQ BX;           \
	ADDQ AX, t2;       \
	ADCQ $0, DX;       \
	ADDQ CX, t2;       \
	ADCQ $0, DX;       \
	MOVQ DX, CX;       \
	MOVQ 24(DI), AX;   \
	MULQ BX;           \
	ADDQ AX, t3;       \
	ADCQ $0, DX;       \
	ADDQ CX, t3;       \
	ADCQ $0, DX;       \
	ADDQ DX, t4;       \
	ADCQ $0, t5

// REDC: t += m·n with m = t0·ninv mod 2⁶⁴. The low word of m·n0 + t0 is
// zero by the choice of m, so its carry is 1 exactly when t0 ≠ 0: NEGQ
// sets CF to that and leaves t0, which is dead, to be the next t5.
#define REDC(t0, t1, t2, t3, t4, t5) \
	MOVQ  t0, BX;      \
	IMULQ R15, BX;     \
	MOVQ  0(R14), AX;  \
	MULQ  BX;          \
	NEGQ  t0;          \
	ADCQ  $0, DX;      \
	MOVQ  DX, CX;      \
	MOVQ  8(R14), AX;  \
	MULQ  BX;          \
	ADDQ  AX, t1;      \
	ADCQ  $0, DX;      \
	ADDQ  CX, t1;      \
	ADCQ  $0, DX;      \
	MOVQ  DX, CX;      \
	MOVQ  16(R14), AX; \
	MULQ  BX;          \
	ADDQ  AX, t2;      \
	ADCQ  $0, DX;      \
	ADDQ  CX, t2;      \
	ADCQ  $0, DX;      \
	MOVQ  DX, CX;      \
	MOVQ  24(R14), AX; \
	MULQ  BX;          \
	ADDQ  AX, t3;      \
	ADCQ  $0, DX;      \
	ADDQ  CX, t3;      \
	ADCQ  $0, DX;      \
	ADDQ  DX, t4;      \
	ADCQ  $0, t5

// func mul4(z, x, y, n *[4]big.Word, ninv big.Word)
TEXT ·mul4(SB), NOSPLIT, $0-40
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), R14
	MOVQ ninv+32(FP), R15

	// Row 0: t starts at zero, so xi·y is written, not added.
	MOVQ 0(SI), BX
	MOVQ 0(DI), AX
	MULQ BX
	MOVQ AX, R8
	MOVQ DX, R9
	MOVQ 8(DI), AX
	MULQ BX
	ADDQ AX, R9
	ADCQ $0, DX
	MOVQ DX, R10
	MOVQ 16(DI), AX
	MULQ BX
	ADDQ AX, R10
	ADCQ $0, DX
	MOVQ DX, R11
	MOVQ 24(DI), AX
	MULQ BX
	ADDQ AX, R11
	ADCQ $0, DX
	MOVQ DX, R12
	XORQ R13, R13
	REDC(R8, R9, R10, R11, R12, R13)
	MACC(8, R9, R10, R11, R12, R13, R8)
	REDC(R9, R10, R11, R12, R13, R8)
	MACC(16, R10, R11, R12, R13, R8, R9)
	REDC(R10, R11, R12, R13, R8, R9)
	MACC(24, R11, R12, R13, R8, R9, R10)
	REDC(R11, R12, R13, R8, R9, R10)

	// t = R12..R9 with a fifth word R10, and t < 2n: d = t − n, and the
	// borrow out of the fifth word says t < n, so keep t only then.
	MOVQ    R12, AX
	SUBQ    0(R14), AX
	MOVQ    R13, BX
	SBBQ    8(R14), BX
	MOVQ    R8, CX
	SBBQ    16(R14), CX
	MOVQ    R9, DX
	SBBQ    24(R14), DX
	SBBQ    $0, R10
	CMOVQCC AX, R12
	CMOVQCC BX, R13
	CMOVQCC CX, R8
	CMOVQCC DX, R9

	MOVQ z+0(FP), DI
	MOVQ R12, 0(DI)
	MOVQ R13, 8(DI)
	MOVQ R8, 16(DI)
	MOVQ R9, 24(DI)
	RET
