#include "textflag.h"

// func cpuHasAES() bool
//
// CPUID leaf 1, ECX: AES-NI (bit 25) and SSSE3 (bit 9), for the PSHUFB
// of the MMO kernel's doubling and of the key schedule.
TEXT ·cpuHasAES(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x02000200, CX
	CMPL CX, $0x02000200
	SETEQ ret+0(FP)
	RET

// AESROUND applies one AESENC round key (in X8) to all eight states.
#define AESROUND(off) \
	MOVUPS off(AX), X8  \
	AESENC X8, X0       \
	AESENC X8, X1       \
	AESENC X8, X2       \
	AESENC X8, X3       \
	AESENC X8, X4       \
	AESENC X8, X5       \
	AESENC X8, X6       \
	AESENC X8, X7

// func encryptBlocks8Asm(rk *byte, dst, src *Block)
TEXT ·encryptBlocks8Asm(SB), NOSPLIT, $0-24
	MOVQ rk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI

	MOVUPS 0(SI), X0
	MOVUPS 16(SI), X1
	MOVUPS 32(SI), X2
	MOVUPS 48(SI), X3
	MOVUPS 64(SI), X4
	MOVUPS 80(SI), X5
	MOVUPS 96(SI), X6
	MOVUPS 112(SI), X7

	MOVUPS 0(AX), X8
	PXOR   X8, X0
	PXOR   X8, X1
	PXOR   X8, X2
	PXOR   X8, X3
	PXOR   X8, X4
	PXOR   X8, X5
	PXOR   X8, X6
	PXOR   X8, X7

	AESROUND(16)
	AESROUND(32)
	AESROUND(48)
	AESROUND(64)
	AESROUND(80)
	AESROUND(96)
	AESROUND(112)
	AESROUND(128)
	AESROUND(144)

	MOVUPS      160(AX), X8
	AESENCLAST  X8, X0
	AESENCLAST  X8, X1
	AESENCLAST  X8, X2
	AESENCLAST  X8, X3
	AESENCLAST  X8, X4
	AESENCLAST  X8, X5
	AESENCLAST  X8, X6
	AESENCLAST  X8, X7

	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	RET

// rotWord is the PSHUFB mask that fills every 32-bit lane with
// RotWord of the key's last word (bytes 13, 14, 15, 12).
DATA rotWord<>+0x00(SB)/8, $0x0c0f0e0d0c0f0e0d
DATA rotWord<>+0x08(SB)/8, $0x0c0f0e0d0c0f0e0d
GLOBL rotWord<>(SB), (NOPTR+RODATA), $16

// rcon holds the ten AES-128 round constants, each in every lane's low
// byte, one 16-byte row per round.
DATA rcon<>+0x00(SB)/8, $0x0000000100000001
DATA rcon<>+0x08(SB)/8, $0x0000000100000001
DATA rcon<>+0x10(SB)/8, $0x0000000200000002
DATA rcon<>+0x18(SB)/8, $0x0000000200000002
DATA rcon<>+0x20(SB)/8, $0x0000000400000004
DATA rcon<>+0x28(SB)/8, $0x0000000400000004
DATA rcon<>+0x30(SB)/8, $0x0000000800000008
DATA rcon<>+0x38(SB)/8, $0x0000000800000008
DATA rcon<>+0x40(SB)/8, $0x0000001000000010
DATA rcon<>+0x48(SB)/8, $0x0000001000000010
DATA rcon<>+0x50(SB)/8, $0x0000002000000020
DATA rcon<>+0x58(SB)/8, $0x0000002000000020
DATA rcon<>+0x60(SB)/8, $0x0000004000000040
DATA rcon<>+0x68(SB)/8, $0x0000004000000040
DATA rcon<>+0x70(SB)/8, $0x0000008000000080
DATA rcon<>+0x78(SB)/8, $0x0000008000000080
DATA rcon<>+0x80(SB)/8, $0x0000001b0000001b
DATA rcon<>+0x88(SB)/8, $0x0000001b0000001b
DATA rcon<>+0x90(SB)/8, $0x0000003600000036
DATA rcon<>+0x98(SB)/8, $0x0000003600000036
GLOBL rcon<>(SB), (NOPTR+RODATA), $160

// KEYROUND derives the next AES-128 round key in X0 and stores it at
// off(DI). AESENCLAST on four copies of RotWord(w3) is SubWord (its
// ShiftRows moves nothing when every column is equal) plus the round
// constant; the two shifted XORs turn (w0, w1, w2, w3) into its running
// XOR. Unlike AESKEYGENASSIST, AESENCLAST is pipelined, so consecutive
// schedules overlap.
#define KEYROUND(rc, off) \
	MOVOU      X0, X1       \
	PSHUFB     X3, X1       \
	MOVOU      rc(SI), X4   \
	AESENCLAST X4, X1       \
	MOVOU      X0, X2       \
	PSLLO      $4, X2       \
	PXOR       X2, X0       \
	MOVOU      X0, X2       \
	PSLLO      $8, X2       \
	PXOR       X2, X0       \
	PXOR       X1, X0       \
	MOVUPS     X0, off(DI)

// func expandKey128Asm(key, rk *byte)
TEXT ·expandKey128Asm(SB), NOSPLIT, $0-16
	MOVQ   key+0(FP), AX
	MOVQ   rk+8(FP), DI
	MOVOU  rotWord<>(SB), X3
	LEAQ   rcon<>(SB), SI
	MOVUPS 0(AX), X0
	MOVUPS X0, 0(DI)
	KEYROUND(0x00, 16)
	KEYROUND(0x10, 32)
	KEYROUND(0x20, 48)
	KEYROUND(0x30, 64)
	KEYROUND(0x40, 80)
	KEYROUND(0x50, 96)
	KEYROUND(0x60, 112)
	KEYROUND(0x70, 128)
	KEYROUND(0x80, 144)
	KEYROUND(0x90, 160)
	RET

// bswap128 is the PSHUFB mask that reverses a block's 16 bytes: it turns
// the big-endian GF(2^128) element of Double into the register's
// little-endian 128-bit integer and back.
DATA bswap128<>+0x00(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap128<>+0x08(SB)/8, $0x0001020304050607
GLOBL bswap128<>(SB), (NOPTR+RODATA), $16

// gfPoly is the reduction x^7 + x^2 + x + 1 in the low byte.
DATA gfPoly<>+0x00(SB)/8, $0x0000000000000087
DATA gfPoly<>+0x08(SB)/8, $0x0000000000000000
GLOBL gfPoly<>(SB), (NOPTR+RODATA), $16

// DOUBLE multiplies the block in X by 2 in GF(2^128), as Double does:
// byte-reverse into a 128-bit integer, shift it left one bit with the
// bit-63 carry crossing into the high quadword, fold bit 127 back in as
// 0x87, and reverse again. X9 holds bswap128, X10 gfPoly; X11 and X12
// are clobbered.
#define DOUBLE(X) \
	PSHUFB X9, X         \
	PSHUFD $0xff, X, X11 \
	PSRAL  $31, X11      \
	PAND   X10, X11      \
	MOVOU  X, X12        \
	PSRLQ  $63, X12      \
	PSLLO  $8, X12       \
	PSLLQ  $1, X         \
	POR    X12, X        \
	PXOR   X11, X        \
	PSHUFB X9, X

// TWEAK2 XORs the 128-bit tweaks (w, lo[2j]) and (w, lo[2j+1]) into the
// lanes XA and XB: the word into the low eight bytes, the low tweak into
// the high eight, as Word.tweak lays them out. X14 holds (w, w); X11 and
// X13 are clobbered.
#define TWEAK2(off, XA, XB) \
	MOVOU      off(BX), X13 \
	MOVOU      X14, X11     \
	PUNPCKLQDQ X13, X11     \
	PXOR       X11, XA      \
	MOVOU      X14, X11     \
	PUNPCKHQDQ X13, X11     \
	PXOR       X11, XB

// FEED XORs the tweaked input d, parked at off(DI), into the cipher
// output in X and stores the digest over it.
#define FEED(off, X) \
	MOVUPS off(DI), X11 \
	PXOR   X11, X       \
	MOVUPS X, off(DI)

// func mmoBlocksAsm(rk *byte, dst, src *Block, lo *uint64, w uint64, n int)
//
// The fused MMO kernel: for each of the n blocks (n a positive multiple
// of 8), dst[i] = π(d) ⊕ d with d = 2·src[i] ⊕ (w, lo[i]), eight lanes
// per pass. The doubling, the tweak and the feed-forward stay in
// registers around the ten AES rounds; d is parked in dst[i] between
// the two halves, after src[i] has been read, so dst may equal src.
TEXT ·mmoBlocksAsm(SB), NOSPLIT, $0-48
	MOVQ rk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ lo+24(FP), BX
	MOVQ w+32(FP), DX
	MOVQ n+40(FP), CX
	MOVOU bswap128<>(SB), X9
	MOVOU gfPoly<>(SB), X10
	MOVQ  DX, X14
	PUNPCKLQDQ X14, X14

loop:
	MOVUPS 0(SI), X0
	MOVUPS 16(SI), X1
	MOVUPS 32(SI), X2
	MOVUPS 48(SI), X3
	MOVUPS 64(SI), X4
	MOVUPS 80(SI), X5
	MOVUPS 96(SI), X6
	MOVUPS 112(SI), X7

	DOUBLE(X0)
	DOUBLE(X1)
	DOUBLE(X2)
	DOUBLE(X3)
	DOUBLE(X4)
	DOUBLE(X5)
	DOUBLE(X6)
	DOUBLE(X7)
	TWEAK2(0, X0, X1)
	TWEAK2(16, X2, X3)
	TWEAK2(32, X4, X5)
	TWEAK2(48, X6, X7)

	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)

	MOVUPS 0(AX), X8
	PXOR   X8, X0
	PXOR   X8, X1
	PXOR   X8, X2
	PXOR   X8, X3
	PXOR   X8, X4
	PXOR   X8, X5
	PXOR   X8, X6
	PXOR   X8, X7

	AESROUND(16)
	AESROUND(32)
	AESROUND(48)
	AESROUND(64)
	AESROUND(80)
	AESROUND(96)
	AESROUND(112)
	AESROUND(128)
	AESROUND(144)

	MOVUPS      160(AX), X8
	AESENCLAST  X8, X0
	AESENCLAST  X8, X1
	AESENCLAST  X8, X2
	AESENCLAST  X8, X3
	AESENCLAST  X8, X4
	AESENCLAST  X8, X5
	AESENCLAST  X8, X6
	AESENCLAST  X8, X7

	FEED(0, X0)
	FEED(16, X1)
	FEED(32, X2)
	FEED(48, X3)
	FEED(64, X4)
	FEED(80, X5)
	FEED(96, X6)
	FEED(112, X7)

	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $64, BX
	SUBQ $8, CX
	JNZ  loop
	RET
