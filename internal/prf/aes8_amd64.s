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

// The lane kernels below run AES-128 under a different key in each of
// eight lanes: the keys are consecutive CTRs, their schedules ctrBytes
// apart (the Go side pins CTR's size), so lane l's round r key sits at
// l·192 + r·16 from the first.

// KEYROUND4 is KEYROUND on the four keys in X0..X3 at once, whose
// schedules are stored ctrBytes apart from off(DI): one AESENCLAST
// S-box per key, independent, so the four overlap in the pipeline. X12
// holds rotWord, X13 the round constant; X4..X11 are clobbered.
#define KEYROUND4(rc, off) \
	MOVOU      rc(SI), X13  \
	MOVOU      X0, X4       \
	PSHUFB     X12, X4      \
	AESENCLAST X13, X4      \
	MOVOU      X1, X5       \
	PSHUFB     X12, X5      \
	AESENCLAST X13, X5      \
	MOVOU      X2, X6       \
	PSHUFB     X12, X6      \
	AESENCLAST X13, X6      \
	MOVOU      X3, X7       \
	PSHUFB     X12, X7      \
	AESENCLAST X13, X7      \
	MOVOU      X0, X8       \
	MOVOU      X1, X9       \
	MOVOU      X2, X10      \
	MOVOU      X3, X11      \
	PSLLO      $4, X8       \
	PSLLO      $4, X9       \
	PSLLO      $4, X10      \
	PSLLO      $4, X11      \
	PXOR       X8, X0       \
	PXOR       X9, X1       \
	PXOR       X10, X2      \
	PXOR       X11, X3      \
	MOVOU      X0, X8       \
	MOVOU      X1, X9       \
	MOVOU      X2, X10      \
	MOVOU      X3, X11      \
	PSLLO      $8, X8       \
	PSLLO      $8, X9       \
	PSLLO      $8, X10      \
	PSLLO      $8, X11      \
	PXOR       X8, X0       \
	PXOR       X9, X1       \
	PXOR       X10, X2      \
	PXOR       X11, X3      \
	PXOR       X4, X0       \
	PXOR       X5, X1       \
	PXOR       X6, X2       \
	PXOR       X7, X3       \
	MOVUPS     X0, off(DI)  \
	MOVUPS     X1, 192+off(DI) \
	MOVUPS     X2, 384+off(DI) \
	MOVUPS     X3, 576+off(DI)

// func expandKeys4Asm(keys *Seed, rk *CTR)
//
// The schedules of the four consecutive keys at keys, into the four
// consecutive CTRs at rk: expandKey128Asm four keys abreast.
TEXT ·expandKeys4Asm(SB), NOSPLIT, $0-16
	MOVQ   keys+0(FP), AX
	MOVQ   rk+8(FP), DI
	MOVOU  rotWord<>(SB), X12
	LEAQ   rcon<>(SB), SI
	MOVUPS 0(AX), X0
	MOVUPS 16(AX), X1
	MOVUPS 32(AX), X2
	MOVUPS 48(AX), X3
	MOVUPS X0, 0(DI)
	MOVUPS X1, 192(DI)
	MOVUPS X2, 384(DI)
	MOVUPS X3, 576(DI)
	KEYROUND4(0x00, 16)
	KEYROUND4(0x10, 32)
	KEYROUND4(0x20, 48)
	KEYROUND4(0x30, 64)
	KEYROUND4(0x40, 80)
	KEYROUND4(0x50, 96)
	KEYROUND4(0x60, 112)
	KEYROUND4(0x70, 128)
	KEYROUND4(0x80, 144)
	KEYROUND4(0x90, 160)
	RET

// COUNTER sets X14 to CTR's counter block number DX: bytes 0..7 zero,
// bytes 8..15 DX big-endian. R12 is clobbered.
#define COUNTER \
	MOVQ   DX, R12  \
	BSWAPQ R12      \
	MOVQ   R12, X14 \
	PSLLO  $8, X14

// LANEKEY applies round key off of each of the eight lanes' schedules
// at R to X0..X7 with op (AESENC or AESENCLAST). X8 is clobbered.
#define LANEKEY(op, R, off) \
	MOVUPS off(R), X8      \
	op     X8, X0          \
	MOVUPS 192+off(R), X8  \
	op     X8, X1          \
	MOVUPS 384+off(R), X8  \
	op     X8, X2          \
	MOVUPS 576+off(R), X8  \
	op     X8, X3          \
	MOVUPS 768+off(R), X8  \
	op     X8, X4          \
	MOVUPS 960+off(R), X8  \
	op     X8, X5          \
	MOVUPS 1152+off(R), X8 \
	op     X8, X6          \
	MOVUPS 1344+off(R), X8 \
	op     X8, X7

// LANES8 encrypts the counter block X14 under the eight schedules at R
// into X0..X7.
#define LANES8(R) \
	MOVOU X14, X0            \
	MOVOU X14, X1            \
	MOVOU X14, X2            \
	MOVOU X14, X3            \
	MOVOU X14, X4            \
	MOVOU X14, X5            \
	MOVOU X14, X6            \
	MOVOU X14, X7            \
	LANEKEY(PXOR, R, 0)      \
	LANEKEY(AESENC, R, 16)   \
	LANEKEY(AESENC, R, 32)   \
	LANEKEY(AESENC, R, 48)   \
	LANEKEY(AESENC, R, 64)   \
	LANEKEY(AESENC, R, 80)   \
	LANEKEY(AESENC, R, 96)   \
	LANEKEY(AESENC, R, 112)  \
	LANEKEY(AESENC, R, 128)  \
	LANEKEY(AESENC, R, 144)  \
	LANEKEY(AESENCLAST, R, 160)

// FOLD8 folds lanes l0..l7 in X0..X7 into their leaf sums by index bit:
// X1 = l1⊕l3⊕l5⊕l7 (bit 0), X2 = l2⊕l3⊕l6⊕l7 (bit 1), X4 = l4⊕…⊕l7
// (bit 2) and X0 = l0⊕…⊕l7, in eleven XORs (chunkTile's g[x] ⊕= g[x+2^b]
// in registers). X3, X5, X6 and X7 are clobbered.
#define FOLD8 \
	PXOR X1, X0 \
	PXOR X3, X2 \
	PXOR X5, X4 \
	PXOR X7, X6 \
	PXOR X3, X1 \
	PXOR X7, X5 \
	PXOR X5, X1 \
	PXOR X2, X0 \
	PXOR X6, X4 \
	PXOR X6, X2 \
	PXOR X4, X0

// func leafSumsAsm(keys *CTR, dst *Block, stride int, ctr uint64, n int)
//
// For each of the n counter blocks c = ctr, ctr+1, …: the sixteen leaves
// of one chunk, keys[y], encrypt c in two eight-lane passes, folded in
// registers into the chunk's total ⊕_y AES_y(c), stored at dst, and its
// four bit sums ⊕_{y_b = 1} AES_y(c), stored at dst + (1+b)·stride.
// dst advances one block per counter.
TEXT ·leafSumsAsm(SB), NOSPLIT, $0-40
	MOVQ keys+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ stride+16(FP), BX
	MOVQ ctr+24(FP), DX
	MOVQ n+32(FP), CX
	LEAQ 1536(AX), SI      // leaves 8..15
	LEAQ (BX)(BX*2), R8    // 3·stride

sumsLoop:
	COUNTER
	LANES8(AX)
	FOLD8
	MOVOU X0, X9           // total
	MOVOU X1, X10          // bit 0
	MOVOU X2, X11          // bit 1
	MOVOU X4, X13          // bit 2
	LANES8(SI)
	FOLD8
	PXOR  X0, X9
	PXOR  X1, X10
	PXOR  X2, X11
	PXOR  X4, X13
	MOVUPS X9, (DI)
	MOVUPS X10, (DI)(BX*1)
	MOVUPS X11, (DI)(BX*2)
	MOVUPS X13, (DI)(R8*1)
	MOVUPS X0, (DI)(BX*4)  // bit 3: every leaf of the second pass
	ADDQ $16, DI
	INCQ DX
	DECQ CX
	JNZ  sumsLoop
	RET

// func keyBlocksAsm(keys *CTR, dst *Block, stride int, ctr uint64, n int, pairs bool)
//
// For each of the n counter blocks c = ctr, ctr+1, …: the eight keys
// encrypt c in one pass, lane l stored at dst + l·stride; with pairs,
// lane 2p holds lanes 2p ⊕ 2p+1 instead (a k = 1 chunk's total beside
// its one sum). dst advances one block per counter.
TEXT ·keyBlocksAsm(SB), NOSPLIT, $0-41
	MOVQ    keys+0(FP), AX
	MOVQ    dst+8(FP), DI
	MOVQ    stride+16(FP), BX
	MOVQ    ctr+24(FP), DX
	MOVQ    n+32(FP), CX
	MOVBLZX pairs+40(FP), R13
	LEAQ    (BX)(BX*2), R8   // 3·stride
	LEAQ    (BX)(BX*4), R9   // 5·stride
	LEAQ    (R8)(R8*1), R10  // 6·stride
	LEAQ    (R10)(BX*1), R11 // 7·stride

blocksLoop:
	COUNTER
	LANES8(AX)
	TESTQ R13, R13
	JZ    blocksStore
	PXOR  X1, X0
	PXOR  X3, X2
	PXOR  X5, X4
	PXOR  X7, X6

blocksStore:
	MOVUPS X0, (DI)
	MOVUPS X1, (DI)(BX*1)
	MOVUPS X2, (DI)(BX*2)
	MOVUPS X3, (DI)(R8*1)
	MOVUPS X4, (DI)(BX*4)
	MOVUPS X5, (DI)(R9*1)
	MOVUPS X6, (DI)(R10*1)
	MOVUPS X7, (DI)(R11*1)
	ADDQ $16, DI
	INCQ DX
	DECQ CX
	JNZ  blocksLoop
	RET
