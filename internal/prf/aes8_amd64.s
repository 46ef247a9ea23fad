#include "textflag.h"

// func cpuHasAES() bool
TEXT ·cpuHasAES(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
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
