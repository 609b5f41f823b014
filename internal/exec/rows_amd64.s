#include "textflag.h"

// AVX2 generic span kernels: see rows_amd64.go for the contract and rows.go
// for why they are bit-identical to the portable passes.
//
// Register use (both kernels):
//	DI  dst base pointer       SI  data base (slice headers, 24 bytes each)
//	R8  off base pointer       R9  w base pointer
//	R10 term count             R11 span cursor, R12 span end
//	BX  flat index of the next point of the span, CX points left in the span
//	AX  term index t           DX, R13 term t's source pointer and index
//
// Every point block computes acc = w[0]·s0, then acc = acc + w[t]·st for
// t = 1..nt-1, with separate multiplies and adds (never FMA), so each lane
// performs exactly the scalar operations of the portable passes.

// TERM loads term AX's source slice pointer into DX and the source index of
// point BX, BX + off[AX], into R13.
#define TERM \
	LEAQ (AX)(AX*2), DX; \
	MOVQ (SI)(DX*8), DX; \
	MOVQ (R8)(AX*8), R13; \
	ADDQ BX, R13

// SETUP loads the arguments shared by both kernels' frames.
#define SETUP \
	MOVQ dst_base+0(FP), DI; \
	MOVQ data_base+24(FP), SI; \
	MOVQ data_len+32(FP), R10; \
	MOVQ off_base+48(FP), R8; \
	MOVQ w_base+72(FP), R9; \
	MOVQ spans_base+96(FP), R11; \
	MOVQ spans_len+104(FP), R12; \
	ANDQ $-2, R12; \
	LEAQ (R11)(R12*4), R12

// func spansAVX2F64(dst []float64, data [][]float64, off []int, w []float64, spans []int32, vecs int)
TEXT ·spansAVX2F64(SB), NOSPLIT, $0-128
	SETUP

span:
	CMPQ R11, R12
	JAE  done
	MOVLQSX (R11), BX
	MOVLQSX 4(R11), CX
	ADDQ $8, R11
	MOVQ vecs+120(FP), DX
	CMPQ DX, $4
	JEQ  block4
	CMPQ DX, $2
	JEQ  block2
	JMP  block1

	// 4-vector blocks: 16 points.
block4:
	CMPQ CX, $16
	JLT  block1
	XORQ AX, AX
	TERM
	VBROADCASTSD (R9)(AX*8), Y4
	VMULPD (DX)(R13*8), Y4, Y0
	VMULPD 32(DX)(R13*8), Y4, Y1
	VMULPD 64(DX)(R13*8), Y4, Y2
	VMULPD 96(DX)(R13*8), Y4, Y3
	JMP  next4

term4:
	TERM
	VBROADCASTSD (R9)(AX*8), Y4
	VMULPD (DX)(R13*8), Y4, Y5
	VMULPD 32(DX)(R13*8), Y4, Y6
	VMULPD 64(DX)(R13*8), Y4, Y7
	VMULPD 96(DX)(R13*8), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3

next4:
	INCQ AX
	CMPQ AX, R10
	JLT  term4
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	ADDQ $16, BX
	SUBQ $16, CX
	JMP  block4

	// 2-vector blocks: 8 points.
block2:
	CMPQ CX, $8
	JLT  block1
	XORQ AX, AX
	TERM
	VBROADCASTSD (R9)(AX*8), Y4
	VMULPD (DX)(R13*8), Y4, Y0
	VMULPD 32(DX)(R13*8), Y4, Y1
	JMP  next2

term2:
	TERM
	VBROADCASTSD (R9)(AX*8), Y4
	VMULPD (DX)(R13*8), Y4, Y5
	VMULPD 32(DX)(R13*8), Y4, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1

next2:
	INCQ AX
	CMPQ AX, R10
	JLT  term2
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	ADDQ $8, BX
	SUBQ $8, CX
	JMP  block2

	// 1-vector blocks: 4 points, also the tail of the wider blocks.
block1:
	CMPQ CX, $4
	JLT  scalar
	XORQ AX, AX
	TERM
	VBROADCASTSD (R9)(AX*8), Y4
	VMULPD (DX)(R13*8), Y4, Y0
	JMP  next1

term1:
	TERM
	VBROADCASTSD (R9)(AX*8), Y4
	VMULPD (DX)(R13*8), Y4, Y5
	VADDPD Y5, Y0, Y0

next1:
	INCQ AX
	CMPQ AX, R10
	JLT  term1
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ $4, BX
	SUBQ $4, CX
	JMP  block1

	// Scalar tail: the last n%4 points, one at a time.
scalar:
	TESTQ CX, CX
	JEQ  span
	XORQ AX, AX
	TERM
	VMOVSD (R9)(AX*8), X4
	VMULSD (DX)(R13*8), X4, X0
	JMP  nexts

terms:
	TERM
	VMOVSD (R9)(AX*8), X4
	VMULSD (DX)(R13*8), X4, X5
	VADDSD X5, X0, X0

nexts:
	INCQ AX
	CMPQ AX, R10
	JLT  terms
	VMOVSD X0, (DI)(BX*8)
	INCQ BX
	DECQ CX
	JMP  scalar

done:
	VZEROUPPER
	RET

// func spansAVX2F32(dst []float32, data [][]float32, off []int, w []float32, spans []int32, vecs int)
TEXT ·spansAVX2F32(SB), NOSPLIT, $0-128
	SETUP

span:
	CMPQ R11, R12
	JAE  done
	MOVLQSX (R11), BX
	MOVLQSX 4(R11), CX
	ADDQ $8, R11
	MOVQ vecs+120(FP), DX
	CMPQ DX, $4
	JEQ  block4
	CMPQ DX, $2
	JEQ  block2
	JMP  block1

	// 4-vector blocks: 32 points.
block4:
	CMPQ CX, $32
	JLT  block1
	XORQ AX, AX
	TERM
	VBROADCASTSS (R9)(AX*4), Y4
	VMULPS (DX)(R13*4), Y4, Y0
	VMULPS 32(DX)(R13*4), Y4, Y1
	VMULPS 64(DX)(R13*4), Y4, Y2
	VMULPS 96(DX)(R13*4), Y4, Y3
	JMP  next4

term4:
	TERM
	VBROADCASTSS (R9)(AX*4), Y4
	VMULPS (DX)(R13*4), Y4, Y5
	VMULPS 32(DX)(R13*4), Y4, Y6
	VMULPS 64(DX)(R13*4), Y4, Y7
	VMULPS 96(DX)(R13*4), Y4, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3

next4:
	INCQ AX
	CMPQ AX, R10
	JLT  term4
	VMOVUPS Y0, (DI)(BX*4)
	VMOVUPS Y1, 32(DI)(BX*4)
	VMOVUPS Y2, 64(DI)(BX*4)
	VMOVUPS Y3, 96(DI)(BX*4)
	ADDQ $32, BX
	SUBQ $32, CX
	JMP  block4

	// 2-vector blocks: 16 points.
block2:
	CMPQ CX, $16
	JLT  block1
	XORQ AX, AX
	TERM
	VBROADCASTSS (R9)(AX*4), Y4
	VMULPS (DX)(R13*4), Y4, Y0
	VMULPS 32(DX)(R13*4), Y4, Y1
	JMP  next2

term2:
	TERM
	VBROADCASTSS (R9)(AX*4), Y4
	VMULPS (DX)(R13*4), Y4, Y5
	VMULPS 32(DX)(R13*4), Y4, Y6
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1

next2:
	INCQ AX
	CMPQ AX, R10
	JLT  term2
	VMOVUPS Y0, (DI)(BX*4)
	VMOVUPS Y1, 32(DI)(BX*4)
	ADDQ $16, BX
	SUBQ $16, CX
	JMP  block2

	// 1-vector blocks: 8 points, also the tail of the wider blocks.
block1:
	CMPQ CX, $8
	JLT  scalar
	XORQ AX, AX
	TERM
	VBROADCASTSS (R9)(AX*4), Y4
	VMULPS (DX)(R13*4), Y4, Y0
	JMP  next1

term1:
	TERM
	VBROADCASTSS (R9)(AX*4), Y4
	VMULPS (DX)(R13*4), Y4, Y5
	VADDPS Y5, Y0, Y0

next1:
	INCQ AX
	CMPQ AX, R10
	JLT  term1
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ $8, BX
	SUBQ $8, CX
	JMP  block1

	// Scalar tail: the last n%8 points, one at a time.
scalar:
	TESTQ CX, CX
	JEQ  span
	XORQ AX, AX
	TERM
	VMOVSS (R9)(AX*4), X4
	VMULSS (DX)(R13*4), X4, X0
	JMP  nexts

terms:
	TERM
	VMOVSS (R9)(AX*4), X4
	VMULSS (DX)(R13*4), X4, X5
	VADDSS X5, X0, X0

nexts:
	INCQ AX
	CMPQ AX, R10
	JLT  terms
	VMOVSS X0, (DI)(BX*4)
	INCQ BX
	DECQ CX
	JMP  scalar

done:
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: the OS saves XMM (bit 1) and YMM (bit 2) state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX // leaf 7 EBX bit 5: AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
