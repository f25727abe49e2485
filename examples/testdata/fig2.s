; The running example of Canal, Parcerisa & González (HPCA 2000), Figure 2:
;   for (i=0;i<N;i++) { if (C[i]!=0) A[i]=B[i]/C[i]; else A[i]=0; }
; with N = 4. Each comment gives the instruction's index, the node number
; of the paper's register dependence graph. The rdg and steer tests load
; this file; `dcardg -program examples/testdata/fig2.s` prints its slices.
.data
A: .word 0, 0, 0, 0
B: .word 8, 12, 20, 36
C: .word 2, 1, 5, 6
.text
     addi r9, r0, 32    ; 0: N*8
     addi r1, r0, 0     ; 1: i*8
for: lui  r2, 1         ; 2: B base (0x10020)
     ori  r2, r2, 32    ; 3
     add  r2, r2, r1    ; 4: &B[i]
     ld   r3, 0(r2)     ; 5: B[i]
     lui  r4, 1         ; 6: C base (0x10040)
     ori  r4, r4, 64    ; 7
     add  r4, r4, r1    ; 8: &C[i]
     ld   r5, 0(r4)     ; 9: C[i]
     beq  r5, r0, l1    ; 10
     div  r7, r3, r5    ; 11
     j    l2            ; 12
l1:  addi r7, r0, 0     ; 13
l2:  lui  r8, 1         ; 14: A base (0x10000)
     add  r8, r8, r1    ; 15: &A[i]
     st   r7, 0(r8)     ; 16: A[i] =
     addi r1, r1, 8     ; 17
     bne  r1, r9, for   ; 18
     halt               ; 19
