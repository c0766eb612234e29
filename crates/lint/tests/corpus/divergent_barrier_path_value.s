; Seeded bug: r4 is set on one arm of a lane-varying branch, so after
; the barrier (which post-dominates that branch) it differs across
; lanes only because they took different paths. The loop branch on r4
; then sends lanes 1.. back to the barrier while lane 0 returns (the
; simulator faults with DivergentBarrier at Launch::new(64, 64, [1])).
; Expect: K008
    lid   r1
    addi  r3, r0, 0
    addi  r4, r0, 0
top:
    bgeu  r3, r1, mid
    param r4, 0
mid:
    bar
    blt   r0, r4, top
    ret
