//! The data-oriented SIMT wave engine: the fast path that
//! [`crate::AccelBackend::Soa`] and [`crate::AccelBackend::Auto`] select.
//!
//! Layout and iteration strategy (vs. the scalar reference engine):
//!
//! * **Structure-of-arrays register file** — `regs[r * wf + lane]`
//!   keeps each architectural register's 64 lane values contiguous, so
//!   a vector instruction reads two cache-dense rows and writes one,
//!   instead of striding 32-word-apart per-lane register blocks.
//! * **64-bit `exec` bitmask** — the active set is one word; a
//!   diverged wavefront's issue set at the minimum PC comes from one
//!   branch-free pass over the PC row (inactive lanes read as
//!   `u32::MAX`; min, then lane equality ANDed with `exec`), and lane
//!   loops visit the set by bit iteration (`trailing_zeros`), never by
//!   collecting a `Vec<usize>` of lanes.
//! * **Uniform-PC fast path** — converged wavefronts (the common case)
//!   skip the min-PC scan entirely: a `uniform` hint says every active
//!   lane shares one PC, invalidated only by divergent branches and
//!   injected PC/exec-mask faults, re-established when a scan finds
//!   the issue set equal to the active set.
//! * **Lane-uniform registers** — one `u32` names the registers whose
//!   whole row holds one value. An ALU op or a branch on flagged
//!   operands computes once, and a `lw`/`sw` through a flagged base
//!   checks one address, touches one line and moves one word. Rows
//!   stay materialized, so every other path reads them unchanged.
//! * **Dense-issue vector loops** — when the issue mask is a
//!   contiguous prefix (`issue & (issue + 1) == 0`), operand rows are
//!   staged into a reusable scratch arena and the ALU/branch work runs
//!   as a per-op specialized loop the compiler can autovectorize.
//! * **Batched memory-port arbitration** — global accesses compute the
//!   whole wavefront's addresses in one vectorized pass into the
//!   arena, then walk lanes in ascending order for the architectural
//!   part (alignment/bounds, store/load, touched-line dedupe, cache
//!   port arbitration) so the cache sees the *exact* access sequence
//!   the scalar reference generates.
//!
//! The scratch arena ([`SoaScratch`]) lives in the scheduler and is
//! reused across every instruction of a run: the steady-state
//! instruction loop performs zero heap allocations.
//!
//! Bit-identity with the scalar engine (outputs, `RunStats`, memory
//! image, fault semantics) is enforced by the equivalence property
//! suite; every lane visit with an observable side effect happens in
//! ascending lane order exactly as in the reference.

use crate::engine::{observe_issue, IssueEnv, StepOut, Wave};
use crate::global_mem::GlobalMemory;
use crate::gpu::SimError;
use crate::memsys::SharedCache;
use crate::trace::ExecTrace;
use ggpu_isa::inst::{AluOp, BranchCond, IdSource, Inst, Reg};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hash;

/// Maximum wavefront size the bitmask engine supports (one `u64` of
/// execution mask).
pub(crate) const MAX_WF: u32 = 64;

/// One wavefront in structure-of-arrays layout.
#[derive(Clone)]
pub(crate) struct SoaWave {
    /// Wavefront size (lanes), `<= 64`.
    wf: u32,
    /// Per-lane PCs (architectural even for inactive lanes: an
    /// injected exec-mask fault can reactivate a lane, which then
    /// resumes at its stored PC).
    pcs: Box<[u32]>,
    /// Active-lane bitmask, bit `l` = lane `l`.
    exec: u64,
    /// Register file, reg-major: `regs[r * wf + lane]`.
    regs: Box<[u32]>,
    /// Work-items actually populated at dispatch (`<= wf`).
    items: u32,
    first_global: u32,
    first_local: u32,
    group_id: u32,
    ready_at: u64,
    done: bool,
    at_barrier: bool,
    /// Hint: every active lane shares one PC. May be pessimistically
    /// `false` (the scan re-establishes it); must never be wrongly
    /// `true`.
    uniform: bool,
    /// The shared PC of every active lane while `uniform` holds. The
    /// stored `pcs` slots of *active* lanes are then allowed to go
    /// stale: converged execution advances this one word per
    /// instruction instead of refilling the PC row, and the row is
    /// materialized only at divergence points, `ret`, and the
    /// injection hooks that hand out raw PC views. Inactive lanes'
    /// stored PCs stay authoritative throughout (exec-mask revival).
    lazy_pc: u32,
    /// Bit `r` set: all `wf` lanes of register `r`'s row hold one
    /// value, so `regs[r * wf]` is every lane's. Set at dispatch and by
    /// a write that fills the whole row with one value; cleared by any
    /// other write to the register and by [`Wave::reg_slot`]. Rows stay
    /// materialized; the bits only let an op on flagged operands
    /// compute once. May be pessimistically clear; must never be
    /// wrongly set.
    uni: u32,
}

/// Reusable staging arena for the SoA engine: operand rows, the
/// wavefront's batched addresses, and the touched-cache-line set.
pub(crate) struct SoaScratch {
    a: [u32; MAX_WF as usize],
    b: [u32; MAX_WF as usize],
    addr: [u32; MAX_WF as usize],
    lines: Vec<u64>,
}

// `[u32; 64]` has no derived `Default` (std stops at 32); zeroed is
// the right initial state anyway.
impl Default for SoaScratch {
    fn default() -> Self {
        Self {
            a: [0; MAX_WF as usize],
            b: [0; MAX_WF as usize],
            addr: [0; MAX_WF as usize],
            lines: Vec::new(),
        }
    }
}

/// `LANE_BIT[k]` is lane `k`'s bit within one 32-lane half of an
/// execution mask.
const LANE_BIT: [u32; 32] = {
    let mut bits = [0u32; 32];
    let mut k = 0;
    while k < 32 {
        bits[k] = 1 << k;
        k += 1;
    }
    bits
};

/// Issue-set selection for a diverged wavefront: the minimum PC over
/// the active lanes of `exec`, and the mask of active lanes at it.
/// Branch-free over the whole PC row: inactive lanes read as
/// `u32::MAX`, one min-reduction finds the front, and lane equality
/// ANDed with `exec` gives the mask (so an active lane parked at
/// `u32::MAX` still issues). `exec` must be non-zero and name only
/// lanes of `pcs`. Kept out of line: its unrolled row loops, inlined,
/// would double into `step` and `observe` and crowd the converged path.
#[inline(never)]
fn diverged_issue_set(pcs: &[u32], exec: u64) -> (u32, u64) {
    debug_assert!(pcs.len() <= MAX_WF as usize, "wider than one mask word");
    // Two 32-lane halves, so each lane's bit is a constant-table load
    // rather than a per-lane variable shift.
    let (lo, hi) = pcs.split_at(pcs.len().min(32));
    let halves = [(lo, exec as u32), (hi, (exec >> 32) as u32)];
    let mut pc = u32::MAX;
    for (row, active) in halves {
        for (&p, &bit) in row.iter().zip(&LANE_BIT) {
            pc = pc.min(p | u32::from(active & bit == 0).wrapping_neg());
        }
    }
    let [issue_lo, issue_hi] = halves.map(|(row, active)| {
        let at_pc = row.iter().zip(&LANE_BIT).fold(0u32, |m, (&p, &bit)| {
            m | (bit & u32::from(p == pc).wrapping_neg())
        });
        at_pc & active
    });
    (pc, (u64::from(issue_hi) << 32) | u64::from(issue_lo))
}

/// Per-op specialized row loop: the `match` pins the operation so
/// `AluOp::apply` inlines to a single arm and the loop autovectorizes.
fn alu_rows(op: AluOp, out: &mut [u32], a: &[u32], b: &[u32]) {
    macro_rules! rows {
        ($op:expr) => {
            for i in 0..out.len() {
                out[i] = $op.apply(a[i], b[i]);
            }
        };
    }
    match op {
        AluOp::Add => rows!(AluOp::Add),
        AluOp::Sub => rows!(AluOp::Sub),
        AluOp::Mul => rows!(AluOp::Mul),
        AluOp::Divu => rows!(AluOp::Divu),
        AluOp::Remu => rows!(AluOp::Remu),
        AluOp::And => rows!(AluOp::And),
        AluOp::Or => rows!(AluOp::Or),
        AluOp::Xor => rows!(AluOp::Xor),
        AluOp::Sll => rows!(AluOp::Sll),
        AluOp::Srl => rows!(AluOp::Srl),
        AluOp::Sra => rows!(AluOp::Sra),
        AluOp::Slt => rows!(AluOp::Slt),
        AluOp::Sltu => rows!(AluOp::Sltu),
    }
}

/// Immediate-operand variant of [`alu_rows`].
fn alu_rows_imm(op: AluOp, out: &mut [u32], a: &[u32], imm: u32) {
    macro_rules! rows {
        ($op:expr) => {
            for i in 0..out.len() {
                out[i] = $op.apply(a[i], imm);
            }
        };
    }
    match op {
        AluOp::Add => rows!(AluOp::Add),
        AluOp::Sub => rows!(AluOp::Sub),
        AluOp::Mul => rows!(AluOp::Mul),
        AluOp::Divu => rows!(AluOp::Divu),
        AluOp::Remu => rows!(AluOp::Remu),
        AluOp::And => rows!(AluOp::And),
        AluOp::Or => rows!(AluOp::Or),
        AluOp::Xor => rows!(AluOp::Xor),
        AluOp::Sll => rows!(AluOp::Sll),
        AluOp::Srl => rows!(AluOp::Srl),
        AluOp::Sra => rows!(AluOp::Sra),
        AluOp::Slt => rows!(AluOp::Slt),
        AluOp::Sltu => rows!(AluOp::Sltu),
    }
}

/// Per-cond specialized branch loop over staged operand rows; returns
/// how many issued lanes took the branch.
fn branch_rows(
    cond: BranchCond,
    pcs: &mut [u32],
    a: &[u32],
    b: &[u32],
    target: u32,
    fall: u32,
) -> u32 {
    macro_rules! rows {
        ($cond:expr) => {{
            let mut taken = 0u32;
            for i in 0..pcs.len() {
                let t = $cond.test(a[i], b[i]);
                taken += u32::from(t);
                pcs[i] = if t { target } else { fall };
            }
            taken
        }};
    }
    match cond {
        BranchCond::Eq => rows!(BranchCond::Eq),
        BranchCond::Ne => rows!(BranchCond::Ne),
        BranchCond::Lt => rows!(BranchCond::Lt),
        BranchCond::Ge => rows!(BranchCond::Ge),
        BranchCond::Ltu => rows!(BranchCond::Ltu),
        BranchCond::Geu => rows!(BranchCond::Geu),
    }
}

/// Count-only variant of [`branch_rows`]: how many operand pairs take
/// the branch, without touching the PC row. Used by converged
/// wavefronts, whose agreeing outcomes never materialize PCs.
fn branch_count_rows(cond: BranchCond, a: &[u32], b: &[u32]) -> u32 {
    macro_rules! rows {
        ($cond:expr) => {{
            let mut taken = 0u32;
            for i in 0..a.len() {
                taken += u32::from($cond.test(a[i], b[i]));
            }
            taken
        }};
    }
    match cond {
        BranchCond::Eq => rows!(BranchCond::Eq),
        BranchCond::Ne => rows!(BranchCond::Ne),
        BranchCond::Lt => rows!(BranchCond::Lt),
        BranchCond::Ge => rows!(BranchCond::Ge),
        BranchCond::Ltu => rows!(BranchCond::Ltu),
        BranchCond::Geu => rows!(BranchCond::Geu),
    }
}

/// Disjoint `(out, a)` register-row views for the in-register ALU
/// loops; `rdo != r1`, both multiples of the row width, `n` at most
/// one row.
fn rows2(regs: &mut [u32], rdo: usize, r1: usize, n: usize) -> (&mut [u32], &[u32]) {
    if rdo > r1 {
        let (lo, hi) = regs.split_at_mut(rdo);
        (&mut hi[..n], &lo[r1..r1 + n])
    } else {
        let (lo, hi) = regs.split_at_mut(rdo + n);
        (&mut lo[rdo..], &hi[r1 - rdo - n..r1 - rdo])
    }
}

/// Disjoint `(out, a, b)` register-row views; `rdo` differs from both
/// source offsets (the sources may alias each other — shared borrows).
fn rows3(
    regs: &mut [u32],
    rdo: usize,
    r1: usize,
    r2: usize,
    n: usize,
) -> (&mut [u32], &[u32], &[u32]) {
    if rdo > r1 && rdo > r2 {
        let (lo, hi) = regs.split_at_mut(rdo);
        (&mut hi[..n], &lo[r1..r1 + n], &lo[r2..r2 + n])
    } else if rdo < r1 && rdo < r2 {
        let end = rdo + n;
        let (lo, hi) = regs.split_at_mut(end);
        (
            &mut lo[rdo..],
            &hi[r1 - end..r1 - end + n],
            &hi[r2 - end..r2 - end + n],
        )
    } else {
        // `rdo` strictly between the two source rows.
        let hi_src = r1.max(r2);
        let lo_src = r1.min(r2);
        let (lo, rest) = regs.split_at_mut(rdo);
        let (mid, hi) = rest.split_at_mut(hi_src - rdo);
        let lo_row = &lo[lo_src..lo_src + n];
        let hi_row = &hi[..n];
        let out = &mut mid[..n];
        if r1 < r2 {
            (out, lo_row, hi_row)
        } else {
            (out, hi_row, lo_row)
        }
    }
}

impl SoaWave {
    /// Active mask for `items` populated lanes.
    fn items_mask(items: u32) -> u64 {
        if items == 0 {
            0
        } else if items >= 64 {
            u64::MAX
        } else {
            (1u64 << items) - 1
        }
    }

    /// Writes `val` into the PC of every issued lane.
    fn set_issued_pcs(&mut self, issue: u64, dense_n: usize, val: u32) {
        if dense_n > 0 {
            self.pcs[..dense_n].fill(val);
        } else {
            let mut m = issue;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                self.pcs[l] = val;
            }
        }
    }

    /// Advances the issued lanes' PCs to `val`: a converged wavefront
    /// moves the one shared lazy PC, a diverged one writes the stored
    /// slots.
    fn advance_issued_pcs(&mut self, issue: u64, dense_n: usize, val: u32) {
        if self.uniform {
            self.lazy_pc = val;
        } else {
            self.set_issued_pcs(issue, dense_n, val);
        }
    }

    /// Writes the lazy shared PC back into every active lane's stored
    /// slot. Required before any raw `pcs` view escapes (injection
    /// hooks) and before deactivating lanes, whose stored PC then
    /// becomes authoritative.
    fn materialize_pcs(&mut self) {
        if self.uniform {
            let mut m = self.exec;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                self.pcs[l] = self.lazy_pc;
            }
        }
    }

    /// Writes `val` into `rd`'s row for every issued lane and advances
    /// their PCs — the shape of every broadcast-result instruction
    /// (`lui`, `param`, uniform `ReadId` sources, broadcast loads, ops
    /// on lane-uniform operands). A write that fills the whole row
    /// flags `rd` lane-uniform.
    fn broadcast(&mut self, issue: u64, dense_n: usize, rd: Reg, val: u32, next_pc: u32) {
        let rd_off = rd.index() * self.wf as usize;
        if dense_n > 0 {
            self.regs[rd_off..rd_off + dense_n].fill(val);
            if dense_n == self.wf as usize {
                self.uni |= 1 << rd.index();
            }
        } else {
            let mut m = issue;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                self.regs[rd_off + l] = val;
            }
        }
        self.advance_issued_pcs(issue, dense_n, next_pc);
    }
}

impl Wave for SoaWave {
    type Scratch = SoaScratch;

    fn new(wf_size: u32, group_id: u32, first_global: u32, first_local: u32, items: u32) -> Self {
        let n = wf_size as usize;
        Self {
            wf: wf_size,
            pcs: vec![0; n].into_boxed_slice(),
            exec: Self::items_mask(items),
            regs: vec![0; n * 32].into_boxed_slice(),
            items,
            first_global,
            first_local,
            group_id,
            ready_at: 0,
            done: items == 0,
            at_barrier: false,
            uniform: true,
            lazy_pc: 0,
            uni: u32::MAX,
        }
    }

    fn reinit(&mut self, group_id: u32, first_global: u32, first_local: u32, items: u32) {
        self.pcs.fill(0);
        self.exec = Self::items_mask(items);
        self.regs.fill(0);
        self.items = items;
        self.first_global = first_global;
        self.first_local = first_local;
        self.group_id = group_id;
        self.ready_at = 0;
        self.done = items == 0;
        self.at_barrier = false;
        self.uniform = true;
        self.lazy_pc = 0;
        self.uni = u32::MAX;
    }

    fn done(&self) -> bool {
        self.done
    }

    fn at_barrier(&self) -> bool {
        self.at_barrier
    }

    fn ready_at(&self) -> u64 {
        self.ready_at
    }

    fn set_ready_at(&mut self, t: u64) {
        self.ready_at = t;
    }

    fn group_id(&self) -> u32 {
        self.group_id
    }

    fn step(
        &mut self,
        env: &IssueEnv<'_>,
        memory: &mut GlobalMemory,
        local_mem: &mut [u32],
        cache: &mut SharedCache,
        now: u64,
        scratch: &mut SoaScratch,
    ) -> Result<StepOut, SimError> {
        let exec = self.exec;
        if exec == 0 {
            self.done = true;
            return Ok(StepOut::Retired);
        }
        // Issue-set selection: uniform hint short-circuits the min-PC
        // scan for converged wavefronts (whose shared PC is the lazy
        // word — the stored row may be stale).
        let (pc, issue) = if self.uniform {
            (self.lazy_pc, exec)
        } else {
            let (pc, issue) = diverged_issue_set(&self.pcs, exec);
            if issue == exec {
                // Reconverged: every active lane is at the min PC
                // (their stored slots all hold it, so marking them
                // lazily shared is consistent).
                self.uniform = true;
                self.lazy_pc = pc;
            }
            (pc, issue)
        };
        let inst = *env
            .program
            .get(pc as usize)
            .ok_or(SimError::PcOutOfRange { pc })?;

        let lane_count = issue.count_ones();
        // Contiguous-prefix issue masks get the vector loops; `dense_n`
        // doubles as the flag (0 = bit-iterate).
        let dense_n = if (issue & issue.wrapping_add(1)) == 0 {
            lane_count as usize
        } else {
            0
        };
        let wf = self.wf as usize;
        let next_pc = pc + 1;
        let mut mem_ready: u64 = now;
        // Lane-uniform registers as they stand before this issue writes
        // its destination, which may be one of its operands.
        let uni = self.uni;
        let flagged = |r: Reg| uni >> r.index() & 1 == 1;
        if let Some(rd) = inst.def() {
            self.uni &= !(1 << rd.index());
        }

        match inst {
            // Lane-uniform operands: compute once, broadcast the result.
            Inst::Alu { op, rd, rs1, rs2 } if flagged(rs1) && flagged(rs2) => {
                let v = op.apply(self.regs[rs1.index() * wf], self.regs[rs2.index() * wf]);
                self.broadcast(issue, dense_n, rd, v, next_pc);
            }
            Inst::AluImm { op, rd, rs1, imm } if flagged(rs1) => {
                let v = op.apply(self.regs[rs1.index() * wf], imm as i32 as u32);
                self.broadcast(issue, dense_n, rd, v, next_pc);
            }
            // A lane-uniform base: every issued lane addresses one word,
            // so one check, one line touch and one word moved stand for
            // the whole issue. A fault is the first lane's, before any
            // effect; a store leaves the last issued lane's value, as the
            // ascending lane order does.
            Inst::Lw { rd, rs1, imm } | Inst::Sw { rs1, rs2: rd, imm } if flagged(rs1) => {
                let is_store = matches!(inst, Inst::Sw { .. });
                let addr = self.regs[rs1.index() * wf].wrapping_add(imm as i32 as u32);
                if !addr.is_multiple_of(4) {
                    return Err(SimError::Unaligned { addr });
                }
                let widx = (addr / 4) as usize;
                if widx >= memory.len() {
                    return Err(SimError::MemoryOutOfBounds { addr });
                }
                if is_store {
                    let last = 63 - issue.leading_zeros() as usize;
                    memory.store(widx, self.regs[rd.index() * wf + last]);
                    self.advance_issued_pcs(issue, dense_n, next_pc);
                } else {
                    self.broadcast(issue, dense_n, rd, memory[widx], next_pc);
                }
                mem_ready = mem_ready.max(cache.access(now, u64::from(addr), is_store));
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } if flagged(rs1) && flagged(rs2) => {
                let taken = cond.test(self.regs[rs1.index() * wf], self.regs[rs2.index() * wf]);
                self.advance_issued_pcs(issue, dense_n, if taken { target } else { next_pc });
            }
            Inst::Alu { op, rd, rs1, rs2 } => {
                let (r1, r2, rdo) = (rs1.index() * wf, rs2.index() * wf, rd.index() * wf);
                if dense_n > 0 {
                    let n = dense_n;
                    if rdo != r1 && rdo != r2 {
                        // Alias-free common case: operate straight on
                        // the register rows, no staging copies.
                        let (out, a, b) = rows3(&mut self.regs, rdo, r1, r2, n);
                        alu_rows(op, out, a, b);
                    } else {
                        // `rd` aliases a source: stage the operands.
                        scratch.a[..n].copy_from_slice(&self.regs[r1..r1 + n]);
                        scratch.b[..n].copy_from_slice(&self.regs[r2..r2 + n]);
                        alu_rows(
                            op,
                            &mut self.regs[rdo..rdo + n],
                            &scratch.a[..n],
                            &scratch.b[..n],
                        );
                    }
                } else {
                    let mut m = issue;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        self.regs[rdo + l] = op.apply(self.regs[r1 + l], self.regs[r2 + l]);
                    }
                }
                self.advance_issued_pcs(issue, dense_n, next_pc);
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                let (r1, rdo) = (rs1.index() * wf, rd.index() * wf);
                let imm = imm as i32 as u32;
                if dense_n > 0 {
                    let n = dense_n;
                    if rdo != r1 {
                        let (out, a) = rows2(&mut self.regs, rdo, r1, n);
                        alu_rows_imm(op, out, a, imm);
                    } else {
                        scratch.a[..n].copy_from_slice(&self.regs[r1..r1 + n]);
                        alu_rows_imm(op, &mut self.regs[rdo..rdo + n], &scratch.a[..n], imm);
                    }
                } else {
                    let mut m = issue;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        self.regs[rdo + l] = op.apply(self.regs[r1 + l], imm);
                    }
                }
                self.advance_issued_pcs(issue, dense_n, next_pc);
            }
            Inst::Lui { rd, imm } => {
                self.broadcast(issue, dense_n, rd, u32::from(imm) << 16, next_pc);
            }
            Inst::ReadId { rd, src } => {
                let rdo = rd.index() * wf;
                match src {
                    IdSource::GroupId => self.broadcast(issue, dense_n, rd, self.group_id, next_pc),
                    IdSource::GroupSize => {
                        self.broadcast(issue, dense_n, rd, env.workgroup_size, next_pc)
                    }
                    IdSource::GlobalSize => {
                        self.broadcast(issue, dense_n, rd, env.global_size, next_pc)
                    }
                    IdSource::GlobalId | IdSource::LocalId => {
                        // Lanes beyond `items` were never populated at
                        // dispatch and read id 0 (they can only execute
                        // after an injected exec-mask reactivation; the
                        // scalar reference leaves their id words zero).
                        let first = if matches!(src, IdSource::GlobalId) {
                            self.first_global
                        } else {
                            self.first_local
                        };
                        let items = self.items;
                        if dense_n > 0 {
                            let out = &mut self.regs[rdo..rdo + dense_n];
                            for (l, slot) in out.iter_mut().enumerate() {
                                let l = l as u32;
                                *slot = if l < items { first + l } else { 0 };
                            }
                        } else {
                            let mut m = issue;
                            while m != 0 {
                                let l = m.trailing_zeros();
                                m &= m - 1;
                                self.regs[rdo + l as usize] = if l < items { first + l } else { 0 };
                            }
                        }
                        self.advance_issued_pcs(issue, dense_n, next_pc);
                    }
                }
            }
            Inst::Param { rd, idx: p } => {
                let v = *env
                    .params
                    .get(p as usize)
                    .ok_or(SimError::ParamOutOfRange { pc, idx: p })?;
                self.broadcast(issue, dense_n, rd, v, next_pc);
            }
            Inst::Lw { rd, rs1, imm } | Inst::Sw { rs1, rs2: rd, imm } => {
                let is_store = matches!(inst, Inst::Sw { .. });
                let (base, vro) = (rs1.index() * wf, rd.index() * wf);
                let off = imm as i32 as u32;
                let line_bytes = u64::from(cache.line_bytes());
                let line_of = |addr: u32| {
                    // Power-of-two line sizes (the default geometry)
                    // take a shift instead of a per-lane divide.
                    if line_bytes.is_power_of_two() {
                        u64::from(addr) >> line_bytes.trailing_zeros()
                    } else {
                        u64::from(addr) / line_bytes
                    }
                };
                scratch.lines.clear();
                if dense_n > 0 {
                    let n = dense_n;
                    // Batched arbitration: one vectorizable pass
                    // computes the wavefront's addresses *and* the
                    // reductions every fast path keys on — OR of the
                    // low alignment bits, the maximum address for the
                    // bounds check, and XOR accumulators against the
                    // stride-4 and broadcast shapes.
                    let base_addr = self.regs[base].wrapping_add(off);
                    let mut misalign = 0u32;
                    let mut max_addr = 0u32;
                    let mut not_stride = 0u32;
                    let mut not_same = 0u32;
                    let mut expected = base_addr;
                    for (slot, r) in scratch.addr[..n].iter_mut().zip(&self.regs[base..base + n]) {
                        let a = r.wrapping_add(off);
                        *slot = a;
                        misalign |= a & 3;
                        max_addr = max_addr.max(a);
                        not_stride |= a ^ expected;
                        not_same |= a ^ base_addr;
                        expected = expected.wrapping_add(4);
                    }
                    let mem_top = (memory.len() as u64 * 4).min(u64::from(u32::MAX)) as u32;
                    let all_ok = misalign == 0 && max_addr < mem_top;
                    // Perfectly coalesced wavefronts (lane `l` at
                    // `base + 4l`, the dominant pattern of the shipped
                    // kernels) collapse to a bulk copy plus one cache
                    // access per consecutive line — the ascending
                    // first-touch order the scalar reference produces.
                    // (The overflow guard keeps the line enumeration's
                    // no-wrap assumption honest.)
                    let coalesced = all_ok
                        && not_stride == 0
                        && base_addr.checked_add(4 * (n as u32 - 1)).is_some();
                    if coalesced {
                        let widx = (base_addr / 4) as usize;
                        if is_store {
                            memory.store_slice(widx, &self.regs[vro..vro + n]);
                        } else {
                            self.regs[vro..vro + n].copy_from_slice(&memory[widx..widx + n]);
                        }
                        let last = line_of(base_addr + 4 * (n as u32 - 1));
                        for line in line_of(base_addr)..=last {
                            let ready = cache.access(now, line * line_bytes, is_store);
                            mem_ready = mem_ready.max(ready);
                        }
                        self.advance_issued_pcs(issue, dense_n, next_pc);
                    } else if all_ok && not_same == 0 {
                        // Broadcast access (every lane at one address —
                        // the uniform-pointer loads of the shipped
                        // kernels): one line touch; a store is hit by
                        // every lane in order, so the last lane wins.
                        let widx = (base_addr / 4) as usize;
                        if is_store {
                            memory.store(widx, self.regs[vro + n - 1]);
                            self.advance_issued_pcs(issue, dense_n, next_pc);
                        } else {
                            self.broadcast(issue, dense_n, rd, memory[widx], next_pc);
                        }
                        mem_ready =
                            mem_ready.max(cache.access(now, u64::from(base_addr), is_store));
                    } else if all_ok {
                        // No lane faults: walk lanes in ascending order
                        // for the architectural effects, exactly as the
                        // scalar reference does (cache-port arbitration
                        // order is observable in the stats), with the
                        // per-lane checks hoisted.
                        for l in 0..n {
                            let addr = scratch.addr[l];
                            let widx = (addr / 4) as usize;
                            if is_store {
                                memory.store(widx, self.regs[vro + l]);
                            } else {
                                self.regs[vro + l] = memory[widx];
                            }
                            let line = line_of(addr);
                            // Coalesced runs touch the same line as the
                            // previous lane; full dedupe on change only.
                            if scratch.lines.last() != Some(&line) && !scratch.lines.contains(&line)
                            {
                                scratch.lines.push(line);
                                let ready = cache.access(now, u64::from(addr), is_store);
                                mem_ready = mem_ready.max(ready);
                            }
                        }
                        self.advance_issued_pcs(issue, dense_n, next_pc);
                    } else {
                        // Some lane faults: replay in ascending lane
                        // order with per-lane checks so the partial
                        // stores, cache traffic and the faulting
                        // address match the scalar reference exactly.
                        for l in 0..n {
                            let addr = scratch.addr[l];
                            if !addr.is_multiple_of(4) {
                                return Err(SimError::Unaligned { addr });
                            }
                            let widx = (addr / 4) as usize;
                            if widx >= memory.len() {
                                return Err(SimError::MemoryOutOfBounds { addr });
                            }
                            if is_store {
                                memory.store(widx, self.regs[vro + l]);
                            } else {
                                self.regs[vro + l] = memory[widx];
                            }
                            let line = line_of(addr);
                            if !scratch.lines.contains(&line) {
                                scratch.lines.push(line);
                                let ready = cache.access(now, u64::from(addr), is_store);
                                mem_ready = mem_ready.max(ready);
                            }
                            self.pcs[l] = next_pc;
                        }
                    }
                } else {
                    let mut m = issue;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let addr = self.regs[base + l].wrapping_add(off);
                        if !addr.is_multiple_of(4) {
                            return Err(SimError::Unaligned { addr });
                        }
                        let widx = (addr / 4) as usize;
                        if widx >= memory.len() {
                            return Err(SimError::MemoryOutOfBounds { addr });
                        }
                        if is_store {
                            memory.store(widx, self.regs[vro + l]);
                        } else {
                            self.regs[vro + l] = memory[widx];
                        }
                        let line = line_of(addr);
                        if !scratch.lines.contains(&line) {
                            scratch.lines.push(line);
                            let ready = cache.access(now, u64::from(addr), is_store);
                            mem_ready = mem_ready.max(ready);
                        }
                    }
                    self.advance_issued_pcs(issue, dense_n, next_pc);
                }
            }
            Inst::Lwl { rd, rs1, imm } | Inst::Swl { rs1, rs2: rd, imm } => {
                let is_store = matches!(inst, Inst::Swl { .. });
                let (base, vro) = (rs1.index() * wf, rd.index() * wf);
                let off = imm as i32 as u32;
                let handled = if dense_n > 0 {
                    // Dense issue: one pass computes the address row
                    // and the shape reductions; the stride-4 and
                    // broadcast shapes collapse to bulk copies (no
                    // cache model on the local scratchpad — only the
                    // copy and the checks).
                    let n = dense_n;
                    let base_addr = self.regs[base].wrapping_add(off);
                    let mut misalign = 0u32;
                    let mut max_addr = 0u32;
                    let mut not_stride = 0u32;
                    let mut not_same = 0u32;
                    let mut expected = base_addr;
                    for r in &self.regs[base..base + n] {
                        let a = r.wrapping_add(off);
                        misalign |= a & 3;
                        max_addr = max_addr.max(a);
                        not_stride |= a ^ expected;
                        not_same |= a ^ base_addr;
                        expected = expected.wrapping_add(4);
                    }
                    let top = (local_mem.len() as u64 * 4).min(u64::from(u32::MAX)) as u32;
                    let all_ok = misalign == 0 && max_addr < top;
                    if all_ok
                        && not_stride == 0
                        && base_addr.checked_add(4 * (n as u32 - 1)).is_some()
                    {
                        let widx = (base_addr / 4) as usize;
                        if is_store {
                            local_mem[widx..widx + n].copy_from_slice(&self.regs[vro..vro + n]);
                        } else {
                            self.regs[vro..vro + n].copy_from_slice(&local_mem[widx..widx + n]);
                        }
                        self.advance_issued_pcs(issue, dense_n, next_pc);
                        true
                    } else if all_ok && not_same == 0 {
                        // Broadcast: every lane touches one word; the
                        // reference stores in ascending lane order, so
                        // the last lane wins.
                        let widx = (base_addr / 4) as usize;
                        if is_store {
                            local_mem[widx] = self.regs[vro + n - 1];
                            self.advance_issued_pcs(issue, dense_n, next_pc);
                        } else {
                            self.broadcast(issue, dense_n, rd, local_mem[widx], next_pc);
                        }
                        true
                    } else {
                        false
                    }
                } else {
                    false
                };
                if !handled {
                    let mut m = issue;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let addr = self.regs[base + l].wrapping_add(off);
                        if !addr.is_multiple_of(4) {
                            return Err(SimError::Unaligned { addr });
                        }
                        let widx = (addr / 4) as usize;
                        if widx >= local_mem.len() {
                            return Err(SimError::LocalOutOfBounds { addr });
                        }
                        if is_store {
                            local_mem[widx] = self.regs[vro + l];
                        } else {
                            self.regs[vro + l] = local_mem[widx];
                        }
                    }
                    self.advance_issued_pcs(issue, dense_n, next_pc);
                }
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let (r1, r2) = (rs1.index() * wf, rs2.index() * wf);
                if self.uniform {
                    // Converged: count the outcomes first, without
                    // touching the PC row. Agreement (the common case)
                    // moves only the shared lazy PC; a split outcome
                    // materializes per-lane targets and diverges.
                    let taken = if dense_n > 0 {
                        branch_count_rows(
                            cond,
                            &self.regs[r1..r1 + dense_n],
                            &self.regs[r2..r2 + dense_n],
                        )
                    } else {
                        let mut taken = 0u32;
                        let mut m = issue;
                        while m != 0 {
                            let l = m.trailing_zeros() as usize;
                            m &= m - 1;
                            taken += u32::from(cond.test(self.regs[r1 + l], self.regs[r2 + l]));
                        }
                        taken
                    };
                    if taken == 0 {
                        self.lazy_pc = next_pc;
                    } else if taken == lane_count {
                        self.lazy_pc = target;
                    } else {
                        self.uniform = false;
                        if dense_n > 0 {
                            let n = dense_n;
                            branch_rows(
                                cond,
                                &mut self.pcs[..n],
                                &self.regs[r1..r1 + n],
                                &self.regs[r2..r2 + n],
                                target,
                                next_pc,
                            );
                        } else {
                            let mut m = issue;
                            while m != 0 {
                                let l = m.trailing_zeros() as usize;
                                m &= m - 1;
                                let t = cond.test(self.regs[r1 + l], self.regs[r2 + l]);
                                self.pcs[l] = if t { target } else { next_pc };
                            }
                        }
                    }
                } else if dense_n > 0 {
                    // `pcs` and `regs` are distinct fields: the operand
                    // rows are read in place, no staging needed.
                    let n = dense_n;
                    branch_rows(
                        cond,
                        &mut self.pcs[..n],
                        &self.regs[r1..r1 + n],
                        &self.regs[r2..r2 + n],
                        target,
                        next_pc,
                    );
                } else {
                    let mut m = issue;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let t = cond.test(self.regs[r1 + l], self.regs[r2 + l]);
                        self.pcs[l] = if t { target } else { next_pc };
                    }
                }
            }
            Inst::Jmp { target } => {
                self.advance_issued_pcs(issue, dense_n, target);
            }
            Inst::Bar => {
                // All active lanes must arrive together (uniform
                // control flow at barriers, as on real SIMT machines).
                if issue != exec {
                    return Err(SimError::DivergentBarrier { pc });
                }
                self.at_barrier = true;
                // PCs advance only on release.
            }
            Inst::Ret => {
                // A retiring lane's stored PC becomes authoritative
                // (exec-mask revival resumes there): flush the lazy
                // shared PC into the issued slots before deactivating.
                if self.uniform {
                    self.set_issued_pcs(issue, dense_n, pc);
                }
                self.exec &= !issue;
                if self.exec == 0 {
                    self.done = true;
                }
            }
        }
        Ok(StepOut::Issued {
            inst,
            lane_count,
            mem_ready,
        })
    }

    fn observe(
        &self,
        env: &IssueEnv<'_>,
        memory_words: usize,
        local_words: usize,
        trace: &mut ExecTrace,
    ) {
        if self.exec == 0 {
            return;
        }
        // Mirrors the issue-set selection at the top of `step`, but
        // strictly read-only: a reconvergence scan result is *not*
        // cached back into the `uniform`/`lazy_pc` hint here — the
        // step that follows will redo the scan and cache it itself.
        let (pc, issue) = if self.uniform {
            (self.lazy_pc, self.exec)
        } else {
            diverged_issue_set(&self.pcs, self.exec)
        };
        // Ascending-ordered issue lane list, matching the side-effect
        // visit order of the lane loops in `step`.
        let mut lanes: Vec<usize> = Vec::with_capacity(issue.count_ones() as usize);
        let mut m = issue;
        while m != 0 {
            lanes.push(m.trailing_zeros() as usize);
            m &= m - 1;
        }
        let wf = self.wf as usize;
        observe_issue(
            trace,
            env,
            pc,
            lanes.len(),
            memory_words,
            local_words,
            |i, r| self.regs[r.index() * wf + lanes[i]],
        );
    }

    fn release_from_barrier(&mut self, now: u64) {
        self.at_barrier = false;
        if self.uniform {
            self.lazy_pc += 1;
        } else {
            let mut m = self.exec;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                self.pcs[l] += 1;
            }
        }
        self.ready_at = self.ready_at.max(now + 1);
    }

    fn fingerprint(&self, h: &mut DefaultHasher) {
        // Hash the *architectural* PC of every lane — the stored slot,
        // or the shared lazy PC for active lanes of a converged wave —
        // through one code shape, so two architecturally identical
        // states hash identically regardless of which representation
        // they happen to be in (the watchdog compares hashes across
        // checks, and the scalar reference sees state equality).
        self.pcs.len().hash(h);
        for (l, &p) in self.pcs.iter().enumerate() {
            let arch = if self.uniform && (self.exec >> l) & 1 == 1 {
                self.lazy_pc
            } else {
                p
            };
            arch.hash(h);
        }
        self.exec.hash(h);
        self.regs.hash(h);
        self.items.hash(h);
        self.first_global.hash(h);
        self.first_local.hash(h);
        self.group_id.hash(h);
        self.done.hash(h);
        self.at_barrier.hash(h);
    }

    fn has_lane(&self, lane: u32) -> bool {
        lane < self.wf
    }

    fn reg_slot(&mut self, lane: u32, reg: u8) -> Option<&mut u32> {
        if !self.has_lane(lane) {
            return None;
        }
        // The caller may rewrite one lane: the row is no longer known
        // to be lane-uniform.
        self.uni &= !(1 << (reg & 31));
        self.regs
            .get_mut(usize::from(reg & 31) * self.wf as usize + lane as usize)
    }

    fn pc_slot(&mut self, lane: u32) -> Option<&mut u32> {
        // A raw PC view escapes: flush the lazy shared PC into the
        // stored row first, then drop the convergence hint (the caller
        // may rewrite the slot arbitrarily; pessimistic is always
        // safe).
        self.materialize_pcs();
        self.uniform = false;
        self.pcs.get_mut(lane as usize)
    }

    fn toggle_exec(&mut self, lane: u32) {
        // Materialize before the mask changes: a deactivated lane's
        // stored PC becomes authoritative, and a reactivated lane
        // resumes at its stored PC, which need not match the
        // convergent front.
        self.materialize_pcs();
        self.exec ^= 1u64 << lane;
        self.uniform = false;
    }

    fn clone_into_buf(&self, buf: &mut Self) {
        fn copy_row(dst: &mut Box<[u32]>, src: &[u32]) {
            if dst.len() == src.len() {
                dst.copy_from_slice(src);
            } else {
                *dst = src.into();
            }
        }
        let mut pcs = std::mem::take(&mut buf.pcs);
        let mut regs = std::mem::take(&mut buf.regs);
        copy_row(&mut pcs, &self.pcs);
        copy_row(&mut regs, &self.regs);
        *buf = Self { pcs, regs, ..*self };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_prop::{cases, Rng};

    /// The per-lane scan oracle for [`diverged_issue_set`]: visit the
    /// active lanes in ascending order, restart the mask on a smaller
    /// PC, extend it on an equal one.
    fn scan_issue_set(pcs: &[u32], exec: u64) -> (u32, u64) {
        let mut pc = u32::MAX;
        let mut issue = 0u64;
        let mut m = exec;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            let p = pcs[l];
            if p < pc {
                pc = p;
                issue = 1u64 << l;
            } else if p == pc {
                issue |= 1u64 << l;
            }
        }
        (pc, issue)
    }

    /// A PC drawn so that lanes often tie, sometimes sit at the top of
    /// the range, and now and then are anything at all.
    fn random_pc(rng: &mut Rng) -> u32 {
        match rng.u32_in(0, 3) {
            0 => rng.u32_in(0, 3),
            1 => rng.pick_copy(&[u32::MAX, u32::MAX - 1]),
            2 => rng.u32_in(10, 40),
            _ => rng.any_u32(),
        }
    }

    #[test]
    fn branch_free_issue_set_matches_the_lane_scan() {
        cases(2000, |rng| {
            let wf = rng.pick_copy(&[1u32, 8, 16, 33, 64]);
            let full = SoaWave::items_mask(wf);
            let pcs: Vec<u32> = (0..wf).map(|_| random_pc(rng)).collect();
            let exec = match rng.u32_in(0, 3) {
                0 => 1u64 << rng.u32_in(0, wf - 1),
                1 => full,
                _ => rng.next_u64() & full,
            };
            if exec == 0 {
                return;
            }
            assert_eq!(
                diverged_issue_set(&pcs, exec),
                scan_issue_set(&pcs, exec),
                "wf {wf}, exec {exec:#x}, pcs {pcs:?}"
            );
        });
    }

    #[test]
    fn lanes_at_the_top_pc_still_issue() {
        let mut pcs = vec![u32::MAX; 64];
        assert_eq!(diverged_issue_set(&pcs, 0b1010), (u32::MAX, 0b1010));
        pcs[5] = 9;
        // The inactive lane at a lower PC does not pull the front down.
        assert_eq!(diverged_issue_set(&pcs, 0b1010), (u32::MAX, 0b1010));
        assert_eq!(diverged_issue_set(&pcs, 0b10_1010), (9, 0b10_0000));
    }
}
