//! Warp contexts: the SIMT reconvergence stack, per-warp scoreboard and
//! lane bookkeeping.
//!
//! Control flow is structured (`if`/`else`/`end`, `loop`/`break`/`end`), so
//! divergence is handled by a small stack machine:
//!
//! * an `If` entry remembers the lanes parked for the `else` branch
//!   (`pending_else`) and the lanes that reconverge at `if.end` (`reconv`);
//! * a `Loop` entry accumulates the lanes that have broken out (`broken`);
//!   the loop iterates while any lane remains active and releases the
//!   broken lanes past `loop.end` when the last active lane leaves.
//!
//! `exit` removes lanes from *every* stack entry, which makes divergent
//! exits (possible under fault injection) converge instead of wedging the
//! warp.

use simt_isa::cfg::ControlMap;

/// A set of lanes, one bit per lane (warp sizes up to 64 supported).
pub type LaneMask = u64;

/// Returns the mask with the low `n` lanes set.
///
/// # Example
/// ```
/// use simt_sim::warp::full_mask;
/// assert_eq!(full_mask(3), 0b111);
/// assert_eq!(full_mask(64), u64::MAX);
/// ```
pub fn full_mask(n: u32) -> LaneMask {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Iterates the set lane indices of a mask, lowest first.
pub(crate) fn lanes(mut mask: LaneMask) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros();
            mask &= mask - 1;
            lane
        })
    })
}

/// One entry of the SIMT reconvergence stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackEntry {
    /// A divergent `if` region.
    If {
        /// Lanes waiting to run the `else` branch.
        pending_else: LaneMask,
        /// Instruction index of the `else`, if the region has one.
        else_pc: Option<usize>,
        /// Lanes that reconverge at `if.end`.
        reconv: LaneMask,
        /// Instruction index of the `if.end`.
        end_pc: usize,
    },
    /// An active loop region.
    Loop {
        /// Lanes that have broken out and wait past `loop.end`.
        broken: LaneMask,
        /// Instruction index of the `loop.begin`.
        begin_pc: usize,
        /// Instruction index of the `loop.end`.
        end_pc: usize,
    },
}

/// The architectural state of one warp (minus register *values*, which
/// live in the SM's physical register file).
#[derive(Debug, Clone)]
pub struct Warp {
    /// Warp index within its block.
    pub warp_in_block: u32,
    /// Next instruction index.
    pub pc: usize,
    /// Currently active lanes.
    pub active: LaneMask,
    /// Lanes that executed `exit`.
    pub exited: LaneMask,
    /// Lanes that exist (the last warp of a block may be partial).
    pub live: LaneMask,
    /// The reconvergence stack.
    pub stack: Vec<StackEntry>,
    /// The scoreboard, then the predicate lane masks: the cycle at which
    /// each vector, scalar and predicate register's value is ready, then
    /// each predicate register's lanes. One allocation, because a
    /// checkpoint restore clones every live warp.
    regs: Box<[u64]>,
    /// Where the scalar scoreboard, the predicate scoreboard and the
    /// predicate masks start in `regs`.
    sreg_at: usize,
    pred_ready_at: usize,
    preds_at: usize,
    /// Earliest cycle the warp may issue its next instruction.
    pub next_issue: u64,
    /// Warp is parked at a barrier.
    pub at_barrier: bool,
    /// All lanes have exited.
    pub finished: bool,
    /// Physical base word of this warp's vector registers in the SM RF.
    pub rf_base: u32,
    /// Physical base word of this warp's scalar registers in the SM SRF.
    pub srf_base: u32,
    /// Physical base word of the owning block's LDS region.
    pub lds_base: u32,
    /// LDS bytes owned by the block (for bounds checks).
    pub lds_bytes: u32,
    /// Block coordinates (ctaid).
    pub ctaid: (u32, u32),
    /// Index of the owning resident block within the SM.
    pub block_slot: usize,
}

impl Warp {
    /// Creates a warp with `lanes` live threads, all active at pc 0.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        warp_in_block: u32,
        lanes: u32,
        num_vregs: u16,
        num_sregs: u16,
        num_pregs: u8,
        rf_base: u32,
        srf_base: u32,
        lds_base: u32,
        lds_bytes: u32,
        ctaid: (u32, u32),
        block_slot: usize,
    ) -> Self {
        let live = full_mask(lanes);
        let sreg_at = num_vregs as usize;
        let pred_ready_at = sreg_at + num_sregs as usize;
        let preds_at = pred_ready_at + num_pregs as usize;
        Warp {
            warp_in_block,
            pc: 0,
            active: live,
            exited: 0,
            live,
            stack: Vec::new(),
            regs: vec![0; preds_at + num_pregs as usize].into_boxed_slice(),
            sreg_at,
            pred_ready_at,
            preds_at,
            next_issue: 0,
            at_barrier: false,
            finished: false,
            rf_base,
            srf_base,
            lds_base,
            lds_bytes,
            ctaid,
            block_slot,
        }
    }

    /// Scoreboard: cycle at which each vector register's value is ready.
    pub fn vreg_ready(&self) -> &[u64] {
        &self.regs[..self.sreg_at]
    }

    /// The vector-register scoreboard, writable.
    pub fn vreg_ready_mut(&mut self) -> &mut [u64] {
        &mut self.regs[..self.sreg_at]
    }

    /// Scoreboard for scalar registers.
    pub fn sreg_ready(&self) -> &[u64] {
        &self.regs[self.sreg_at..self.pred_ready_at]
    }

    /// The scalar-register scoreboard, writable.
    pub fn sreg_ready_mut(&mut self) -> &mut [u64] {
        &mut self.regs[self.sreg_at..self.pred_ready_at]
    }

    /// Scoreboard for predicate registers.
    pub fn pred_ready(&self) -> &[u64] {
        &self.regs[self.pred_ready_at..self.preds_at]
    }

    /// The predicate-register scoreboard, writable.
    pub fn pred_ready_mut(&mut self) -> &mut [u64] {
        &mut self.regs[self.pred_ready_at..self.preds_at]
    }

    /// Per-predicate-register lane masks.
    pub fn preds(&self) -> &[LaneMask] {
        &self.regs[self.preds_at..]
    }

    /// Per-predicate-register lane masks, writable.
    pub fn preds_mut(&mut self) -> &mut [LaneMask] {
        &mut self.regs[self.preds_at..]
    }

    /// Lanes that are live and have not exited.
    pub fn runnable_lanes(&self) -> LaneMask {
        self.live & !self.exited
    }

    /// Executes `if.begin` at instruction `idx` with the given taken mask.
    pub fn exec_if_begin(&mut self, idx: usize, taken: LaneMask, control: &ControlMap) {
        let info = control.if_info(idx).expect("validated if.begin");
        let taken = taken & self.active;
        let not_taken = self.active & !taken;
        if taken != 0 {
            let pending_else = if info.else_idx.is_some() {
                not_taken
            } else {
                0
            };
            self.stack.push(StackEntry::If {
                pending_else,
                else_pc: info.else_idx,
                reconv: self.active,
                end_pc: info.end_idx,
            });
            self.active = taken;
            self.pc = idx + 1;
        } else if let Some(else_idx) = info.else_idx {
            // All lanes go straight to the else branch.
            self.stack.push(StackEntry::If {
                pending_else: 0,
                else_pc: Some(else_idx),
                reconv: self.active,
                end_pc: info.end_idx,
            });
            self.pc = else_idx + 1;
        } else {
            // Nothing to do in the region: skip past if.end.
            self.pc = info.end_idx + 1;
        }
    }

    /// Executes `else`: park the then-lanes, release the else-lanes.
    pub fn exec_else(&mut self) {
        match self.stack.last_mut() {
            Some(StackEntry::If {
                pending_else,
                end_pc,
                ..
            }) => {
                let p = *pending_else;
                *pending_else = 0;
                let end = *end_pc;
                if p != 0 {
                    self.active = p;
                    self.pc += 1;
                } else {
                    // Nobody wants the else branch: reconverge now.
                    let _ = end;
                    self.pop_reconverge();
                }
            }
            _ => unreachable!("validated else always has an If on top"),
        }
    }

    /// Executes `if.end`: reconverge.
    pub fn exec_if_end(&mut self) {
        self.pop_reconverge();
    }

    fn pop_reconverge(&mut self) {
        match self.stack.pop() {
            Some(StackEntry::If { reconv, end_pc, .. }) => {
                self.active = reconv & !self.exited;
                self.pc = end_pc + 1;
                if self.active == 0 {
                    self.resume();
                }
            }
            _ => unreachable!("pop_reconverge on non-If entry"),
        }
    }

    /// Executes `loop.begin` at `idx`.
    pub fn exec_loop_begin(&mut self, idx: usize, control: &ControlMap) {
        let info = control.loop_info(idx).expect("validated loop.begin");
        self.stack.push(StackEntry::Loop {
            broken: 0,
            begin_pc: idx,
            end_pc: info.end_idx,
        });
        self.pc = idx + 1;
    }

    /// Executes `break` with the given breaking-lane mask.
    pub fn exec_break(&mut self, breaking: LaneMask) {
        let breaking = breaking & self.active;
        if breaking == 0 {
            self.pc += 1;
            return;
        }
        // Find the innermost loop (topmost Loop entry); strip the broken
        // lanes from every If entry above it.
        let loop_pos = self
            .stack
            .iter()
            .rposition(|e| matches!(e, StackEntry::Loop { .. }))
            .expect("validated break is inside a loop");
        for e in &mut self.stack[loop_pos + 1..] {
            if let StackEntry::If {
                pending_else,
                reconv,
                ..
            } = e
            {
                *pending_else &= !breaking;
                *reconv &= !breaking;
            }
        }
        if let StackEntry::Loop { broken, .. } = &mut self.stack[loop_pos] {
            *broken |= breaking;
        }
        self.active &= !breaking;
        if self.active == 0 {
            self.resume();
        } else {
            self.pc += 1;
        }
    }

    /// Executes `loop.end`: jump back while lanes remain.
    pub fn exec_loop_end(&mut self) {
        match self.stack.last() {
            Some(StackEntry::Loop { begin_pc, .. }) => {
                if self.active != 0 {
                    self.pc = begin_pc + 1;
                } else {
                    self.resume();
                }
            }
            _ => unreachable!("validated loop.end always has a Loop on top"),
        }
    }

    /// Executes `exit` for all active lanes.
    pub fn exec_exit(&mut self) {
        let ex = self.active;
        self.exited |= ex;
        for e in &mut self.stack {
            match e {
                StackEntry::If {
                    pending_else,
                    reconv,
                    ..
                } => {
                    *pending_else &= !ex;
                    *reconv &= !ex;
                }
                StackEntry::Loop { broken, .. } => {
                    *broken &= !ex;
                }
            }
        }
        self.active = 0;
        self.resume();
    }

    /// Unwinds the stack until some lanes become active or the warp
    /// finishes. Called whenever `active` reaches zero.
    fn resume(&mut self) {
        debug_assert_eq!(self.active, 0);
        loop {
            match self.stack.last_mut() {
                None => {
                    self.finished = true;
                    return;
                }
                Some(StackEntry::If {
                    pending_else,
                    else_pc,
                    ..
                }) if *pending_else != 0 => {
                    let p = *pending_else;
                    *pending_else = 0;
                    let target = else_pc.expect("pending else lanes imply an else");
                    self.active = p;
                    self.pc = target + 1;
                    return;
                }
                Some(StackEntry::If { .. }) => {
                    if let Some(StackEntry::If { reconv, end_pc, .. }) = self.stack.pop() {
                        self.active = reconv & !self.exited;
                        self.pc = end_pc + 1;
                        if self.active != 0 {
                            return;
                        }
                    }
                }
                Some(StackEntry::Loop { .. }) => {
                    if let Some(StackEntry::Loop { broken, end_pc, .. }) = self.stack.pop() {
                        self.active = broken & !self.exited;
                        self.pc = end_pc + 1;
                        if self.active != 0 {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Per-lane `%tid.x` / `%tid.y` for a block of dimensions
    /// `(ntid_x, ntid_y)` and the given warp size.
    pub fn tid(&self, lane: u32, warp_size: u32, ntid_x: u32) -> (u32, u32) {
        let linear = self.warp_in_block * warp_size + lane;
        (linear % ntid_x, linear / ntid_x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{Instr, PReg};

    fn warp(lanes: u32) -> Warp {
        Warp::new(0, lanes, 8, 4, 2, 0, 0, 0, 0, (0, 0), 0)
    }

    fn ifb() -> Instr {
        Instr::IfBegin {
            p: PReg(0),
            negate: false,
        }
    }

    #[test]
    fn fresh_warp_state() {
        let w = warp(4);
        assert_eq!(w.active, 0b1111);
        assert_eq!(w.runnable_lanes(), 0b1111);
        assert!(!w.finished);
        assert_eq!(w.pc, 0);
    }

    #[test]
    fn if_then_else_reconverges() {
        // 0: if.begin  1: nop  2: else  3: nop  4: if.end  5: exit
        let body = vec![
            ifb(),
            Instr::Nop,
            Instr::Else,
            Instr::Nop,
            Instr::IfEnd,
            Instr::Exit,
        ];
        let cm = ControlMap::build(&body).unwrap();
        let mut w = warp(4);
        w.exec_if_begin(0, 0b0011, &cm);
        assert_eq!(w.active, 0b0011);
        assert_eq!(w.pc, 1);
        w.pc = 2; // then lanes reach else
        w.exec_else();
        assert_eq!(w.active, 0b1100, "else lanes released");
        assert_eq!(w.pc, 3);
        w.pc = 4;
        w.exec_if_end();
        assert_eq!(w.active, 0b1111, "reconverged");
        assert_eq!(w.pc, 5);
    }

    #[test]
    fn if_nobody_taken_jumps_to_else_branch() {
        let body = vec![
            ifb(),
            Instr::Nop,
            Instr::Else,
            Instr::Nop,
            Instr::IfEnd,
            Instr::Exit,
        ];
        let cm = ControlMap::build(&body).unwrap();
        let mut w = warp(4);
        w.exec_if_begin(0, 0, &cm);
        assert_eq!(w.pc, 3, "jumped into else body");
        assert_eq!(w.active, 0b1111);
        w.pc = 4;
        w.exec_if_end();
        assert_eq!(w.active, 0b1111);
        assert_eq!(w.pc, 5);
    }

    #[test]
    fn if_no_else_nobody_taken_skips_region() {
        let body = vec![ifb(), Instr::Nop, Instr::IfEnd, Instr::Exit];
        let cm = ControlMap::build(&body).unwrap();
        let mut w = warp(2);
        w.exec_if_begin(0, 0, &cm);
        assert_eq!(w.pc, 3, "skipped past if.end");
        assert!(w.stack.is_empty());
        assert_eq!(w.active, 0b11);
    }

    #[test]
    fn if_all_taken_with_else_skips_else_at_else() {
        let body = vec![
            ifb(),
            Instr::Nop,
            Instr::Else,
            Instr::Nop,
            Instr::IfEnd,
            Instr::Exit,
        ];
        let cm = ControlMap::build(&body).unwrap();
        let mut w = warp(2);
        w.exec_if_begin(0, 0b11, &cm);
        assert_eq!(w.active, 0b11);
        w.pc = 2;
        w.exec_else();
        assert_eq!(w.pc, 5, "nobody pending: jump past if.end");
        assert_eq!(w.active, 0b11);
        assert!(w.stack.is_empty());
    }

    #[test]
    fn loop_iterates_until_all_break() {
        // 0: loop.begin 1: break 2: nop 3: loop.end 4: exit
        let body = vec![
            Instr::LoopBegin,
            Instr::Break {
                p: PReg(0),
                negate: false,
            },
            Instr::Nop,
            Instr::LoopEnd,
            Instr::Exit,
        ];
        let cm = ControlMap::build(&body).unwrap();
        let mut w = warp(4);
        w.exec_loop_begin(0, &cm);
        assert_eq!(w.pc, 1);
        // Iteration 1: lane 0 breaks.
        w.exec_break(0b0001);
        assert_eq!(w.active, 0b1110);
        assert_eq!(w.pc, 2);
        w.pc = 3;
        w.exec_loop_end();
        assert_eq!(w.pc, 1, "jumped back");
        // Iteration 2: nobody breaks.
        w.exec_break(0);
        assert_eq!(w.pc, 2);
        w.pc = 3;
        w.exec_loop_end();
        assert_eq!(w.pc, 1);
        // Iteration 3: everyone breaks.
        w.exec_break(0b1110);
        assert_eq!(w.active, 0b1111, "all lanes reunited past loop.end");
        assert_eq!(w.pc, 4);
        assert!(w.stack.is_empty());
    }

    #[test]
    fn break_inside_if_strips_if_masks() {
        // 0: loop.begin 1: if.begin 2: break 3: if.end 4: loop.end 5: exit
        let body = vec![
            Instr::LoopBegin,
            ifb(),
            Instr::Break {
                p: PReg(0),
                negate: false,
            },
            Instr::IfEnd,
            Instr::LoopEnd,
            Instr::Exit,
        ];
        let cm = ControlMap::build(&body).unwrap();
        let mut w = warp(4);
        w.exec_loop_begin(0, &cm);
        w.pc = 1;
        w.exec_if_begin(1, 0b0011, &cm); // lanes 0,1 enter the if
        assert_eq!(w.active, 0b0011);
        w.exec_break(0b0011); // both break out of the loop
                              // active empty inside the if; resume should unwind to the if's
                              // reconv (lanes 2,3) at pc 4 (after if.end).
        assert_eq!(w.active, 0b1100);
        assert_eq!(w.pc, 4);
        w.exec_loop_end();
        assert_eq!(w.pc, 1, "remaining lanes iterate");
        w.exec_if_begin(1, 0b1100, &cm);
        w.exec_break(0b1100);
        assert_eq!(w.active, 0b1111, "everyone past the loop");
        assert_eq!(w.pc, 5);
        assert!(w.stack.is_empty());
    }

    #[test]
    fn exit_divergent_resumes_else_lanes() {
        // 0: if.begin 1: exit 2: else 3: nop 4: if.end 5: exit
        let body = vec![
            ifb(),
            Instr::Exit,
            Instr::Else,
            Instr::Nop,
            Instr::IfEnd,
            Instr::Exit,
        ];
        let cm = ControlMap::build(&body).unwrap();
        let mut w = warp(4);
        w.exec_if_begin(0, 0b0101, &cm);
        w.exec_exit(); // lanes 0,2 exit inside the then branch
        assert_eq!(w.exited, 0b0101);
        assert_eq!(w.active, 0b1010, "else lanes resumed");
        assert_eq!(w.pc, 3);
        w.pc = 4;
        w.exec_if_end();
        assert_eq!(w.active, 0b1010, "exited lanes stay gone");
        w.exec_exit();
        assert!(w.finished);
        assert_eq!(w.exited, 0b1111);
    }

    #[test]
    fn exit_all_finishes_warp() {
        let mut w = warp(8);
        w.exec_exit();
        assert!(w.finished);
        assert_eq!(w.runnable_lanes(), 0);
    }

    #[test]
    fn nested_loops_break_targets_inner() {
        // 0: loop.begin 1: loop.begin 2: break 3: loop.end 4: break 5: loop.end 6: exit
        let body = vec![
            Instr::LoopBegin,
            Instr::LoopBegin,
            Instr::Break {
                p: PReg(0),
                negate: false,
            },
            Instr::LoopEnd,
            Instr::Break {
                p: PReg(1),
                negate: false,
            },
            Instr::LoopEnd,
            Instr::Exit,
        ];
        let cm = ControlMap::build(&body).unwrap();
        let mut w = warp(2);
        w.exec_loop_begin(0, &cm);
        w.pc = 1;
        w.exec_loop_begin(1, &cm);
        assert_eq!(w.stack.len(), 2);
        w.exec_break(0b11); // inner break releases past inner loop.end
        assert_eq!(w.pc, 4);
        assert_eq!(w.stack.len(), 1);
        assert_eq!(w.active, 0b11);
        w.exec_break(0b11); // outer break
        assert_eq!(w.pc, 6);
        assert!(w.stack.is_empty());
    }

    #[test]
    fn partial_warp_masks() {
        let w = warp(3);
        assert_eq!(w.live, 0b111);
        assert_eq!(full_mask(0), 0);
    }

    #[test]
    fn tid_mapping() {
        let mut w = warp(8);
        w.warp_in_block = 1;
        // warp 1 of a (4, y) block with warp size 8: linear ids 8..16
        assert_eq!(w.tid(0, 8, 4), (0, 2));
        assert_eq!(w.tid(5, 8, 4), (1, 3));
    }
}
