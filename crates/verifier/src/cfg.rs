//! Control-flow graph construction over `&[Inst]` function bodies.
//!
//! The instruction set encodes control flow as *relative skips*: a branch at
//! index `i` with skip `n` transfers to index `i + 1 + n` when taken (see
//! [`Inst::branch_skip`]).  Block leaders are therefore the function entry,
//! every branch target, and every instruction following a branch, call or
//! return; successor edges follow the interpreter semantics exactly —
//! `jmp` has only its taken edge, `ret` has none, and
//! [`Inst::CallStackChkFail`] aborts the process, so it has no successors
//! either.
//!
//! The graph is deliberately generic (no canary knowledge): it is the
//! substrate for the dataflow pass in [`crate::dataflow`] and is exposed so
//! future passes — instruction scheduling, dead-store elimination — can
//! reuse it unchanged.

use polycanary_vm::inst::Inst;

/// One basic block: the half-open instruction range `[start, end)` plus its
/// successor edges (block ids).  A block ends in at most one branch, so it
/// has at most two successors, kept inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Index of the block's first instruction (its leader).
    pub start: usize,
    /// One past the index of the block's last instruction.
    pub end: usize,
    successors: [usize; 2],
    successor_count: u8,
}

impl BasicBlock {
    /// The instruction range of this block.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// Ids of the blocks control can transfer to from this block's last
    /// instruction: the fall-through block first, then the branch target.
    /// A branch target beyond the end of the body contributes no edge
    /// (control falls off the function).
    pub fn successors(&self) -> &[usize] {
        &self.successors[..usize::from(self.successor_count)]
    }

    fn add_successor(&mut self, id: usize) {
        if !self.successors().contains(&id) {
            self.successors[usize::from(self.successor_count)] = id;
            self.successor_count += 1;
        }
    }
}

/// The control-flow graph of one function body.
///
/// [`Cfg::rebuild`] reuses the graph's buffers, so a verifier walking many
/// functions allocates for the largest one only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    /// Instruction index → id of the containing block.
    block_index: Vec<usize>,
}

impl Cfg {
    /// Builds the CFG of `insts`.  An empty body yields an empty graph.
    pub fn build(insts: &[Inst]) -> Cfg {
        let mut cfg = Cfg::default();
        cfg.rebuild(insts);
        cfg
    }

    /// Replaces this graph with the CFG of `insts`, reusing its buffers.
    pub fn rebuild(&mut self, insts: &[Inst]) {
        let Cfg { blocks, block_index } = self;
        blocks.clear();
        block_index.clear();
        if insts.is_empty() {
            return;
        }

        // Leaders: entry, branch targets, and the instruction after every
        // branch, call, return or abort.  They are marked non-zero in the
        // block index, which the carving pass below then overwrites.
        block_index.resize(insts.len(), 0);
        block_index[0] = 1;
        for (i, inst) in insts.iter().enumerate() {
            if let Some(skip) = inst.branch_skip() {
                if let Some(target) = i.checked_add(1 + skip) {
                    if target < insts.len() {
                        block_index[target] = 1;
                    }
                }
                if i + 1 < insts.len() {
                    block_index[i + 1] = 1;
                }
            } else if (inst.is_call() || !inst.falls_through()) && i + 1 < insts.len() {
                block_index[i + 1] = 1;
            }
        }

        // Carve blocks and index instructions.  Instruction `i + 1` still
        // holds its leader mark when instruction `i` is indexed.
        let mut start = 0;
        for i in 0..insts.len() {
            let block_ends = i + 1 == insts.len() || block_index[i + 1] != 0;
            block_index[i] = blocks.len();
            if block_ends {
                blocks.push(BasicBlock {
                    start,
                    end: i + 1,
                    successors: [0; 2],
                    successor_count: 0,
                });
                start = i + 1;
            }
        }

        // Successor edges from each block's last instruction.
        for block in blocks.iter_mut() {
            let last = block.end - 1;
            let inst = &insts[last];
            if inst.falls_through() && block.end < insts.len() {
                block.add_successor(block_index[block.end]);
            }
            if let Some(skip) = inst.branch_skip() {
                if let Some(target) = last.checked_add(1 + skip) {
                    if target < insts.len() {
                        block.add_successor(block_index[target]);
                    }
                }
            }
        }
    }

    /// The blocks of the graph in instruction order (block 0 is the entry).
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Id of the block containing instruction `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the body the graph was built from.
    pub fn block_of(&self, index: usize) -> usize {
        self.block_index[index]
    }

    /// Per-block reachability from the entry block.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = Vec::new();
        self.mark_reachable(&mut seen, &mut Vec::new());
        seen
    }

    /// [`Cfg::reachable`] into `seen`, with `work` as the worklist; both are
    /// cleared first and keep their capacity.
    pub(crate) fn mark_reachable(&self, seen: &mut Vec<bool>, work: &mut Vec<usize>) {
        seen.clear();
        seen.resize(self.blocks.len(), false);
        work.clear();
        if self.blocks.is_empty() {
            return;
        }
        work.push(0);
        seen[0] = true;
        while let Some(id) = work.pop() {
            for &succ in self.blocks[id].successors() {
                if !seen[succ] {
                    seen[succ] = true;
                    work.push(succ);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_vm::reg::Reg;

    #[test]
    fn straight_line_body_is_one_block() {
        let insts =
            vec![Inst::PushReg(Reg::Rbp), Inst::Compute(10), Inst::Nop, Inst::Leave, Inst::Ret];
        let cfg = Cfg::build(&insts);
        assert_eq!(cfg.blocks().len(), 1);
        assert_eq!(cfg.blocks()[0].range(), 0..5);
        assert!(cfg.blocks()[0].successors().is_empty(), "ret has no successors");
    }

    #[test]
    fn conditional_branch_splits_three_ways() {
        // 0: test  1: je +1  2: fail  3: nop  4: ret
        let insts = vec![
            Inst::TestReg(Reg::Rax),
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
            Inst::Nop,
            Inst::Ret,
        ];
        let cfg = Cfg::build(&insts);
        // [test, je] / [fail] / [nop, ret]
        assert_eq!(cfg.blocks().len(), 3);
        assert_eq!(cfg.blocks()[0].successors(), [1, 2]);
        assert!(cfg.blocks()[1].successors().is_empty(), "__stack_chk_fail aborts");
        assert!(cfg.blocks()[2].successors().is_empty());
        assert_eq!(cfg.block_of(2), 1);
        assert_eq!(cfg.block_of(4), 2);
    }

    #[test]
    fn unconditional_jump_has_no_fall_through_edge() {
        // 0: jmp +1  1: nop (unreachable)  2: ret
        let insts = vec![Inst::JmpSkip(1), Inst::Nop, Inst::Ret];
        let cfg = Cfg::build(&insts);
        assert_eq!(cfg.blocks().len(), 3);
        assert_eq!(cfg.blocks()[0].successors(), [2]);
        let reachable = cfg.reachable();
        assert!(reachable[0] && !reachable[1] && reachable[2]);
    }

    #[test]
    fn call_starts_a_new_block_with_a_fall_through_edge() {
        use polycanary_vm::inst::FuncId;
        let insts = vec![Inst::CallFn(FuncId(1)), Inst::Compute(5), Inst::Ret];
        let cfg = Cfg::build(&insts);
        assert_eq!(cfg.blocks().len(), 2);
        assert_eq!(cfg.blocks()[0].successors(), [1]);
    }

    #[test]
    fn branch_target_past_the_end_contributes_no_edge() {
        let insts = vec![Inst::TestReg(Reg::Rax), Inst::JeSkip(5), Inst::Ret];
        let cfg = Cfg::build(&insts);
        let last = &cfg.blocks()[cfg.block_of(1)];
        // Only the fall-through edge to the ret block survives.
        assert_eq!(last.successors(), [cfg.block_of(2)]);
    }

    #[test]
    fn empty_body_yields_an_empty_graph() {
        let cfg = Cfg::build(&[]);
        assert!(cfg.blocks().is_empty());
        assert!(cfg.reachable().is_empty());
    }

    #[test]
    fn a_rebuilt_graph_equals_a_fresh_one() {
        let branchy = vec![
            Inst::TestReg(Reg::Rax),
            Inst::JneSkip(2),
            Inst::Compute(1),
            Inst::JmpSkip(1),
            Inst::Compute(2),
            Inst::Ret,
        ];
        let straight = vec![Inst::Compute(1), Inst::Ret];
        let mut cfg = Cfg::build(&branchy);
        for insts in [&straight, &branchy, &Vec::new(), &straight] {
            cfg.rebuild(insts);
            assert_eq!(cfg, Cfg::build(insts));
        }
    }

    #[test]
    fn blocks_partition_the_body() {
        let insts = vec![
            Inst::TestReg(Reg::Rax),
            Inst::JneSkip(2),
            Inst::Compute(1),
            Inst::JmpSkip(1),
            Inst::Compute(2),
            Inst::Ret,
        ];
        let cfg = Cfg::build(&insts);
        let mut covered = vec![0usize; insts.len()];
        for block in cfg.blocks() {
            for i in block.range() {
                covered[i] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "every instruction in exactly one block");
    }
}
