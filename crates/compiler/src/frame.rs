//! Stack-frame layout.
//!
//! The layout mirrors what GCC/LLVM produce under `-fstack-protector`:
//!
//! * the canary region sits directly below the saved frame pointer,
//! * buffers are placed *above* scalars (closest to the canary) so that an
//!   overflow reaches the canary before it can corrupt scalar locals, and
//! * under P-SSP-LV, every critical buffer additionally gets a guard canary
//!   slot at the address directly above it (§IV-B).

use std::sync::Arc;

use polycanary_core::layout::FrameInfo;
use polycanary_core::scheme::CanaryScheme;

use crate::error::CompileError;
use crate::ir::{FunctionDef, Local};

/// Maximum supported frame size (disp32 addressing of locals).
const MAX_FRAME: i64 = i32::MAX as i64 / 2;

/// Complete layout of one function's frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameLayout {
    /// The scheme-facing summary (size, protection flag, critical slots).
    pub info: FrameInfo,
    /// `%rbp`-relative offset of the *lowest* byte of each local, indexed by
    /// the local's declaration order in the [`FunctionDef`].  Shared, so
    /// every build that reuses a layout clones it without allocating.
    pub local_offsets: Arc<[i32]>,
    /// Number of canary words reserved directly below the saved `%rbp`.
    pub canary_words: u32,
}

impl FrameLayout {
    /// Offset of a local by declaration index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range (layouts are only built from
    /// validated functions).
    pub fn local_offset(&self, index: usize) -> i32 {
        self.local_offsets[index]
    }
}

/// Computes the frame layout of `func` under `scheme`.
///
/// # Errors
///
/// Returns [`CompileError::FrameTooLarge`] if the locals do not fit in a
/// 32-bit displacement.
pub fn layout_frame(
    func: &FunctionDef,
    scheme: &dyn CanaryScheme,
) -> Result<FrameLayout, CompileError> {
    let protected = func.needs_protection();
    let canary_words = if protected { scheme.canary_region_words() } else { 0 };
    let guard_locals = protected && scheme.properties().protects_local_variables;
    let guarded = |local: &Local| guard_locals && local.kind.is_critical();
    let slot_size = |local: &Local| (i64::from(local.kind.size()) + 7) / 8 * 8;
    let depth_of = |local: &Local| slot_size(local) + if guarded(local) { 8 } else { 0 };
    let region = 8 * i64::from(canary_words);

    // Buffers first (nearest the canary), then scalars — the reordering SSP
    // performs so buffer overflows cannot silently corrupt scalars.  Each
    // group keeps declaration order.  The frame only deepens as locals are
    // placed, so checking each placement in that order finds the first
    // local that does not fit.
    let buffers = func.locals.iter().filter(|local| local.kind.is_buffer());
    let scalars = func.locals.iter().filter(|local| !local.kind.is_buffer());
    let mut depth = region;
    let mut buffer_depth = region;
    for local in buffers.chain(scalars) {
        depth += depth_of(local);
        if depth > MAX_FRAME {
            return Err(CompileError::FrameTooLarge {
                function: func.name.to_string(),
                size: depth as u64,
            });
        }
        if local.kind.is_buffer() {
            buffer_depth = depth;
        }
    }

    // Offsets in declaration order: one cursor walks down the buffer group
    // (each critical buffer below its guard slot), one the scalar group.
    let (mut buffer_cursor, mut scalar_cursor) = (-region, -buffer_depth);
    let mut critical_slots = Vec::new();
    let local_offsets = func
        .locals
        .iter()
        .map(|local| {
            let cursor =
                if local.kind.is_buffer() { &mut buffer_cursor } else { &mut scalar_cursor };
            if guarded(local) {
                *cursor -= 8;
                critical_slots.push(*cursor as i32);
            }
            *cursor -= slot_size(local);
            *cursor as i32
        })
        .collect();

    let frame_size = ((depth + 15) / 16 * 16) as u32;
    let info = if protected {
        FrameInfo::protected(frame_size).with_critical_slots(critical_slots)
    } else {
        FrameInfo::unprotected(frame_size)
    };
    Ok(FrameLayout { info, local_offsets, canary_words })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::FunctionBuilder;
    use polycanary_core::scheme::SchemeKind;

    #[test]
    fn ssp_layout_places_buffer_below_single_canary() {
        let func = FunctionBuilder::new("f").buffer("buf", 16).scalar("x").build();
        let scheme = SchemeKind::Ssp.scheme();
        let layout = layout_frame(&func, scheme.as_ref()).unwrap();
        assert_eq!(layout.canary_words, 1);
        // Canary occupies [-8, 0); the buffer sits right below it.
        assert_eq!(layout.local_offset(0), -8 - 16);
        // The scalar sits below the buffer (reordered even though declared after).
        assert_eq!(layout.local_offset(1), -8 - 16 - 8);
        assert_eq!(layout.info.frame_size % 16, 0);
    }

    #[test]
    fn pssp_layout_reserves_two_canary_words() {
        let func = FunctionBuilder::new("f").buffer("buf", 16).build();
        let layout = layout_frame(&func, SchemeKind::Pssp.scheme().as_ref()).unwrap();
        assert_eq!(layout.canary_words, 2);
        assert_eq!(layout.local_offset(0), -16 - 16);
    }

    #[test]
    fn buffers_are_reordered_above_scalars() {
        // Declared scalar-first, but the buffer must end up closer to the
        // canary (higher address) than the scalar.
        let func = FunctionBuilder::new("f").scalar("x").buffer("buf", 32).build();
        let layout = layout_frame(&func, SchemeKind::Ssp.scheme().as_ref()).unwrap();
        assert!(layout.local_offset(1) > layout.local_offset(0));
    }

    #[test]
    fn lv_layout_inserts_guard_slots_above_critical_buffers() {
        let func =
            FunctionBuilder::new("f").critical_buffer("secret", 16).buffer("scratch", 16).build();
        let scheme = SchemeKind::PsspLv.scheme();
        let layout = layout_frame(&func, scheme.as_ref()).unwrap();
        assert_eq!(layout.info.critical_canary_slots.len(), 1);
        let guard = layout.info.critical_canary_slots[0];
        let secret = layout.local_offset(0);
        // The guard slot is the word directly above the critical buffer.
        assert_eq!(guard, secret + 16);
    }

    #[test]
    fn non_lv_schemes_do_not_insert_guard_slots() {
        let func = FunctionBuilder::new("f").critical_buffer("secret", 16).build();
        let layout = layout_frame(&func, SchemeKind::Pssp.scheme().as_ref()).unwrap();
        assert!(layout.info.critical_canary_slots.is_empty());
    }

    #[test]
    fn unprotected_functions_have_no_canary_region() {
        let func = FunctionBuilder::new("leaf").scalar("x").scalar("y").build();
        let layout = layout_frame(&func, SchemeKind::Pssp.scheme().as_ref()).unwrap();
        assert_eq!(layout.canary_words, 0);
        assert!(!layout.info.protected);
        assert_eq!(layout.local_offset(0), -8);
        assert_eq!(layout.local_offset(1), -16);
    }

    #[test]
    fn an_unprotected_layout_is_the_same_under_every_scheme() {
        // The front half lays out unprotected functions once, for every
        // scheme: that is sound only if no scheme changes their layout.
        let func = FunctionBuilder::new("leaf").scalar("x").scalar("y").scalar("z").build();
        let reference = layout_frame(&func, SchemeKind::Native.scheme().as_ref()).unwrap();
        assert!(!reference.info.protected);
        for kind in SchemeKind::ALL {
            assert_eq!(layout_frame(&func, kind.scheme().as_ref()).unwrap(), reference, "{kind}");
        }
    }

    #[test]
    fn buffer_sizes_are_rounded_to_words() {
        let func = FunctionBuilder::new("f").buffer("odd", 13).build();
        let layout = layout_frame(&func, SchemeKind::Ssp.scheme().as_ref()).unwrap();
        assert_eq!(layout.local_offset(0), -8 - 16);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let func = FunctionBuilder::new("huge").buffer("big", u32::MAX / 2).build();
        let err = layout_frame(&func, SchemeKind::Ssp.scheme().as_ref()).unwrap_err();
        assert!(matches!(err, CompileError::FrameTooLarge { .. }));
    }

    #[test]
    fn two_pass_layout_matches_a_stable_sort_of_buffers_before_scalars() {
        use crate::ir::{Local, LocalKind};
        use polycanary_crypto::{Prng, SplitMix64};
        let kinds = |pick: u64| match pick % 3 {
            0 => LocalKind::Scalar,
            1 => LocalKind::Buffer { size: 1 + (pick % 40) as u32 },
            _ => LocalKind::CriticalBuffer { size: 8 + (pick % 24) as u32 },
        };
        for seed in 0..64u64 {
            let mut rng = SplitMix64::new(seed);
            let locals: Vec<Local> = (0..rng.next_u64() % 7)
                .map(|i| Local { name: format!("l{i}").into(), kind: kinds(rng.next_u64()) })
                .collect();
            let func = FunctionDef { name: "f".into(), locals, body: Vec::new() };
            // The reference order: a stable sort, buffers first.
            let mut order: Vec<usize> = (0..func.locals.len()).collect();
            order.sort_by_key(|&i| usize::from(!func.locals[i].kind.is_buffer()));
            for kind in [SchemeKind::Ssp, SchemeKind::PsspLv] {
                let layout = layout_frame(&func, kind.scheme().as_ref()).unwrap();
                let mut placed: Vec<usize> = (0..func.locals.len()).collect();
                placed.sort_by_key(|&i| std::cmp::Reverse(layout.local_offset(i)));
                assert_eq!(placed, order, "{kind} seed {seed}: locals placed top-down");
            }
        }
    }

    #[test]
    fn frame_size_covers_all_locals_and_canaries() {
        let func = FunctionBuilder::new("f").buffer("a", 64).buffer("b", 32).scalar("c").build();
        let layout = layout_frame(&func, SchemeKind::Pssp.scheme().as_ref()).unwrap();
        let lowest = *layout.local_offsets.iter().min().unwrap();
        assert!(i64::from(layout.info.frame_size) >= i64::from(-lowest));
    }
}
