//! The branch-condition sequence φ: compression and relevance filtering.
//!
//! φ is the sequence of symbolic branch conditions recorded along the seed
//! path (§3.2). Before enforcement, DIODE
//!
//! 1. **compresses** φ (Figure 8): all occurrences of the same conditional
//!    branch label are coalesced into a single constraint — the
//!    conjunction of the observed per-occurrence constraints — keeping the
//!    position of the label's *first* occurrence;
//! 2. keeps only **relevant** conditions (§3.3): those sharing at least
//!    one input byte with the target constraint β.

use diode_interp::BranchObs;
use diode_lang::Label;
use diode_symbolic::SymBool;

/// One compressed, oriented branch condition ⟨ℓ, B⟩.
#[derive(Debug, Clone)]
pub struct CompressedCond {
    /// Label of the conditional branch.
    pub label: Label,
    /// Conjunction of the constraints observed at every occurrence of the
    /// label, each already oriented to the direction the seed took.
    pub constraint: SymBool,
    /// Number of dynamic occurrences coalesced into this condition.
    pub occurrences: usize,
}

/// Figure 8: coalesces multiple occurrences of each conditional branch
/// into a single constraint, preserving first-occurrence order.
///
/// Untainted observations contribute `true` (no constraint); labels whose
/// every occurrence is untainted still appear (with a `true` constraint)
/// but are dropped by [`relevant`].
#[must_use]
pub fn compress(obs: &[BranchObs<Option<SymBool>>]) -> Vec<CompressedCond> {
    // Labels are dense per program, so a vector indexed by label maps
    // each one to its condition's position in `out`.
    let mut position: Vec<Option<usize>> = Vec::new();
    let mut out: Vec<CompressedCond> = Vec::new();
    for o in obs {
        let label = o.label.0 as usize;
        if label >= position.len() {
            position.resize(label + 1, None);
        }
        let at = *position[label].get_or_insert_with(|| {
            out.push(CompressedCond {
                label: o.label,
                constraint: SymBool::Const(true),
                occurrences: 0,
            });
            out.len() - 1
        });
        let entry = &mut out[at];
        entry.occurrences += 1;
        if let Some(c) = &o.constraint {
            entry.constraint = entry.constraint.and(c);
        }
    }
    out
}

/// §3.3: keeps conditions that share an input byte with the target
/// constraint (whose sorted byte set is `beta_bytes`).
#[must_use]
pub fn relevant(conds: Vec<CompressedCond>, beta_bytes: &[u32]) -> Vec<CompressedCond> {
    conds
        .into_iter()
        .filter(|c| c.constraint.intersects_bytes(beta_bytes))
        .collect()
}

/// Counts the dynamic occurrences of relevant conditional branches in a
/// raw observation sequence — Table 2's "total relevant conditional
/// branches on the path" denominator.
#[must_use]
pub fn count_relevant_occurrences(obs: &[BranchObs<Option<SymBool>>], beta_bytes: &[u32]) -> usize {
    obs.iter()
        .filter(|o| {
            o.constraint
                .as_ref()
                .is_some_and(|c| c.intersects_bytes(beta_bytes))
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use diode_lang::{Bv, CastKind, CmpOp};
    use diode_symbolic::SymExpr;

    fn byte32(off: u32) -> SymExpr {
        SymExpr::input_byte(off).cast(CastKind::Zext, 32)
    }

    fn obs(label: u32, taken: bool, c: Option<SymBool>) -> BranchObs<Option<SymBool>> {
        BranchObs {
            label: Label(label),
            taken,
            constraint: c,
        }
    }

    fn lt(off: u32, bound: u32) -> SymBool {
        SymBool::cmp(CmpOp::Ult, byte32(off), SymExpr::constant(Bv::u32(bound)))
    }

    #[test]
    fn compress_coalesces_loop_occurrences() {
        // A loop at label 7 evaluated 3 times, then a check at label 9.
        let seq = vec![
            obs(7, true, Some(lt(0, 10))),
            obs(7, true, Some(lt(0, 20))),
            obs(7, false, Some(lt(0, 30))),
            obs(9, true, Some(lt(1, 5))),
        ];
        let c = compress(&seq);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].label, Label(7));
        assert_eq!(c[0].occurrences, 3);
        assert_eq!(c[1].label, Label(9));
        // The compressed constraint is the conjunction of all three.
        assert!(c[0].constraint.eval(&|_| 5));
        assert!(!c[0].constraint.eval(&|_| 25)); // violates lt(0,10) and lt(0,20)
    }

    #[test]
    fn compress_preserves_first_occurrence_order() {
        let seq = vec![
            obs(9, true, Some(lt(1, 5))),
            obs(7, true, Some(lt(0, 10))),
            obs(9, false, Some(lt(1, 50))),
        ];
        let c = compress(&seq);
        assert_eq!(
            c.iter().map(|x| x.label).collect::<Vec<_>>(),
            vec![Label(9), Label(7)]
        );
        assert_eq!(c[0].occurrences, 2);
    }

    #[test]
    fn untainted_observations_yield_true_constraints() {
        let seq = vec![obs(3, true, None), obs(3, false, None)];
        let c = compress(&seq);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].constraint, SymBool::Const(true));
        // …and relevance filtering drops them.
        assert!(relevant(c, &[0, 1]).is_empty());
    }

    #[test]
    fn relevant_keeps_only_overlapping_conditions() {
        let seq = vec![
            obs(1, true, Some(lt(0, 10))),
            obs(2, true, Some(lt(5, 10))),
            obs(3, true, None),
        ];
        let kept = relevant(compress(&seq), &[5, 6]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].label, Label(2));
    }

    #[test]
    fn count_relevant_counts_occurrences_not_labels() {
        let seq = vec![
            obs(7, true, Some(lt(0, 10))),
            obs(7, true, Some(lt(0, 10))),
            obs(7, true, Some(lt(0, 10))),
            obs(8, true, Some(lt(9, 10))),
            obs(9, true, None),
        ];
        assert_eq!(count_relevant_occurrences(&seq, &[0]), 3);
        assert_eq!(count_relevant_occurrences(&seq, &[9]), 1);
        assert_eq!(count_relevant_occurrences(&seq, &[4]), 0);
    }
}
