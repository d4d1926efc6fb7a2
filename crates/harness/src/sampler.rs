//! Operation classes and the weighted mix sampler that drives workers.

use crate::json::Json;
use crate::rng::Rng;

/// One operation class. The first six are the query shapes the report
/// breaks out per class; the last three exercise the write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Primary-key record load.
    PointGet,
    /// Fetching range scan over `by_group_score` (group eq + score ge).
    RangeScan,
    /// Same filter projected to indexed fields — served covering.
    CoveringScan,
    /// `by_group ∩ by_score` streaming merge-join intersection.
    Intersection,
    /// OR of two group predicates, planned as a Union.
    Union,
    /// `group IN (...)` — residual-only today, the unoptimized baseline.
    InQuery,
    /// k-th element via the RANK skip list.
    Rank,
    /// Save a brand-new record.
    Insert,
    /// Re-save an existing (Zipf-hot) record with a new score.
    Update,
}

impl OpKind {
    pub const ALL: [OpKind; 9] = [
        OpKind::PointGet,
        OpKind::RangeScan,
        OpKind::CoveringScan,
        OpKind::Intersection,
        OpKind::Union,
        OpKind::InQuery,
        OpKind::Rank,
        OpKind::Insert,
        OpKind::Update,
    ];

    /// Stable snake_case identifier used as the JSON key.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::PointGet => "point_get",
            OpKind::RangeScan => "range_scan",
            OpKind::CoveringScan => "covering_scan",
            OpKind::Intersection => "intersection",
            OpKind::Union => "union",
            OpKind::InQuery => "in_query",
            OpKind::Rank => "rank",
            OpKind::Insert => "insert",
            OpKind::Update => "update",
        }
    }

    /// Write ops commit; read ops drop their transaction uncommitted.
    pub fn is_write(&self) -> bool {
        matches!(self, OpKind::Insert | OpKind::Update)
    }

    /// Query-shape ops (planner/executor driven, reported with a
    /// canonical [`record_layer::query::RecordQuery::shape`] string).
    pub fn is_query_shape(&self) -> bool {
        matches!(
            self,
            OpKind::RangeScan
                | OpKind::CoveringScan
                | OpKind::Intersection
                | OpKind::Union
                | OpKind::InQuery
        )
    }
}

/// Relative operation weights. Zero disables a class; the sampler draws
/// proportionally to weight over the total.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpMix {
    pub point_get: u32,
    pub range_scan: u32,
    pub covering_scan: u32,
    pub intersection: u32,
    pub union: u32,
    pub in_query: u32,
    pub rank: u32,
    pub insert: u32,
    pub update: u32,
}

impl OpMix {
    /// All-zero mix, for struct-update spelling of sparse mixes.
    pub fn none() -> OpMix {
        OpMix::default()
    }

    pub fn weight(&self, op: OpKind) -> u32 {
        match op {
            OpKind::PointGet => self.point_get,
            OpKind::RangeScan => self.range_scan,
            OpKind::CoveringScan => self.covering_scan,
            OpKind::Intersection => self.intersection,
            OpKind::Union => self.union,
            OpKind::InQuery => self.in_query,
            OpKind::Rank => self.rank,
            OpKind::Insert => self.insert,
            OpKind::Update => self.update,
        }
    }

    pub fn total(&self) -> u32 {
        OpKind::ALL.iter().map(|&op| self.weight(op)).sum()
    }

    /// Combined weight of the planner/executor query shapes.
    pub fn query_weight(&self) -> u32 {
        OpKind::ALL
            .iter()
            .filter(|op| op.is_query_shape())
            .map(|&op| self.weight(op))
            .sum()
    }

    /// Draw one op class proportionally to the weights.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> OpKind {
        let total = self.total();
        debug_assert!(total > 0, "sampling an empty op mix");
        let mut ticket = rng.gen_range(0..total as usize) as u32;
        for &op in &OpKind::ALL {
            let w = self.weight(op);
            if ticket < w {
                return op;
            }
            ticket -= w;
        }
        unreachable!("ticket exceeds total weight")
    }

    /// Enabled classes, in declaration order.
    pub fn enabled(&self) -> Vec<OpKind> {
        OpKind::ALL
            .iter()
            .copied()
            .filter(|&op| self.weight(op) > 0)
            .collect()
    }

    pub fn json(&self) -> Json {
        let mut obj = Json::obj();
        for &op in &OpKind::ALL {
            obj.set(op.name(), self.weight(op));
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64;
    use std::collections::HashMap;

    #[test]
    fn sampler_matches_requested_ratios() {
        // Property: over many draws, each class's empirical frequency is
        // within 2 percentage points (absolute) of its requested ratio.
        let mixes = [
            OpMix {
                point_get: 30,
                range_scan: 15,
                covering_scan: 10,
                intersection: 5,
                union: 5,
                in_query: 5,
                rank: 5,
                insert: 10,
                update: 15,
            },
            OpMix {
                point_get: 1,
                update: 3,
                ..OpMix::none()
            },
            OpMix {
                rank: 7,
                insert: 2,
                in_query: 1,
                ..OpMix::none()
            },
        ];
        for (mi, mix) in mixes.iter().enumerate() {
            let mut rng = XorShift64::seed_from_u64(0xA11CE + mi as u64);
            const DRAWS: usize = 100_000;
            let mut counts: HashMap<&'static str, usize> = HashMap::new();
            for _ in 0..DRAWS {
                *counts.entry(mix.sample(&mut rng).name()).or_default() += 1;
            }
            let total = mix.total() as f64;
            for &op in &OpKind::ALL {
                let want = mix.weight(op) as f64 / total;
                let got = *counts.get(op.name()).unwrap_or(&0) as f64 / DRAWS as f64;
                assert!(
                    (want - got).abs() < 0.02,
                    "mix {mi} {}: want {want:.3}, got {got:.3}",
                    op.name()
                );
                if mix.weight(op) == 0 {
                    assert_eq!(got, 0.0, "disabled class {} was sampled", op.name());
                }
            }
        }
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let names: Vec<_> = OpKind::ALL.iter().map(|op| op.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(names.contains(&"point_get") && names.contains(&"union"));
    }
}
