//! Seeded input generation for the campaign workloads: an open-loop job
//! arrival stream in simulated time and a fault plan that carries every
//! [`FaultKind`] variant. The benchmark passes only these generated
//! inputs to the engine; the same seed always yields the same campaign.

use cimone_cluster::checkpoint::GENERATION_DEPTH;
use cimone_cluster::engine::{ClusterWorkload, JobRequest};
use cimone_cluster::faults::{FaultKind, FaultPlan, SdcTarget};
use cimone_cluster::perf::HplProblem;
use cimone_soc::units::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nodes and blades of the machine the plans target.
pub const NODES: usize = 8;
pub const BLADES: usize = 4;

/// Number of distinct [`FaultKind`] variants; every plan round carries
/// each of them once.
pub const FAULT_KINDS: usize = 19;

/// One job submission at a point in simulated time.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub at: SimTime,
    pub request: JobRequest,
}

/// A generated campaign: what arrives when, and what breaks when.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub arrivals: Vec<Arrival>,
    pub plan: FaultPlan,
}

/// Mean open-loop inter-arrival time, simulated seconds.
const MEAN_INTERARRIVAL_S: f64 = 2400.0;
/// Share of the gaps between arrivals that are multi-hour idle gaps.
const IDLE_GAP_SHARE: f64 = 0.15;
/// Idle gaps span this many simulated seconds.
const IDLE_GAP_S: (f64, f64) = (7200.0, 14400.0);
/// Arrivals per fault-plan round: each round replays every fault kind.
const ARRIVALS_PER_ROUND: usize = 24;

/// The job mix, dealt round-robin: 1-, 2-, 4- and 8-node HPL, single-node
/// QE LAX and STREAM (DDR- and L2-resident).
const MIX: [(usize, ClusterWorkload); 8] = [
    (8, ClusterWorkload::Hpl(HplProblem { n: 20480, nb: 192 })),
    (4, ClusterWorkload::Hpl(HplProblem { n: 16384, nb: 192 })),
    (2, ClusterWorkload::Hpl(HplProblem { n: 12288, nb: 192 })),
    (1, ClusterWorkload::Hpl(HplProblem { n: 8192, nb: 192 })),
    (1, ClusterWorkload::QeLax),
    (4, ClusterWorkload::StreamDdr { secs: 1200 }),
    (2, ClusterWorkload::StreamL2 { secs: 600 }),
    (8, ClusterWorkload::Hpl(HplProblem { n: 12288, nb: 192 })),
];

/// Seed of the campaign skeleton: the order of the jobs, of the gaps
/// between them and of the fault kinds. It is the same for every run.
const SKELETON_SEED: u64 = 0x4d43_5f52_5637;

/// The open-loop arrival stream plus its fault plan, drawn from `seed`.
///
/// A fixed skeleton sets how much work there is and roughly when: the
/// job mix is dealt round-robin from a fixed table (1-, 2-, 4- and 8-node
/// HPL, single-node QE LAX and STREAM) and the gaps between arrivals are
/// a fixed multiset (exponential quantiles with a 40-minute mean, plus
/// 15% multi-hour idle gaps) in a fixed shuffled order; each fault kind
/// has a fixed time and target (node, blade, flip region, checkpoint
/// generation). The seed draws the flipped word and bit, and the engine
/// draws its sensor noise and message loss from the same seed. The seed
/// moves nothing that changes how much work a run does: shifting arrivals
/// by up to a minute changed how many ticks the event clock steps by up
/// to 10%, and a seeded flip region or checkpoint generation changed the
/// recovery path and the event log's size, so runs with different seeds
/// would have timed different amounts of work. The first arrival is
/// always an 8-node HPL job.
///
/// The fault plan covers the arrival window in `ceil(arrivals / 24)`
/// rounds; each round places all 19 fault kinds in disjoint slots, so no
/// two windows overlap and the plan passes [`FaultPlan::validate`] for 8
/// nodes in 4 blades.
///
/// # Panics
///
/// Panics if `arrivals` is zero.
pub fn campaign(seed: u64, arrivals: usize) -> Campaign {
    assert!(arrivals > 0, "a campaign needs at least one arrival");
    let mut skeleton = StdRng::seed_from_u64(SKELETON_SEED);
    let mut gaps = gaps(arrivals.saturating_sub(1));
    shuffle(&mut skeleton, &mut gaps);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut t = 60.0f64;
    let mut out = Vec::with_capacity(arrivals);
    for i in 0..arrivals {
        let j = i % MIX.len();
        let (nodes, workload) = MIX[j];
        out.push(Arrival {
            at: SimTime::from_secs(t as u64),
            request: JobRequest {
                name: format!("job{i}-mix{j}"),
                user: "campaign".into(),
                nodes,
                workload,
            },
        });
        t += gaps.get(i).copied().unwrap_or(0.0);
    }
    let first = out[0].at.as_secs_f64();
    let last = out[arrivals - 1].at.as_secs_f64().max(first + 3600.0);
    let rounds = arrivals.div_ceil(ARRIVALS_PER_ROUND);
    let plan = fault_plan(&mut skeleton, &mut rng, first, last, rounds);
    Campaign {
        arrivals: out,
        plan,
    }
}

/// The `count` gaps between arrivals, before shuffling.
fn gaps(count: usize) -> Vec<f64> {
    let idle = (IDLE_GAP_SHARE * count as f64).round() as usize;
    let busy = count - idle;
    let quantile = |j: usize, m: usize| (j as f64 + 0.5) / m as f64;
    let mut gaps: Vec<f64> = (0..busy)
        .map(|j| -MEAN_INTERARRIVAL_S * (1.0 - quantile(j, busy)).ln())
        .collect();
    gaps.extend(
        (0..idle).map(|j| IDLE_GAP_S.0 + (IDLE_GAP_S.1 - IDLE_GAP_S.0) * quantile(j, idle)),
    );
    gaps
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// `rounds` rounds of every fault kind spread over `[from, to)` seconds.
fn fault_plan(
    skeleton: &mut StdRng,
    rng: &mut StdRng,
    from: f64,
    to: f64,
    rounds: usize,
) -> FaultPlan {
    let slots = rounds * FAULT_KINDS;
    let slot = (to - from) / slots as f64;
    let mut plan = FaultPlan::new();
    for round in 0..rounds {
        let mut order: Vec<usize> = (0..FAULT_KINDS).collect();
        shuffle(skeleton, &mut order);
        for (k, &kind) in order.iter().enumerate() {
            let start = from + slot * (round * FAULT_KINDS + k) as f64;
            // Every window (and every outage's repair) closes inside the
            // first half of its slot, so no two windows ever overlap.
            let at = SimTime::from_secs((start + skeleton.gen_range(0.0..0.25 * slot)) as u64);
            let span = SimDuration::from_secs((0.15 * slot) as u64 + 1);
            let target = Target {
                at,
                span,
                node: skeleton.gen_range(0..NODES),
                blade: skeleton.gen_range(0..BLADES),
                region: if skeleton.gen_bool(0.5) {
                    SdcTarget::TrailingMatrix
                } else {
                    SdcTarget::FactoredPanel
                },
                generation: skeleton.gen_range(0..GENERATION_DEPTH),
            };
            push_kind(&mut plan, rng, kind, target);
        }
    }
    plan
}

/// Where and when one fault strikes: fixed by the campaign skeleton.
struct Target {
    at: SimTime,
    span: SimDuration,
    node: usize,
    blade: usize,
    /// Region a bit flip hits.
    region: SdcTarget,
    /// Checkpoint generation a corruption hits.
    generation: usize,
}

fn push_kind(plan: &mut FaultPlan, rng: &mut StdRng, kind: usize, target: Target) {
    let Target {
        at,
        span,
        node,
        blade,
        region,
        generation,
    } = target;
    // Outages open at `at` and are repaired when their window closes.
    let repaired = |plan: &mut FaultPlan, outage: FaultKind, nodes: &[usize]| {
        plan.push(at, outage);
        for &node in nodes {
            plan.push(at + span, FaultKind::NodeRecover { node });
        }
    };
    let kind = match kind {
        0 => return repaired(plan, FaultKind::NodeCrash { node }, &[node]),
        // A repair with no outage before it: a no-op the engine must take
        // in its stride.
        1 => FaultKind::NodeRecover { node },
        2 => FaultKind::SensorDropout { node, span },
        3 => FaultKind::SensorStuck { node, span },
        4 => FaultKind::BrokerMessageLoss { rate: 0.05, span },
        5 => FaultKind::SubscriberDisconnect { span },
        6 => FaultKind::LinkDegrade { factor: 2.0, span },
        7 => FaultKind::Partition {
            a: node,
            b: (node + 1 + blade) % NODES,
            span,
        },
        8 => FaultKind::NfsStall { span },
        9 => return repaired(plan, FaultKind::SpuriousThermalTrip { node }, &[node]),
        10 => {
            let pair = [2 * blade, 2 * blade + 1];
            return repaired(plan, FaultKind::PsuFailure { blade }, &pair);
        }
        11 => FaultKind::RailBrownout {
            blade,
            budget_frac: 0.6,
            span,
        },
        12 => FaultKind::SwitchOutage { span },
        13 => FaultKind::NfsExportDown { span },
        14 => FaultKind::MultiRailBrownout {
            budget_frac: 0.7,
            span,
        },
        15 => FaultKind::FanFailure { blade, span },
        16 => FaultKind::BitFlip {
            node,
            target: region,
            word: rng.gen_range(0..1usize << 20),
            bit: rng.gen_range(0..64u32),
        },
        17 => FaultKind::CheckpointCorruption { node, generation },
        _ => FaultKind::PayloadCorruption { node, span },
    };
    plan.push(at, kind);
}

/// A stable index for each [`FaultKind`] variant (its declaration order).
#[cfg(test)]
fn kind_index(kind: &FaultKind) -> usize {
    match kind {
        FaultKind::NodeCrash { .. } => 0,
        FaultKind::NodeRecover { .. } => 1,
        FaultKind::SensorDropout { .. } => 2,
        FaultKind::SensorStuck { .. } => 3,
        FaultKind::BrokerMessageLoss { .. } => 4,
        FaultKind::SubscriberDisconnect { .. } => 5,
        FaultKind::LinkDegrade { .. } => 6,
        FaultKind::Partition { .. } => 7,
        FaultKind::NfsStall { .. } => 8,
        FaultKind::SpuriousThermalTrip { .. } => 9,
        FaultKind::PsuFailure { .. } => 10,
        FaultKind::RailBrownout { .. } => 11,
        FaultKind::SwitchOutage { .. } => 12,
        FaultKind::NfsExportDown { .. } => 13,
        FaultKind::MultiRailBrownout { .. } => 14,
        FaultKind::FanFailure { .. } => 15,
        FaultKind::BitFlip { .. } => 16,
        FaultKind::CheckpointCorruption { .. } => 17,
        FaultKind::PayloadCorruption { .. } => 18,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(plan: &FaultPlan) -> Vec<bool> {
        let mut seen = vec![false; FAULT_KINDS];
        for event in plan.events() {
            seen[kind_index(&event.kind)] = true;
        }
        seen
    }

    #[test]
    fn every_fault_kind_is_planned_and_the_plan_validates() {
        for seed in [0, 1, 2022, 740, u64::MAX] {
            for arrivals in [1, 8, 32, 100] {
                let c = campaign(seed, arrivals);
                assert!(
                    kinds(&c.plan).iter().all(|&k| k),
                    "seed {seed}: a fault kind is missing"
                );
                c.plan
                    .validate(NODES, BLADES)
                    .unwrap_or_else(|e| panic!("seed {seed}, {arrivals} arrivals: {e}"));
                assert_eq!(c.arrivals.len(), arrivals);
            }
        }
    }

    #[test]
    fn the_seed_changes_fault_parameters_not_volume() {
        let a = campaign(1, 32);
        let b = campaign(2, 32);
        assert_eq!(
            a.plan,
            campaign(1, 32).plan,
            "the same seed gives the same plan"
        );
        assert_ne!(a.plan, b.plan, "another seed gives another plan");
        let at = |c: &Campaign| {
            c.arrivals
                .iter()
                .map(|x| (x.at, x.request.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(at(&a), at(&b), "the arrival stream is fixed");
        let when = |c: &Campaign| c.plan.events().iter().map(|e| e.at).collect::<Vec<_>>();
        assert_eq!(when(&a), when(&b), "fault times are fixed");
    }
}
