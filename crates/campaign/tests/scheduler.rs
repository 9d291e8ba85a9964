//! Scheduler contract: deterministic results and cache tallies regardless
//! of pool cap, shared factor caches across same-model campaigns, and
//! per-job fault containment (typed failures and panics alike).

use std::time::Duration;

use morestress_campaign::{
    ArraySpec, CampaignReport, CampaignRunner, CampaignSpec, JobOutcome, LocalStageCost, SolverSpec,
};
use morestress_core::MoreStressSimulator;
use morestress_linalg::{FaultPlan, WorkPool};
use morestress_mesh::TsvGeometry;

fn base_spec(name: &str) -> CampaignSpec {
    CampaignSpec {
        name: name.to_string(),
        materials: Vec::new(),
        geometry: TsvGeometry::paper_defaults(15.0),
        loads: vec![-250.0, 85.0],
        arrays: vec![
            ArraySpec {
                tsv_num_x: 2,
                tsv_num_y: 1,
                dummy_tsv_num_x: 0,
                dummy_tsv_num_y: 0,
            },
            ArraySpec {
                tsv_num_x: 1,
                tsv_num_y: 2,
                dummy_tsv_num_x: 0,
                dummy_tsv_num_y: 0,
            },
        ],
        solver: SolverSpec::default(),
    }
}

/// The scheduling-independent projection of a run: everything except
/// wall times and cache tallies must be identical across pool caps. Every
/// solved job must have timed its sampling.
fn deterministic_core(reports: &[CampaignReport]) -> Vec<(String, usize, usize, u64, Vec<u64>)> {
    reports
        .iter()
        .flat_map(|r| r.jobs.iter())
        .map(|job| {
            let outcome = match &job.outcome {
                JobOutcome::Solved {
                    checksum,
                    peak_displacement,
                    peak_von_mises,
                    sample_ms,
                    stats,
                } => {
                    assert!(*sample_ms > 0.0, "a solved job records its sampling time");
                    vec![
                        1,
                        *checksum,
                        peak_displacement.to_bits(),
                        peak_von_mises.to_bits(),
                        stats.total_dofs as u64,
                        stats.free_dofs as u64,
                        stats.shards as u64,
                    ]
                }
                JobOutcome::Failed { error } => {
                    vec![0, error.len() as u64]
                }
            };
            (
                job.campaign.clone(),
                job.array_index,
                job.load_index,
                job.load.to_bits(),
                outcome,
            )
        })
        .collect()
}

#[test]
fn results_are_identical_across_pool_caps() {
    let specs = [base_spec("alpha"), {
        let mut spec = base_spec("beta");
        spec.loads = vec![-100.0, 42.0, 7.5];
        spec.arrays.truncate(1);
        spec
    }];

    let run = |cap: usize| {
        WorkPool::new(cap).install(|| CampaignRunner::new().run(&specs).expect("campaigns run"))
    };

    let baseline = run(1);
    assert_eq!(baseline.len(), 2);
    assert_eq!(baseline[0].solved() + baseline[1].solved(), 7);
    let core = deterministic_core(&baseline);
    // Canonical report order, independent of everything.
    assert_eq!(core[0].0, "alpha");
    assert!(core
        .windows(2)
        .all(|w| w[0].0 < w[1].0 || (w[0].1, w[0].2) < (w[1].1, w[1].2)));

    for cap in [2, 8] {
        let reports = run(cap);
        assert_eq!(
            deterministic_core(&reports),
            core,
            "cap {cap} must reproduce the serial run bitwise"
        );
    }
}

/// Two arrays of different sizes share one simulator and its hoisted
/// 4-shard backend. Each operator carries its own partition hint and the
/// backend plans from nothing else, so no job can plan under the hint a
/// concurrent job on the other array last handed it (a foreign hint has
/// the wrong length — one shard, other bits, by scheduling): every job
/// shards, and the run is the serial one bit for bit at every pool cap.
#[test]
fn sharded_arrays_of_one_simulator_each_plan_from_their_own_hint() {
    let mut spec = base_spec("sharded");
    spec.solver.shards = 4;
    spec.loads = vec![-250.0, 85.0, 40.0];
    let array = |tsv_num_x, tsv_num_y| ArraySpec {
        tsv_num_x,
        tsv_num_y,
        dummy_tsv_num_x: 0,
        dummy_tsv_num_y: 0,
    };
    spec.arrays = vec![array(4, 4), array(6, 3)];
    let specs = [spec];

    let run = |cap: usize| {
        let reports = WorkPool::new(cap)
            .install(|| CampaignRunner::new().run(&specs).expect("campaign runs"));
        for job in &reports[0].jobs {
            let JobOutcome::Solved { stats, .. } = &job.outcome else {
                panic!("cap {cap}: array {} failed", job.array_index);
            };
            assert!(
                stats.plan_stats.is_some_and(|plan| plan.shards >= 2),
                "cap {cap}: array {} load {} was planned as one shard",
                job.array_index,
                job.load_index
            );
        }
        deterministic_core(&reports)
    };

    let core = run(1);
    assert_eq!(core.len(), 6);
    assert!(
        core.iter().all(|job| job.4[6] >= 2),
        "every job really shards"
    );
    assert_eq!(run(8), core, "cap 8 must reproduce the serial run bitwise");
}

#[test]
fn same_model_campaigns_share_one_factor_cache() {
    let first = base_spec("first");
    let mut second = base_spec("second");
    second.loads = vec![-150.0, 60.0]; // different loads, same model + lattices

    // A cap-1 pool runs the first campaign's arrays before the second's.
    // Each array is one batched solve: the first campaign factors its 2
    // distinct lattices (2 misses), and the second finds both factors
    // (2 hits) — *across* campaigns, provable only if they share one
    // cache.
    let reports = WorkPool::new(1).install(|| {
        CampaignRunner::new()
            .run(&[first, second])
            .expect("campaigns run")
    });
    assert_eq!(reports[0].solved(), 4);
    assert_eq!(reports[1].solved(), 4);
    for report in &reports {
        assert_eq!(report.cache_misses, 2, "one miss per distinct lattice");
        assert_eq!(
            report.cache_hits, 2,
            "each second-campaign array reuses a factor"
        );
    }
    // Each of those hits was found by key: the second campaign never
    // assembles, because the keys live in the shared cache. Within one
    // array the loads share one batch, so none of the first campaign's jobs
    // reuses an operator.
    assert_eq!(reports[0].operators_reused(), 0);
    assert_eq!(reports[1].operators_reused(), 4);
}

/// With an array as the unit of work the tallies do not depend on the
/// pool cap: at cap 8 every array still assembles and factors once, and
/// no job of a lone campaign finds its operator in the cache.
#[test]
fn tallies_are_exact_at_pool_cap_8() {
    let mut spec = base_spec("wide");
    spec.loads = vec![-250.0, 85.0, 40.0];
    let reports =
        WorkPool::new(8).install(|| CampaignRunner::new().run(&[spec]).expect("campaign runs"));
    let report = &reports[0];
    assert_eq!(report.solved(), 6);
    assert_eq!(report.cache_misses, 2, "one miss per array");
    assert_eq!(report.cache_hits, 0, "no hit within an array's batch");
    assert_eq!(report.operators_reused(), 0);
}

#[test]
fn local_stage_cost_splits_a_build_and_is_zero_for_a_loaded_model() {
    let stem = std::env::temp_dir().join(format!("morestress-local-cost-{}", std::process::id()));
    let build = || {
        MoreStressSimulator::builder(&TsvGeometry::paper_defaults(15.0))
            .interpolation([2, 2, 2])
            .cache_stem(stem.clone())
            .build()
            .expect("the simulator builds")
    };
    let built = LocalStageCost::of(&build());
    assert!(built.sweeps > Duration::ZERO, "{built:?}");
    assert!(
        built.factor + built.sweeps + built.projection <= built.build,
        "{built:?}"
    );
    // The second build loads the `.rom` the first one saved.
    assert_eq!(LocalStageCost::of(&build()), LocalStageCost::default());
    for kind in ["tsv", "dummy"] {
        let _ = std::fs::remove_file(format!("{}-{kind}.rom", stem.display()));
    }

    let reports = CampaignRunner::new()
        .run(&[base_spec("timed")])
        .expect("models build");
    assert!(reports[0].local_stage.sweeps > Duration::ZERO);
}

#[test]
fn poisoned_load_fails_one_job_not_the_campaign() {
    let mut spec = base_spec("poisoned");
    spec.arrays.truncate(1);
    spec.loads = vec![-250.0, -100.0, 42.0, 85.0];
    // Deterministic fault-site selection, same idiom as the PR 8 suite.
    let victim = FaultPlan::new(0xC0FFEE).pick(spec.loads.len());
    spec.loads[victim] = f64::NAN;

    let reports =
        WorkPool::new(8).install(|| CampaignRunner::new().run(&[spec]).expect("campaign runs"));
    let report = &reports[0];
    assert_eq!(report.solved(), 3);
    assert_eq!(report.failed(), 1);
    for job in &report.jobs {
        match &job.outcome {
            JobOutcome::Failed { error } => {
                assert_eq!(job.load_index, victim);
                assert!(error.contains("not finite"), "typed failure, got: {error}");
            }
            JobOutcome::Solved { .. } => assert_ne!(job.load_index, victim),
        }
    }
}

#[test]
fn panicking_job_is_contained_with_its_message() {
    let mut spec = base_spec("panicky");
    // An empty array: `BlockLayout::uniform(0, 0, ..)` asserts inside the
    // array's task — the panic must become the Failed outcome of each of
    // its jobs, not sink the run (scope_collect would otherwise rethrow
    // it).
    spec.arrays.push(ArraySpec {
        tsv_num_x: 0,
        tsv_num_y: 0,
        dummy_tsv_num_x: 0,
        dummy_tsv_num_y: 0,
    });

    let reports = WorkPool::new(2).install(|| {
        CampaignRunner::new()
            .run(&[spec])
            .expect("campaign completes")
    });
    let report = &reports[0];
    assert_eq!(report.solved(), 4);
    assert_eq!(report.failed(), 2);
    let errors: Vec<&str> = report
        .jobs
        .iter()
        .filter_map(|j| match &j.outcome {
            JobOutcome::Failed { error } => {
                assert_eq!(j.array_index, 2, "only the empty array fails");
                Some(error.as_str())
            }
            JobOutcome::Solved { .. } => None,
        })
        .collect();
    assert_eq!(errors.len(), 2);
    assert!(
        errors[0].contains("panic") && errors[0].contains("non-empty"),
        "panic payload surfaced: {}",
        errors[0]
    );
    assert_eq!(
        errors[0], errors[1],
        "both jobs of the array carry one message"
    );
}
