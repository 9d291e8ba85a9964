//! Golden numbers for `examples/campaign.yml`: the six jobs' peak von
//! Mises stress and peak displacement, as the production path (default
//! `DirectCholesky`, `blocked` kernel) computed them when the solver was
//! cut down to that one path. A refactor that claims "same numbers" has
//! to keep these to ≤1e-9 relative — and "bit for bit" has to keep
//! `CHECKSUMS`, the jobs' FNV-1a checksums over every displacement and
//! sampled stress value (equal at every pool cap). A PR that means to move
//! bits updates them and says so in CHANGES.md; a failing run lists every
//! moved checksum and prints the `CHECKSUMS` block that re-records them.

use morestress_campaign::{results, CampaignReport, CampaignRunner, CampaignSpec, JobOutcome};
use morestress_linalg::WorkPool;

/// `(array, load, peak von Mises [MPa], peak |u| [µm])` per job, in the
/// runner's canonical order.
const GOLDEN: [(usize, usize, f64, f64); 6] = [
    (0, 0, 432.9763580633476, 0.03478241988362226),
    (0, 1, 173.19054322533913, 0.0139129679534489),
    (0, 2, 147.21196174153832, 0.011826022760431567),
    (1, 0, 441.9995067915207, 0.036354435150192856),
    (1, 1, 176.7998027166082, 0.014541774060077145),
    (1, 2, 150.27983230911696, 0.012360507951065573),
];

/// The jobs' checksums, in the same order (re-recorded when the direct
/// factor began to solve each array in its mirror group's symmetric
/// subspace).
const CHECKSUMS: [u64; 6] = [
    0xb6fa130a41dc8135,
    0x31e5723b004101a0,
    0x1220175bc9e7baaf,
    0xa64fe14dca153eb9,
    0x58d3947d035f99c6,
    0x5968655836d41891,
];

/// The order of the mirror group each array's direct factor folds by: the
/// 3×3 array inside its dummy ring (5×5 blocks) keeps all of D4, the 4×2
/// array both mirrors but not the diagonal.
const FOLD_ORDERS: [usize; 2] = [8, 4];

/// The `fold_order` key of every job section of the results record, in
/// job order.
fn recorded_fold_orders(reports: &[CampaignReport]) -> Vec<usize> {
    results::campaign_sections(reports)
        .iter()
        .filter_map(|(_, entries)| {
            let value = |key: &str| entries.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
            value("load_index").map(|_| value("fold_order").expect("fold_order") as usize)
        })
        .collect()
}

/// `examples/campaign.yml` as checked in.
fn example() -> CampaignSpec {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaign.yml");
    CampaignSpec::from_file(path).expect("examples/campaign.yml parses")
}

/// `examples/campaign.yml` with `from` replaced by `to` (the line must be
/// there, so a reworded example cannot silently test the default leg).
fn example_with(from: &str, to: &str) -> CampaignSpec {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaign.yml");
    let text = std::fs::read_to_string(path).expect("examples/campaign.yml reads");
    assert!(text.contains(from), "examples/campaign.yml has no `{from}`");
    CampaignSpec::parse(&text.replace(from, to)).expect("substituted spec parses")
}

/// How many sections of the results JSON carry a `verified_residual`.
fn sections_with_a_residual(reports: &[CampaignReport]) -> usize {
    results::campaign_sections(reports)
        .iter()
        .filter(|(_, entries)| entries.iter().any(|(key, _)| key == "verified_residual"))
        .count()
}

/// One campaign-level differential over every global-solver backend: the
/// example spec under the sharded backend at K = 1 and K = 4 and under
/// GMRES and CG must reproduce `GOLDEN`, the direct backend's peaks. The
/// direct family agrees to ≤ 1e-8 relative (static condensation is exact;
/// only rounding differs). The iterative legs stop at a relative residual
/// of the spec's `tolerance`; the peaks may then move by that residual
/// times the operator's condition number, so they are held to
/// `1e3 · tolerance` (1e-7 at the example's 1e-10; both Krylov legs land
/// near 8e-12).
#[test]
fn every_backend_reproduces_the_recorded_peaks() {
    // (leg, spec, shards every job must report, iterative?, fold orders
    // per array). A one-shard plan's shard is the operator itself, so it
    // folds; multi-shard interiors and the Krylov engines never do.
    let legs = [
        (
            "shards: 1",
            example_with("  shards: 0 ", "  shards: 1 "),
            1,
            false,
            FOLD_ORDERS,
        ),
        (
            "shards: 4",
            example_with("  shards: 0 ", "  shards: 4 "),
            4,
            false,
            [1, 1],
        ),
        (
            "gmres",
            example_with("global_solver: direct", "global_solver: gmres"),
            1,
            true,
            [1, 1],
        ),
        (
            "cg",
            example_with("global_solver: direct", "global_solver: cg"),
            1,
            true,
            [1, 1],
        ),
    ];
    for (leg, spec, shards, iterative, fold_orders) in legs {
        let bound = if iterative {
            1e3 * spec.solver.tolerance
        } else {
            1e-8
        };
        let reports = CampaignRunner::new().run(&[spec]).expect("model builds");
        let [report] = &reports[..] else {
            panic!("{leg}: one campaign in, {} reports out", reports.len());
        };
        // The example asks for `verify: report`, which the direct family
        // honours and the Krylov legs ignore: the results JSON shows which.
        assert_eq!(
            sections_with_a_residual(&reports),
            if iterative { 0 } else { GOLDEN.len() },
            "{leg}: job sections with a verified residual"
        );
        let job_orders: Vec<usize> = GOLDEN
            .iter()
            .map(|&(array, ..)| fold_orders[array])
            .collect();
        assert_eq!(
            recorded_fold_orders(&reports),
            job_orders,
            "{leg}: fold orders"
        );
        assert_eq!(report.jobs.len(), GOLDEN.len(), "{leg}");
        for (job, &(array, load, von_mises, displacement)) in report.jobs.iter().zip(&GOLDEN) {
            assert_eq!((job.array_index, job.load_index), (array, load), "{leg}");
            let JobOutcome::Solved {
                peak_von_mises,
                peak_displacement,
                stats,
                ..
            } = &job.outcome
            else {
                panic!("{leg}: array {array} load {load} failed: {:?}", job.outcome);
            };
            assert_eq!(
                stats.shards, shards,
                "{leg}: array {array} must solve on {shards} shard(s)"
            );
            assert_eq!(
                stats.fold_order, fold_orders[array],
                "{leg}: array {array}: fold order"
            );
            for (what, got, want) in [
                ("peak von Mises", *peak_von_mises, von_mises),
                ("peak |u|", *peak_displacement, displacement),
            ] {
                let rel = (got - want).abs() / want.abs();
                assert!(
                    rel <= bound,
                    "{leg}: array {array} load {load}: {what} {got} vs recorded {want} \
                     ({rel:.2e} > {bound:.0e})"
                );
            }
        }
    }
}

#[test]
fn example_campaign_reproduces_the_recorded_peaks() {
    let spec = example();
    let tolerance = spec.solver.tolerance;
    let reports = CampaignRunner::new().run(&[spec]).expect("model builds");
    let [report] = &reports[..] else {
        panic!("one campaign in, {} reports out", reports.len());
    };
    assert_eq!(report.solved(), 6);
    assert_eq!(report.jobs.len(), GOLDEN.len());

    let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs();
    let mut checksums = Vec::with_capacity(GOLDEN.len());
    for (job, &(array, load, von_mises, displacement)) in report.jobs.iter().zip(&GOLDEN) {
        assert_eq!((job.array_index, job.load_index), (array, load));
        let JobOutcome::Solved {
            peak_von_mises,
            peak_displacement,
            checksum,
            stats,
            ..
        } = &job.outcome
        else {
            panic!("array {array} load {load} failed: {:?}", job.outcome);
        };
        assert!(
            close(*peak_von_mises, von_mises),
            "array {array} load {load}: peak von Mises {peak_von_mises} vs recorded {von_mises}"
        );
        assert!(
            close(*peak_displacement, displacement),
            "array {array} load {load}: peak |u| {peak_displacement} vs recorded {displacement}"
        );
        // The spec asks for `verify: report`, so every job carries its
        // true residual.
        let residual = stats
            .verified_residual
            .expect("verify: report records a residual");
        assert!(
            residual <= tolerance,
            "array {array} load {load}: residual {residual} above {tolerance}"
        );
        assert_eq!(
            stats.fold_order, FOLD_ORDERS[array],
            "array {array} load {load}: fold order"
        );
        checksums.push(*checksum);
    }
    assert_eq!(sections_with_a_residual(&reports), GOLDEN.len());
    let job_orders: Vec<usize> = GOLDEN
        .iter()
        .map(|&(array, ..)| FOLD_ORDERS[array])
        .collect();
    assert_eq!(recorded_fold_orders(&reports), job_orders);

    // The results record round-trips: rendered and parsed back, every
    // section, key and value returns bit for bit (the checksum halves
    // included), and the record passes its own check.
    let sections = results::campaign_sections(&reports);
    let parsed = results::parse(&results::render(&sections)).expect("rendered record parses");
    let bits = |sections: &[results::Section]| -> Vec<(String, Vec<(String, u64)>)> {
        sections
            .iter()
            .map(|(name, entries)| {
                let entries = entries.iter().map(|(k, v)| (k.clone(), v.to_bits()));
                (name.clone(), entries.collect())
            })
            .collect()
    };
    assert_eq!(bits(&parsed), bits(&sections));
    assert_eq!(
        parsed.len(),
        1 + checksums.len(),
        "a summary, then the jobs"
    );
    for ((name, entries), checksum) in parsed[1..].iter().zip(&checksums) {
        let half = |key: &str| {
            let (_, v) = entries.iter().find(|(k, _)| k == key).expect(key);
            *v as u64
        };
        let joined = (half("checksum_hi") << 32) | half("checksum_lo");
        assert_eq!(joined, *checksum, "{name}: checksum halves");
    }
    assert_eq!(results::check(&parsed), Vec::<String>::new());

    // Every job is checked before anything fails, so one run reports every
    // moved checksum and the block that re-records them.
    let mismatches: Vec<String> = GOLDEN
        .iter()
        .zip(CHECKSUMS.iter().zip(&checksums))
        .filter(|(_, (recorded, got))| recorded != got)
        .map(|(&(array, load, ..), (recorded, got))| {
            format!("  array {array} load {load}: {got:#018x} vs recorded {recorded:#018x}")
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} checksums moved:\n{}\n\nIf the bits moved on purpose, replace `CHECKSUMS` \
         with the block below and say so in CHANGES.md:\n\n\
         const CHECKSUMS: [u64; 6] = [\n{}];\n",
        mismatches.len(),
        checksums.len(),
        mismatches.join("\n"),
        checksums
            .iter()
            .map(|c| format!("    {c:#018x},\n"))
            .collect::<String>()
    );
}

/// Every job's checksum, shard count and fold order, in job order.
fn solved_jobs(reports: &[CampaignReport]) -> Vec<(u64, usize, usize)> {
    let [report] = reports else {
        panic!("one campaign in, {} reports out", reports.len());
    };
    report
        .jobs
        .iter()
        .map(|job| match &job.outcome {
            JobOutcome::Solved {
                checksum, stats, ..
            } => (*checksum, stats.shards, stats.fold_order),
            JobOutcome::Failed { error } => panic!(
                "array {} load {} failed: {error}",
                job.array_index, job.load_index
            ),
        })
        .collect()
}

/// What `solved_jobs` reads from the example's direct run: `CHECKSUMS`,
/// one shard and `FOLD_ORDERS`.
fn direct_jobs() -> Vec<(u64, usize, usize)> {
    GOLDEN
        .iter()
        .zip(CHECKSUMS)
        .map(|(&(array, ..), checksum)| (checksum, 1, FOLD_ORDERS[array]))
        .collect()
}

/// `global_solver: auto` below its threshold (120 000 free rows) is the
/// direct factor behind the resilient ladder: an `auto` copy of the example
/// gives every job the direct run's checksum, bit for bit, and the direct
/// family's fold orders.
#[test]
fn auto_below_its_threshold_reproduces_the_direct_checksums() {
    let spec = example_with("  global_solver: direct ", "  global_solver: auto ");
    let reports = CampaignRunner::new().run(&[spec]).expect("model builds");
    assert_eq!(solved_jobs(&reports), direct_jobs());
}

/// Pool-cap invariance on the example and on a `shards: 4` copy of it: one
/// worker and eight give every job the same checksum, bit for bit (the
/// example's are `CHECKSUMS`, on one shard), and the copy solves every job
/// on 4 shards.
/// At either cap an array is the unit of work, so the example assembles
/// and factors each of its 2 arrays once — 2 misses, no hit, no reused
/// operator — and each cold job reports the factor it built.
#[test]
fn checksums_are_equal_at_one_and_eight_workers() {
    let run = |spec: &CampaignSpec, workers: usize| {
        WorkPool::new(workers).install(|| {
            CampaignRunner::new()
                .run(std::slice::from_ref(spec))
                .expect("model builds")
        })
    };
    for workers in [1, 8] {
        let reports = run(&example(), workers);
        let report = &reports[0];
        assert_eq!(
            (
                report.cache_misses,
                report.cache_hits,
                report.operators_reused()
            ),
            (2, 0, 0),
            "{workers} workers: misses, hits, reused operators"
        );
        for job in &report.jobs {
            let JobOutcome::Solved { stats, .. } = &job.outcome else {
                panic!("{workers} workers: array {} failed", job.array_index);
            };
            if !stats.operator_reused {
                assert!(
                    stats.factor_nnz.is_some_and(|nnz| nnz > 0),
                    "{workers} workers: array {} reports no factor",
                    job.array_index
                );
            }
        }
        assert_eq!(solved_jobs(&reports), direct_jobs(), "{workers} workers");
    }

    let sharded = example_with("  shards: 0 ", "  shards: 4 ");
    let serial = solved_jobs(&run(&sharded, 1));
    assert!(
        serial.iter().all(|&(_, shards, _)| shards == 4),
        "every job solves on 4 shards: {serial:?}"
    );
    assert_eq!(solved_jobs(&run(&sharded, 8)), serial, "8 workers vs 1");
}
